// The paper's Figure 1, traced event by event.
//
// Node x submits
//   q = SELECT S.B, M.A FROM R,S,J,M
//       WHERE R.A=S.A AND S.B=J.B AND J.C=M.C
// and four tuples arrive: t1=(2,5,8) of R, t2=(2,6,3) of S, t3=(9,1,2) of M
// (stored, waits), t4=(7,6,2) of J. The final rewrite meets the stored M
// tuple and the answer S.B=6, M.A=9 is created.
//
// This example prints both views of each event: the reference textual
// rewriting (sql::Rewriter, exactly the paper's q -> q1 -> q2 -> q3) and
// the live distributed run (RJoinEngine), which must deliver the same
// answer.

#include <iostream>

#include "core/engine.h"
#include "dht/chord_network.h"
#include "dht/transport.h"
#include "sim/latency.h"
#include "sim/simulator.h"
#include "sql/parser.h"
#include "sql/rewriter.h"
#include "sql/schema.h"
#include "stats/metrics.h"

using namespace rjoin;

int main() {
  sql::Catalog catalog;
  (void)catalog.AddRelation(sql::Schema("R", {"A", "B", "C"}));
  (void)catalog.AddRelation(sql::Schema("S", {"A", "B", "C"}));
  (void)catalog.AddRelation(sql::Schema("J", {"A", "B", "C"}));
  (void)catalog.AddRelation(sql::Schema("M", {"A", "B", "C"}));

  const char* kQueryText =
      "SELECT S.B, M.A FROM R,S,J,M "
      "WHERE R.A=S.A AND S.B=J.B AND J.C=M.C";

  // ---- Reference view: the textual rewrites of Figure 1. -------------
  auto q = sql::Parser::Parse(kQueryText);
  if (!q.ok()) {
    std::cerr << q.status().ToString() << "\n";
    return 1;
  }
  sql::Rewriter rewriter(&catalog);
  auto I = [](int64_t v) { return sql::Value::Int(v); };

  std::cout << "Event 1: node x submits\n  q  = " << q->ToString() << "\n\n";

  auto t1 = sql::MakeTuple("R", {I(2), I(5), I(8)}, 1, 1, 1);
  auto q1 = rewriter.Rewrite(*q, *t1);
  if (!q1.ok()) { std::cerr << q1.status().ToString() << "\n"; return 1; }
  std::cout << "Event 2: tuple t1=" << t1->ToString()
            << " arrives; r1 rewrites q into\n  q1 = " << q1->ToString()
            << "\n  (indexed at Successor(Hash(S+A+'2')))\n\n";

  auto t2 = sql::MakeTuple("S", {I(2), I(6), I(3)}, 2, 2, 2);
  auto q2 = rewriter.Rewrite(*q1, *t2);
  if (!q2.ok()) { std::cerr << q2.status().ToString() << "\n"; return 1; }
  std::cout << "Event 3: tuple t2=" << t2->ToString()
            << " arrives; r2 rewrites q1 into\n  q2 = " << q2->ToString()
            << "\n  (indexed at Successor(Hash(J+B+'6')))\n\n";

  auto t3 = sql::MakeTuple("M", {I(9), I(1), I(2)}, 3, 3, 3);
  std::cout << "Event 4: tuple t3=" << t3->ToString()
            << " arrives; r4 stores t3 (no waiting query yet)\n\n";

  auto t4 = sql::MakeTuple("J", {I(7), I(6), I(2)}, 4, 4, 4);
  auto q3 = rewriter.Rewrite(*q2, *t4);
  if (!q3.ok()) { std::cerr << q3.status().ToString() << "\n"; return 1; }
  std::cout << "Event 5: tuple t4=" << t4->ToString()
            << " arrives; r3 rewrites q2 into\n  q3 = " << q3->ToString()
            << "\n  q3 travels to r4 where stored t3 triggers it:\n";
  auto q_final = rewriter.Rewrite(*q3, *t3);
  if (!q_final.ok()) {
    std::cerr << q_final.status().ToString() << "\n";
    return 1;
  }
  std::cout << "  where clause is now true -> answer "
            << "(S.B=" << sql::Rewriter::ExtractAnswer(*q_final)[0]
                               .ToDisplayString()
            << ", M.A=" << sql::Rewriter::ExtractAnswer(*q_final)[1]
                                .ToDisplayString()
            << ")\n\n";

  // ---- Live view: the distributed engine on a 48-node overlay. -------
  auto network = dht::ChordNetwork::Create(48, 7);
  sim::FixedLatency latency(1);
  stats::MetricsRegistry metrics(network->num_total());
  sim::Simulator simulator(&metrics, 77);
  dht::Transport transport(network.get(), &simulator, &latency);
  core::RJoinEngine engine({}, &catalog, network.get(), &transport,
                           &simulator);

  auto qid = engine.SubmitQuerySql(0, kQueryText);
  if (!qid.ok()) {
    std::cerr << qid.status().ToString() << "\n";
    return 1;
  }
  simulator.Run();
  struct Pub {
    const char* rel;
    std::vector<sql::Value> vals;
  };
  const Pub pubs[] = {
      {"R", {I(2), I(5), I(8)}},
      {"S", {I(2), I(6), I(3)}},
      {"M", {I(9), I(1), I(2)}},
      {"J", {I(7), I(6), I(2)}},
  };
  dht::NodeIndex publisher = 5;
  for (const Pub& p : pubs) {
    (void)engine.PublishTuple(publisher++, p.rel, p.vals);
    simulator.Run();
  }

  const auto answers = engine.AnswersFor(*qid);
  std::cout << "Distributed run: " << answers.size()
            << " answer(s) delivered to node x";
  for (const auto& a : answers) {
    std::cout << " -> (S.B=" << a.row[0].ToDisplayString()
              << ", M.A=" << a.row[1].ToDisplayString() << ")";
  }
  std::cout << "\nusing " << metrics.total_messages()
            << " messages; both views agree.\n";
  return answers.size() == 1 ? 0 : 1;
}
