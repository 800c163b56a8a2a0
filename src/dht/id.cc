#include "dht/id.h"

#include <cmath>

#include "util/logging.h"
#include "util/sha1.h"

namespace rjoin::dht {

NodeId NodeId::FromKey(std::string_view key) {
  NodeId id;
  id.words_ = Sha1(key);
  return id;
}

NodeId NodeId::FromUint64(uint64_t value) {
  NodeId id;
  id.words_[3] = static_cast<uint32_t>(value >> 32);
  id.words_[4] = static_cast<uint32_t>(value & 0xffffffffULL);
  return id;
}

NodeId NodeId::FromHex(std::string_view hex) {
  RJOIN_CHECK(hex.size() == 40) << "NodeId hex must be 40 chars";
  NodeId id;
  for (int w = 0; w < kWords; ++w) {
    uint32_t word = 0;
    for (int c = 0; c < 8; ++c) {
      const char ch = hex[w * 8 + c];
      uint32_t digit;
      if (ch >= '0' && ch <= '9') {
        digit = static_cast<uint32_t>(ch - '0');
      } else if (ch >= 'a' && ch <= 'f') {
        digit = static_cast<uint32_t>(ch - 'a' + 10);
      } else {
        RJOIN_CHECK(false) << "bad hex char in NodeId";
        digit = 0;
      }
      word = (word << 4) | digit;
    }
    id.words_[w] = word;
  }
  return id;
}

NodeId NodeId::Max() {
  NodeId id;
  id.words_.fill(0xffffffffu);
  return id;
}

NodeId NodeId::AddPowerOfTwo(int power) const {
  RJOIN_CHECK(power >= 0 && power < kBits);
  NodeId p;
  const int word = kWords - 1 - power / 32;  // words are big-endian
  p.words_[word] = 1u << (power % 32);
  return Add(p);
}

NodeId NodeId::Add(const NodeId& other) const {
  NodeId out;
  uint64_t carry = 0;
  for (int w = kWords - 1; w >= 0; --w) {
    const uint64_t sum = static_cast<uint64_t>(words_[w]) +
                         static_cast<uint64_t>(other.words_[w]) + carry;
    out.words_[w] = static_cast<uint32_t>(sum & 0xffffffffULL);
    carry = sum >> 32;
  }
  return out;  // Overflow wraps (mod 2^160), as ring arithmetic requires.
}

NodeId NodeId::Subtract(const NodeId& other) const {
  NodeId out;
  int64_t borrow = 0;
  for (int w = kWords - 1; w >= 0; --w) {
    int64_t diff = static_cast<int64_t>(words_[w]) -
                   static_cast<int64_t>(other.words_[w]) - borrow;
    if (diff < 0) {
      diff += 0x100000000LL;
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.words_[w] = static_cast<uint32_t>(diff);
  }
  return out;  // Underflow wraps (mod 2^160).
}

double NodeId::ToDouble() const {
  double v = 0.0;
  for (int w = 0; w < kWords; ++w) {
    v = v * 4294967296.0 + static_cast<double>(words_[w]);
  }
  return v;
}

std::string NodeId::ToHex() const { return Sha1ToHex(words_); }

bool InIntervalOpenClosed(const NodeId& x, const NodeId& a, const NodeId& b) {
  if (a == b) return true;  // Whole ring.
  if (a < b) return a < x && x <= b;
  return x > a || x <= b;  // Interval wraps past zero.
}

bool InIntervalOpenOpen(const NodeId& x, const NodeId& a, const NodeId& b) {
  if (a == b) return x != a;  // Whole ring minus the endpoint.
  if (a < b) return a < x && x < b;
  return x > a || x < b;
}

}  // namespace rjoin::dht
