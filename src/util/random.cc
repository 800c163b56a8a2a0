#include "util/random.h"

namespace rjoin {
namespace {

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(sm);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  // Lemire's multiply-shift rejection method: unbiased and fast.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t l = static_cast<uint64_t>(m);
  if (l < bound) {
    uint64_t threshold = -bound % bound;
    while (l < threshold) {
      x = Next();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(
                  NextBounded(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool Rng::NextBernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

Rng Rng::Fork() { return Rng(Next()); }

}  // namespace rjoin
