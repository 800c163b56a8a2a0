#ifndef RJOIN_UTIL_HASH_H_
#define RJOIN_UTIL_HASH_H_

#include <cstdint>
#include <string_view>

namespace rjoin {

/// 64-bit FNV-1a. Process-internal hashing only (interner index slots,
/// projection fingerprints) — never persisted or sent anywhere, so the
/// concrete function is free to change as long as every user changes with
/// it (which is why there is exactly one definition).
inline uint64_t Fnv1a64(std::string_view s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// splitmix64 finalizer: a bijective 64-bit mix for integer keys (value
/// and key-code dictionaries). Process-internal, like Fnv1a64.
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace rjoin

#endif  // RJOIN_UTIL_HASH_H_
