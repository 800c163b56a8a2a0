#ifndef RJOIN_DHT_ID_H_
#define RJOIN_DHT_ID_H_

#include <array>
#include <compare>
#include <cstdint>
#include <string>
#include <string_view>

namespace rjoin::dht {

/// A 160-bit identifier on the Chord ring. Identifiers are produced by
/// hashing keys with SHA-1 (consistent hashing), exactly as in the Chord
/// paper the system model of Section 2 builds on. Represented as five
/// 32-bit words, most significant first, so lexicographic comparison of the
/// words equals numeric comparison of the identifier.
class NodeId {
 public:
  static constexpr int kBits = 160;
  static constexpr int kWords = 5;

  /// Zero identifier.
  constexpr NodeId() : words_{} {}

  /// Identifier of a key: SHA-1(key). This is the paper's Hash(k).
  static NodeId FromKey(std::string_view key);

  /// Identifier whose low 64 bits are `value` (testing helper).
  static NodeId FromUint64(uint64_t value);

  /// Parses a 40-char lowercase hex string; asserts on malformed input.
  static NodeId FromHex(std::string_view hex);

  /// The largest identifier (2^160 - 1).
  static NodeId Max();

  /// Returns this + 2^power (mod 2^160); power in [0, 160). Used for
  /// Chord finger-table starts: finger[i] starts at n + 2^i.
  NodeId AddPowerOfTwo(int power) const;

  /// Returns this + other (mod 2^160).
  NodeId Add(const NodeId& other) const;

  /// Returns this - other (mod 2^160): the clockwise distance from
  /// `other` to this.
  NodeId Subtract(const NodeId& other) const;

  /// Approximates the identifier as a double in [0, 2^160). Used only for
  /// network-size estimation, where relative error is acceptable.
  double ToDouble() const;

  std::string ToHex() const;

  friend auto operator<=>(const NodeId&, const NodeId&) = default;

  const std::array<uint32_t, kWords>& words() const { return words_; }

  struct Hasher {
    size_t operator()(const NodeId& id) const {
      // Words are already uniformly distributed (SHA-1 output).
      return (static_cast<size_t>(id.words_[0]) << 32) ^ id.words_[1] ^
             (static_cast<size_t>(id.words_[2]) << 16);
    }
  };

 private:
  std::array<uint32_t, kWords> words_;
};

/// True iff x is in the half-open ring interval (a, b]. When a == b the
/// interval spans the whole ring (single-node convention in Chord).
bool InIntervalOpenClosed(const NodeId& x, const NodeId& a, const NodeId& b);

/// True iff x is in the open ring interval (a, b). When a == b the interval
/// is the whole ring except a.
bool InIntervalOpenOpen(const NodeId& x, const NodeId& a, const NodeId& b);

}  // namespace rjoin::dht

#endif  // RJOIN_DHT_ID_H_
