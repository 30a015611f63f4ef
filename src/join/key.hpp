#pragma once

// Equi-join key handling: resolving named join attributes against schemas
// and canonicalizing a row's key into 64-bit lanes for hashing/equality.

#include <cstdint>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "subtable/subtable.hpp"

namespace orv {

/// Most key attributes one join may name; lane buffers live on the stack.
inline constexpr std::size_t kMaxKeyArity = 8;

/// Join-attribute indices resolved against one schema, with cached types
/// and offsets for the hot path.
class JoinKey {
 public:
  /// Resolves attribute names (e.g. {"x","y"}) against `schema`. All names
  /// must exist; at least one and at most kMaxKeyArity are required.
  static JoinKey resolve(const Schema& schema,
                         const std::vector<std::string>& attr_names);

  std::size_t arity() const { return offsets_.size(); }
  const std::vector<std::size_t>& attr_indices() const { return indices_; }

  /// Writes the row's canonical key lanes into `lanes` (must have arity()
  /// capacity).
  void extract_lanes(const std::byte* row, std::uint64_t* lanes) const {
    for (std::size_t i = 0; i < offsets_.size(); ++i) {
      lanes[i] = key_lane_from_bytes(types_[i], row + offsets_[i]);
    }
  }

  /// Hash of a row's key with the given salt (distinct salts give the
  /// independent functions h1, h2 and the in-memory table hash). The one
  /// definition of row hashing: hash_lanes over the canonical lanes.
  std::uint64_t hash_row(const std::byte* row, std::uint64_t salt) const {
    std::uint64_t lanes[kMaxKeyArity];
    extract_lanes(row, lanes);
    return hash_lanes({lanes, arity()}, salt);
  }

  bool lanes_equal(const std::uint64_t* a, const std::uint64_t* b) const {
    for (std::size_t i = 0; i < offsets_.size(); ++i) {
      if (a[i] != b[i]) return false;
    }
    return true;
  }

  /// Two keys over different schemas are compatible when they have the same
  /// arity and each position canonicalizes into the same lane family:
  /// integer (i32/i64 sign-extended) or float (f32/f64 as f64 bits). So f32
  /// x joins f64 x, but an integer never joins a float whose bits it shares.
  bool compatible_with(const JoinKey& other) const {
    if (arity() != other.arity()) return false;
    for (std::size_t i = 0; i < types_.size(); ++i) {
      if (is_float_lane(types_[i]) != is_float_lane(other.types_[i])) {
        return false;
      }
    }
    return true;
  }

 private:
  std::vector<std::size_t> indices_;
  std::vector<std::size_t> offsets_;
  std::vector<AttrType> types_;

  static bool is_float_lane(AttrType t) {
    return t == AttrType::Float32 || t == AttrType::Float64;
  }
};

/// Well-known salts for the three hashing contexts.
inline constexpr std::uint64_t kSaltInMemory = 0x1111111111111111ull;
inline constexpr std::uint64_t kSaltGraceH1 = 0x2222222222222222ull;
inline constexpr std::uint64_t kSaltGraceH2 = 0x3333333333333333ull;

}  // namespace orv
