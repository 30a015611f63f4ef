#pragma once

// Dynamically-typed scalar value matching AttrType, plus the key-lane
// canonicalization used for equi-join keys.

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <variant>

#include "schema/schema.hpp"

namespace orv {

/// One scalar of any supported attribute type.
class Value {
 public:
  Value() : v_(std::int32_t{0}) {}
  Value(std::int32_t v) : v_(v) {}       // NOLINT(google-explicit-constructor)
  Value(std::int64_t v) : v_(v) {}       // NOLINT
  Value(float v) : v_(v) {}              // NOLINT
  Value(double v) : v_(v) {}             // NOLINT

  AttrType type() const;

  /// Numeric widening view; exact for i32/f32/f64, may round for huge i64.
  double as_double() const;

  std::int64_t as_int64() const;

  /// Reads a value of the given type from raw record bytes.
  static Value read(AttrType type, const std::byte* p);

  /// Writes this value (converted to `type`) into raw record bytes.
  void write(AttrType type, std::byte* p) const;

  /// Canonical 64-bit lane for hashing/equality in equi-joins. Floating
  /// values normalize -0.0 to +0.0 so -0.0 joins with +0.0.
  std::uint64_t key_lane() const;

  bool operator==(const Value& other) const {
    return key_lane() == other.key_lane() && type() == other.type();
  }

  std::string to_string() const;

 private:
  std::variant<std::int32_t, std::int64_t, float, double> v_;
};

/// Canonical lane of a floating key: -0.0 normalizes to +0.0 so the two
/// join; the value travels as an f64 bit pattern so f32 0.5 and f64 0.5
/// canonicalize identically.
inline std::uint64_t float_key_lane(double d) {
  if (d == 0.0) d = 0.0;
  std::uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// Throws InvalidArgument for a record lane of a type outside AttrType.
[[noreturn]] void throw_bad_attr_type();

/// Canonical key lane straight from record bytes (avoids Value round-trip on
/// the join hot path). Inline: every join row hash goes through it.
inline std::uint64_t key_lane_from_bytes(AttrType type, const std::byte* p) {
  switch (type) {
    case AttrType::Int32: {
      std::int32_t v;
      std::memcpy(&v, p, sizeof(v));
      return static_cast<std::uint64_t>(static_cast<std::int64_t>(v));
    }
    case AttrType::Int64: {
      std::int64_t v;
      std::memcpy(&v, p, sizeof(v));
      return static_cast<std::uint64_t>(v);
    }
    case AttrType::Float32: {
      float v;
      std::memcpy(&v, p, sizeof(v));
      return float_key_lane(static_cast<double>(v));
    }
    case AttrType::Float64: {
      double v;
      std::memcpy(&v, p, sizeof(v));
      return float_key_lane(v);
    }
  }
  throw_bad_attr_type();
}

/// The as_double() view straight from record bytes: what
/// Value::read(type, p).as_double() returns, without the variant. Inline:
/// every selection and bounds lane reads through it.
inline double double_from_bytes(AttrType type, const std::byte* p) {
  switch (type) {
    case AttrType::Int32: {
      std::int32_t v;
      std::memcpy(&v, p, sizeof(v));
      return static_cast<double>(v);
    }
    case AttrType::Int64: {
      std::int64_t v;
      std::memcpy(&v, p, sizeof(v));
      return static_cast<double>(v);
    }
    case AttrType::Float32: {
      float v;
      std::memcpy(&v, p, sizeof(v));
      return static_cast<double>(v);
    }
    case AttrType::Float64: {
      double v;
      std::memcpy(&v, p, sizeof(v));
      return v;
    }
  }
  throw_bad_attr_type();
}

}  // namespace orv
