#pragma once

// SubTable: the unit of data exchanged between services.
//
// A Basic Data Source maps each file chunk to one basic sub-table — a
// partition of the virtual table holding a subset of records, stored as
// packed row-major records, together with its bounding box. Sub-tables are
// identified by (table id, chunk id) as in the paper's "(i, j)".

#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <vector>

#include "schema/schema.hpp"
#include "schema/value.hpp"
#include "subtable/bounds.hpp"

namespace orv {

using TableId = std::uint32_t;
using ChunkId = std::uint32_t;

/// Identifier of a basic sub-table: table i, chunk j.
struct SubTableId {
  TableId table = 0;
  ChunkId chunk = 0;

  auto operator<=>(const SubTableId&) const = default;
  std::string to_string() const {
    return "(" + std::to_string(table) + "," + std::to_string(chunk) + ")";
  }
};

struct SubTableIdHash {
  std::size_t operator()(const SubTableId& id) const {
    return std::hash<std::uint64_t>()(
        (static_cast<std::uint64_t>(id.table) << 32) | id.chunk);
  }
};

/// Per-attribute bounds grown row by row over packed records: each row's
/// attributes are read as doubles (the as_double view) and widened with
/// Rect::expand's `<`/`>` comparisons, so a NaN widens nothing and the
/// bounds depend on row order only through signed zeros. The one bounds
/// loop: SubTable::compute_bounds and filter_rows both run it.
class BoundsBuilder {
 public:
  explicit BoundsBuilder(const Schema& schema);

  void add(const std::byte* row) {
    ++rows_;
    for (Column& c : cols_) {
      const double v = double_from_bytes(c.type, row + c.offset);
      if (v < c.lo) c.lo = v;
      if (v > c.hi) c.hi = v;
    }
  }

  /// The box of the rows added; with none, the empty box {1, -1} in every
  /// attribute, which overlaps nothing.
  Rect finish() const;

 private:
  struct Column {
    std::size_t offset;
    AttrType type;
    double lo;
    double hi;
  };
  std::vector<Column> cols_;
  std::size_t rows_ = 0;
};

/// Packed row-major record container with schema and bounding box.
class SubTable {
 public:
  SubTable(SchemaPtr schema, SubTableId id);

  const Schema& schema() const { return *schema_; }
  const SchemaPtr& schema_ptr() const { return schema_; }
  SubTableId id() const { return id_; }

  std::size_t num_rows() const { return num_rows_; }
  std::size_t record_size() const { return schema_->record_size(); }
  std::size_t size_bytes() const { return data_.size(); }
  bool empty() const { return num_rows_ == 0; }

  void reserve_rows(std::size_t n) { data_.reserve(n * record_size()); }

  /// Appends one packed record (must be exactly record_size() bytes).
  void append_row(std::span<const std::byte> record);

  /// Zero-copy append window: grows the byte buffer to hold `n` rows past
  /// the committed ones and returns the write cursor at the first
  /// uncommitted row. Rows written there become visible only after
  /// append_rows_commit. Any append/row access between reserve and commit
  /// other than writing through the cursor is undefined; finish a raw
  /// append sequence with append_rows_trim before using bytes()/append_row.
  std::byte* append_rows_reserve(std::size_t n);

  /// Publishes `n` rows written through the last append_rows_reserve
  /// cursor (n may be less than reserved).
  void append_rows_commit(std::size_t n);

  /// Shrinks the byte buffer back to the committed rows, restoring the
  /// size_bytes() == num_rows() * record_size() invariant.
  void append_rows_trim();

  /// Appends a record from typed values (one per schema attribute, in order).
  void append_values(std::span<const Value> values);

  /// Pointer to the start of row r.
  const std::byte* row(std::size_t r) const;
  std::byte* mutable_row(std::size_t r);

  /// Typed scalar access.
  template <typename T>
  T get(std::size_t r, std::size_t attr) const {
    T v;
    std::memcpy(&v, row(r) + schema_->offset(attr), sizeof(T));
    return v;
  }

  template <typename T>
  void set(std::size_t r, std::size_t attr, T v) {
    std::memcpy(mutable_row(r) + schema_->offset(attr), &v, sizeof(T));
  }

  /// Dynamically-typed access.
  Value value(std::size_t r, std::size_t attr) const;

  /// Numeric view of any attribute (for predicates and aggregation).
  double as_double(std::size_t r, std::size_t attr) const;

  /// Whole payload (num_rows * record_size bytes).
  std::span<const std::byte> bytes() const { return data_; }

  /// Adopts an externally built payload (e.g. from an extractor); size must
  /// be a multiple of record_size.
  void adopt_bytes(std::vector<std::byte> payload);

  /// Per-attribute bounding box; valid after set_bounds/compute_bounds.
  const Rect& bounds() const { return bounds_; }
  void set_bounds(Rect b);

  /// Scans all rows and tightens the bounding box to the data.
  void compute_bounds();

  /// Drops every row past the first `n` (n <= num_rows()); a buffer left
  /// more than half unused is shrunk.
  void keep_rows(std::size_t n);

  /// Order-independent 64-bit digest of the row multiset; used to compare a
  /// distributed join result with the reference result without sorting.
  std::uint64_t unordered_fingerprint() const;

  std::string to_string(std::size_t max_rows = 10) const;

 private:
  SchemaPtr schema_;
  SubTableId id_;
  std::vector<std::byte> data_;
  std::size_t num_rows_ = 0;
  Rect bounds_;
};

}  // namespace orv
