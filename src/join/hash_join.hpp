#pragma once

// In-memory hash join: the sub-routine both distributed algorithms share
// (paper Section 5).
//
// The hash table stores *row indices* into the pinned left sub-table — the
// paper's "pointer to the relevant record" — so build and lookup costs are
// independent of record size (alpha_build, alpha_lookup are per tuple).
//
// BuiltHashTable is reusable: the Indexed Join builds it once per left
// sub-table and probes it with every connected right sub-table.
//
// The kernel is cache-conscious (see DESIGN.md "Join kernel internals"):
//  - an 8-bit tag array is checked before any 16-byte Slot load, so probes
//    that miss touch one byte per visited slot;
//  - probe rows are processed in batches with software prefetch on the next
//    batch's slot groups, hiding DRAM latency on cache-exceeding tables;
//  - matched rows are written straight into the output sub-table through
//    SubTable::append_rows_reserve (no staging row buffer, single copy);
//  - the table keeps each key lane's [min, max] over the build rows, and a
//    probe drops rows outside it before hashing or touching tags/slots.

#include <cstdint>
#include <memory>
#include <vector>

#include "join/key.hpp"
#include "subtable/subtable.hpp"

namespace orv {

/// Tuple-level cost counters, consumed by the simulation (charged to CPUs
/// as gamma ops/tuple) and by cost-model calibration.
struct JoinStats {
  std::uint64_t build_tuples = 0;
  std::uint64_t probe_tuples = 0;
  std::uint64_t result_tuples = 0;

  JoinStats& operator+=(const JoinStats& o) {
    build_tuples += o.build_tuples;
    probe_tuples += o.probe_tuples;
    result_tuples += o.result_tuples;
    return *this;
  }
};

/// Plan for copying the non-key right attributes into result rows.
struct RightCopyPlan {
  struct Piece {
    std::size_t src_offset;
    std::size_t dst_offset;
    std::size_t size;
  };
  std::vector<Piece> pieces;
  std::size_t result_record_size = 0;
  std::size_t left_record_size = 0;

  static RightCopyPlan make(const Schema& left, const Schema& right,
                            const JoinKey& right_key);
};

/// The probe side of a join resolved once: the right key, the copy plan
/// into result rows, and the right record size. Build it once per query or
/// probe loop and pass it to every probe; the string-taking probes resolve
/// one per call.
struct ProbeSide {
  JoinKey key;
  RightCopyPlan plan;
  std::size_t record_size = 0;

  /// Resolves `key_attrs` against `right` for tables built over `left`.
  static ProbeSide make(const Schema& left, const Schema& right,
                        const std::vector<std::string>& key_attrs);
};

/// Open-addressing (linear probing) hash table over a left sub-table's key,
/// with a Swiss-table-style 8-bit tag array.
class BuiltHashTable {
 public:
  /// Builds from `left` on `key_attrs`. The left sub-table is shared-owned
  /// and must not be mutated afterwards.
  BuiltHashTable(std::shared_ptr<const SubTable> left,
                 const std::vector<std::string>& key_attrs);

  const SubTable& left() const { return *left_; }
  const std::shared_ptr<const SubTable>& left_ptr() const { return left_; }
  const JoinKey& key() const { return key_; }
  std::uint64_t build_tuples() const { return left_->num_rows(); }

  /// Bytes of table structure (excludes the left sub-table payload); a
  /// function of the row count alone.
  std::size_t table_bytes() const {
    return slots_.capacity() * sizeof(Slot) + tags_.capacity();
  }

  /// Probes with every row of `right` (joined on `right_key_attrs`, which
  /// must have the same arity); appends joined rows to `out`, whose schema
  /// must be Schema::join_result(left, right, right key indices).
  /// Returns stats for this probe pass.
  JoinStats probe(const SubTable& right,
                  const std::vector<std::string>& right_key_attrs,
                  SubTable& out) const;
  /// The same with the probe side resolved by the caller.
  JoinStats probe(const SubTable& right, const ProbeSide& side,
                  SubTable& out) const {
    return probe_range(right, side, 0, right.num_rows(), out);
  }

  /// Probes only rows [row_begin, row_end) of `right`; the parallel local
  /// executor partitions the probe side across threads with this (the
  /// table is immutable during probing, so concurrent calls are safe).
  /// Output row order is probe-row order with per-row matches in ascending
  /// left-row order (that of nested_loop_join). The returned probe_tuples
  /// is row_end - row_begin, rows dropped by the key-range filter included.
  /// Throws InvalidArgument when the keys are not compatible
  /// (JoinKey::compatible_with), or when `side` was resolved for other
  /// schemas.
  JoinStats probe_range(const SubTable& right, const ProbeSide& side,
                        std::size_t row_begin, std::size_t row_end,
                        SubTable& out) const;
  JoinStats probe_range(const SubTable& right,
                        const std::vector<std::string>& right_key_attrs,
                        std::size_t row_begin, std::size_t row_end,
                        SubTable& out) const;

  /// Row indices of left rows matching the given right row (test hook).
  std::vector<std::uint32_t> matches(const SubTable& right,
                                     const JoinKey& right_key,
                                     std::size_t right_row) const;

 private:
  struct Slot {
    std::uint64_t hash = 0;
    std::uint32_t row = kEmpty;
  };
  static constexpr std::uint32_t kEmpty = 0xffffffffu;
  static constexpr std::uint8_t kEmptyTag = 0;

  /// Nonzero 8-bit tag from hash bits not used for slot indexing.
  static std::uint8_t tag_of(std::uint64_t hash) {
    return static_cast<std::uint8_t>(hash >> 56) | 1;
  }
  void insert(std::uint64_t hash, std::uint32_t row);

  template <typename Fn>
  void for_each_match(std::uint64_t hash, const std::uint64_t* lanes,
                      Fn&& fn) const;

  std::shared_ptr<const SubTable> left_;
  JoinKey key_;
  std::vector<Slot> slots_;
  std::vector<std::uint8_t> tags_;
  /// slots_.size() - 1; the table size is a power of two.
  std::uint64_t mask_ = 0;
  /// Per-lane [min, max] of the build keys under the filter's order map
  /// (hash_join.cpp); an empty table keeps min > max, so it drops every
  /// probe row.
  std::uint64_t lane_min_[kMaxKeyArity];
  std::uint64_t lane_max_[kMaxKeyArity];
};

/// One-shot convenience: build on `left`, probe with `right`, produce the
/// joined sub-table. `key_attrs` are resolved against both schemas.
SubTable hash_join(const SubTable& left, const SubTable& right,
                   const std::vector<std::string>& key_attrs,
                   SubTableId result_id, JoinStats* stats = nullptr);

/// Reference nested-loop join for correctness checks (O(n*m)). Throws
/// InvalidArgument when the keys are not compatible, like probe_range.
SubTable nested_loop_join(const SubTable& left, const SubTable& right,
                          const std::vector<std::string>& key_attrs,
                          SubTableId result_id);

}  // namespace orv
