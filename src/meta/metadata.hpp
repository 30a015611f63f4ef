#pragma once

// MetaData Service.
//
// Stores, per chunk: which table it belongs to, its location in the storage
// system (node, file, offset, size), its attributes, the extractors that can
// parse it, and its bounding box (paper Section 2). Range queries resolve
// to matching chunk ids through a per-table R-tree over the bounding boxes
// (Section 4: "this may be done efficiently using index structures such as
// R-Trees").

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "chunkio/chunk_format.hpp"
#include "chunkio/chunk_store.hpp"
#include "rtree/rtree.hpp"
#include "subtable/subtable.hpp"

namespace orv {

/// Everything the services need to know about one chunk.
struct ChunkMeta {
  SubTableId id;
  ChunkLocation location;
  LayoutId layout = LayoutId::RowMajor;
  SchemaPtr schema;
  Rect bounds;  // per-attribute, in schema order

  std::uint64_t num_rows = 0;

  /// Names of extractors able to read and parse this chunk.
  std::vector<std::string> extractors;
};

/// A named range constraint, e.g. x IN [0, 256].
struct AttrRange {
  std::string attr;
  Interval range;
};

/// A record-level range predicate compiled against one schema, the way
/// JoinKey::resolve compiles a key: one lane (byte offset, type, interval)
/// per constrained attribute, duplicate ranges on one attribute
/// intersected. Only constrained lanes are tested, so a NaN in any other
/// attribute keeps its row; a NaN in a constrained one fails it.
class RowFilter {
 public:
  /// Compiles `ranges` by attribute name; ranges on attributes `schema`
  /// lacks are dropped.
  RowFilter(SchemaPtr schema, const std::vector<AttrRange>& ranges);

  /// Compiles the per-table `ranges` of a join query against its result
  /// schema (Schema::join_result of `left`, `right` and the right key
  /// `right_key_indices`): a range constrains the left copy of its
  /// attribute and the right copy of a non-key right attribute, found by
  /// position (renamed copies included), so a result row passes exactly
  /// when both of its input rows pass. Ranges on key attributes constrain
  /// the left copy, which equals the right one.
  static RowFilter join_result(SchemaPtr result, const Schema& left,
                               const Schema& right,
                               const std::vector<std::size_t>& right_key_indices,
                               const std::vector<AttrRange>& ranges);

  const Schema& schema() const { return *schema_; }

  /// False when no range names an attribute of the schema: every row
  /// passes.
  bool constrains() const { return !lanes_.empty(); }

 private:
  struct Lane {
    std::size_t attr;
    std::size_t offset;
    AttrType type;
    Interval range;
  };

  explicit RowFilter(SchemaPtr schema);
  void constrain(std::size_t attr, const Interval& range);

  bool keeps(const std::byte* row) const {
    for (const Lane& l : lanes_) {
      if (!l.range.contains(double_from_bytes(l.type, row + l.offset))) {
        return false;
      }
    }
    return true;
  }

  /// The selection pass over `n` packed rows of `record_size` bytes:
  /// tests each row's lanes, widens `bounds` over the survivors in row
  /// order and hands each run of consecutive survivors to
  /// `emit(first_row, rows)`.
  template <typename Emit>
  void select(const std::byte* rows, std::size_t n, std::size_t record_size,
              BoundsBuilder& bounds, Emit&& emit) const;

  friend SubTable filter_rows(const SubTable& st, const RowFilter& filter);
  friend SubTable filter_rows(SubTable&& st, const RowFilter& filter);

  SchemaPtr schema_;
  std::vector<Lane> lanes_;
};

/// Applies a compiled range predicate to a sub-table of the filter's
/// schema, returning the surviving rows (same schema and id, same order)
/// with their bounds, computed in the same pass. A filter that constrains
/// nothing returns the rows with the input's bounds. BDS, QES, the local
/// executor and the reference join all filter through these overloads:
/// the const& form copies the survivors, the && form compacts them in the
/// sub-table's own buffer.
SubTable filter_rows(const SubTable& st, const RowFilter& filter);
SubTable filter_rows(SubTable&& st, const RowFilter& filter);

/// Compiles `ranges` against the sub-table's schema, then filters it; for
/// callers that filter once per query.
SubTable filter_rows(SubTable st, const std::vector<AttrRange>& ranges);

class MetaDataService {
 public:
  MetaDataService() = default;

  /// Registers a virtual table; chunks may then be added for it.
  void register_table(TableId table, std::string name, SchemaPtr schema);

  void add_chunk(ChunkMeta meta);

  std::size_t num_tables() const { return tables_.size(); }
  std::vector<TableId> table_ids() const;

  const std::string& table_name(TableId table) const;
  SchemaPtr table_schema(TableId table) const;
  TableId table_by_name(const std::string& name) const;
  bool has_table(const std::string& name) const;

  /// All chunk metadata of a table, in chunk-id order.
  const std::vector<ChunkMeta>& chunks(TableId table) const;

  /// One chunk's metadata, by hash lookup; with duplicate ids the first
  /// one added wins. Throws NotFound.
  const ChunkMeta& chunk(SubTableId id) const;

  std::size_t num_chunks(TableId table) const { return chunks(table).size(); }

  /// Total stored bytes of a table (sum of chunk segment sizes).
  std::uint64_t table_bytes(TableId table) const;

  /// Total rows of a table (the paper's T when both tables are equal-sized).
  std::uint64_t table_rows(TableId table) const;

  /// Chunk ids of `table` whose bounding boxes intersect every given range.
  /// Attributes not mentioned are unconstrained. Uses the R-tree index.
  std::vector<SubTableId> find_chunks(TableId table,
                                      const std::vector<AttrRange>& ranges) const;

  /// Builds a full-dimensional query rect for a table from named ranges.
  Rect query_rect(TableId table, const std::vector<AttrRange>& ranges) const;

  /// (Re)builds the per-table R-tree indexes; find_chunks calls this lazily.
  void build_indexes() const;

  void serialize(ByteWriter& w) const;
  static MetaDataService deserialize(ByteReader& r);

 private:
  struct TableInfo {
    std::string name;
    SchemaPtr schema;
    std::vector<ChunkMeta> chunks;
    // Chunk id -> position in `chunks` (positions survive reallocation).
    std::unordered_map<ChunkId, std::size_t> chunk_pos;
    // Index caches are rebuilt on demand after chunk additions.
    mutable std::unique_ptr<RTree> index;  // over bounds, dims = schema attrs
  };

  const TableInfo& table_info(TableId table) const;
  TableInfo& table_info(TableId table);

  std::map<TableId, TableInfo> tables_;
  mutable bool indexes_dirty_ = false;
};

}  // namespace orv
