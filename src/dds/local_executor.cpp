#include "dds/local_executor.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <optional>

#include "common/error.hpp"
#include "dds/aggregate.hpp"
#include "extract/extractor.hpp"
#include "graph/connectivity.hpp"
#include "join/hash_join.hpp"

namespace orv {

SubTable sort_rows(const SubTable& in, const std::vector<SortKey>& keys,
                   std::uint64_t limit) {
  std::vector<std::size_t> key_idx;
  for (const auto& k : keys) {
    key_idx.push_back(in.schema().require_index(k.attr));
  }
  std::vector<std::size_t> order(in.num_rows());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     for (std::size_t k = 0; k < key_idx.size(); ++k) {
                       const double va = in.as_double(a, key_idx[k]);
                       const double vb = in.as_double(b, key_idx[k]);
                       if (va != vb) {
                         return keys[k].descending ? va > vb : va < vb;
                       }
                     }
                     return false;
                   });
  std::size_t n = order.size();
  if (limit > 0 && limit < n) n = limit;
  SubTable out(in.schema_ptr(), in.id());
  out.reserve_rows(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.append_row({in.row(order[i]), in.record_size()});
  }
  return out;
}

namespace {

/// Copies every row of `src` onto the end of `dest` in one block.
void append_all(const SubTable& src, SubTable& dest) {
  ORV_REQUIRE(src.record_size() == dest.record_size(),
              "append_all record size mismatch");
  if (src.empty()) return;
  std::memcpy(dest.append_rows_reserve(src.num_rows()), src.bytes().data(),
              src.size_bytes());
  dest.append_rows_commit(src.num_rows());
  dest.append_rows_trim();
}

/// Runs part(0..n-1), on the pool when there is one and more than one part,
/// and concatenates the parts in index order, so the result does not depend
/// on the pool.
SubTable run_parts(ThreadPool* pool, std::size_t n, SchemaPtr schema,
                   SubTableId id,
                   const std::function<SubTable(std::size_t)>& part) {
  std::vector<std::optional<SubTable>> parts(n);
  auto job = [&](std::size_t i) { parts[i].emplace(part(i)); };
  if (pool != nullptr && n > 1) {
    pool->parallel_for(n, job);
  } else {
    for (std::size_t i = 0; i < n; ++i) job(i);
  }
  std::size_t rows = 0;
  for (const auto& p : parts) rows += p->num_rows();
  SubTable out(std::move(schema), id);
  out.reserve_rows(rows);
  for (auto& p : parts) {
    append_all(*p, out);
    p.reset();
  }
  return out;
}

/// One input of a local join. A base table under optional Selects stays a
/// list of pruned chunks that the component jobs read, extract and filter
/// one at a time; any other input is materialized up front and stands as
/// one sub-table.
struct JoinInput {
  SchemaPtr schema;
  std::optional<RowFilter> filter;       // per-chunk filter (base table)
  std::vector<SubTableId> chunks;        // pruned chunks (base table)
  std::shared_ptr<const SubTable> rows;  // the whole input (otherwise)

  std::vector<SubTableId> ids() const {
    return rows ? std::vector<SubTableId>{rows->id()} : chunks;
  }
};

}  // namespace

SubTable LocalExecutor::load_chunk(SubTableId id,
                                   const RowFilter& filter) const {
  const auto& cm = meta_.chunk(id);
  const auto bytes = stores_.at(cm.location.storage_node)->read(cm.location);
  return filter_rows(extract_chunk(bytes), filter);
}

SubTable LocalExecutor::scan(TableId table,
                             const std::vector<AttrRange>& ranges) const {
  // Chunk-level pruning via the R-tree, then record-level filtering.
  const auto ids = meta_.find_chunks(table, ranges);
  const RowFilter filter(meta_.table_schema(table), ranges);
  return run_parts(pool_, ids.size(), meta_.table_schema(table),
                   SubTableId{table, 0},
                   [&](std::size_t i) { return load_chunk(ids[i], filter); });
}

SubTable LocalExecutor::execute_join(
    const ViewDef& view, const std::vector<AttrRange>& above) const {
  // Joined rows have equal keys, so a range on a join attribute holds for
  // a result row exactly when it holds for both input rows: it prunes and
  // filters both inputs. Every other range filters the joined rows.
  const auto& keys = view.join_attrs;
  std::vector<AttrRange> pushed;
  std::vector<AttrRange> rest;
  for (const auto& r : above) {
    const bool on_key =
        std::find(keys.begin(), keys.end(), r.attr) != keys.end();
    (on_key ? pushed : rest).push_back(r);
  }
  auto input = [&](const ViewDef& side) {
    JoinInput in;
    TableId table = 0;
    std::vector<AttrRange> ranges = pushed;
    if (match_selected_base(side, &table, &ranges)) {
      in.schema = meta_.table_schema(table);
      // On this thread: find_chunks builds the R-tree lazily.
      in.chunks = meta_.find_chunks(table, ranges);
      in.filter.emplace(in.schema, ranges);
    } else {
      SubTable rows = execute(side);
      if (!pushed.empty()) rows = filter_rows(std::move(rows), pushed);
      in.schema = rows.schema_ptr();
      in.rows = std::make_shared<const SubTable>(std::move(rows));
    }
    return in;
  };
  const JoinInput left = input(*view.left);
  const JoinInput right = input(*view.right);

  // Two base tables pair their chunks through the connectivity graph; a
  // materialized input overlaps every sub-table of the other side, which
  // makes the join one component.
  std::vector<Component> components;
  if (!left.rows && !right.rows) {
    components = ConnectivityGraph::build(meta_, left.chunks, right.chunks,
                                          view.join_attrs)
                     .components();
  } else {
    Component c;
    c.left_subtables = left.ids();
    c.right_subtables = right.ids();
    for (const SubTableId l : c.left_subtables) {
      for (const SubTableId r : c.right_subtables) c.pairs.push_back({l, r});
    }
    if (!c.pairs.empty()) components.push_back(std::move(c));
  }

  const ProbeSide side =
      ProbeSide::make(*left.schema, *right.schema, view.join_attrs);
  ORV_REQUIRE(side.key.compatible_with(
                  JoinKey::resolve(*left.schema, view.join_attrs)),
              "join keys differ in arity or integer/float lane family");
  auto result_schema = std::make_shared<const Schema>(Schema::join_result(
      *left.schema, *right.schema, side.key.attr_indices()));
  auto load = [&](const JoinInput& in, SubTableId id) {
    return in.rows ? in.rows
                   : std::make_shared<const SubTable>(load_chunk(id, *in.filter));
  };

  // One job per component: each of its chunks is read once; one table per
  // left sub-table is probed by its neighbours in pair order.
  SubTable out = run_parts(
      pool_, components.size(), result_schema, SubTableId{0, 0},
      [&](std::size_t i) {
        const Component& c = components[i];
        std::vector<std::shared_ptr<const SubTable>> rights;
        rights.reserve(c.b());
        for (const SubTableId id : c.right_subtables) {
          rights.push_back(load(right, id));
        }
        SubTable part(result_schema, SubTableId{0, 0});
        auto pair = c.pairs.begin();
        for (const SubTableId lid : c.left_subtables) {
          const BuiltHashTable table(load(left, lid), view.join_attrs);
          for (; pair != c.pairs.end() && pair->left == lid; ++pair) {
            const auto at =
                std::lower_bound(c.right_subtables.begin(),
                                 c.right_subtables.end(), pair->right);
            table.probe(*rights[at - c.right_subtables.begin()], side, part);
          }
        }
        return part;
      });
  return rest.empty() ? out : filter_rows(std::move(out), rest);
}

SubTable LocalExecutor::execute(const ViewDef& view) const {
  switch (view.kind) {
    case ViewDef::Kind::BaseTable:
      return scan(view.table, {});

    case ViewDef::Kind::Select: {
      // Push selection into a base-table scan or the join below.
      if (view.input->kind == ViewDef::Kind::BaseTable) {
        return scan(view.input->table, view.ranges);
      }
      if (view.input->kind == ViewDef::Kind::Join) {
        return execute_join(*view.input, view.ranges);
      }
      return filter_rows(execute(*view.input), view.ranges);
    }

    case ViewDef::Kind::Project: {
      const SubTable in = execute(*view.input);
      const auto out_schema = view.output_schema(meta_);
      std::vector<std::size_t> indices;
      for (const auto& c : view.columns) {
        indices.push_back(in.schema().require_index(c));
      }
      SubTable out(out_schema, in.id());
      out.reserve_rows(in.num_rows());
      std::vector<std::byte> row(out_schema->record_size());
      for (std::size_t r = 0; r < in.num_rows(); ++r) {
        std::size_t dst = 0;
        for (std::size_t k = 0; k < indices.size(); ++k) {
          const std::size_t sz = attr_size(in.schema().attr(indices[k]).type);
          std::memcpy(row.data() + dst,
                      in.row(r) + in.schema().offset(indices[k]), sz);
          dst += sz;
        }
        out.append_row(row);
      }
      return out;
    }

    case ViewDef::Kind::Join:
      return execute_join(view, {});

    case ViewDef::Kind::Aggregate: {
      const SubTable in = execute(*view.input);
      GroupByAggregator agg(in.schema_ptr(), view.group_by, view.aggs);
      agg.consume(in);
      return agg.finish();
    }

    case ViewDef::Kind::Sort: {
      const SubTable in = execute(*view.input);
      return sort_rows(in, view.sort_keys, view.limit);
    }
  }
  throw Error("unreachable view kind in LocalExecutor");
}

}  // namespace orv
