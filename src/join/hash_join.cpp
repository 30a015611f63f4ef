#include "join/hash_join.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>

#include "common/error.hpp"
#include "common/hash.hpp"

#if defined(__GNUC__) || defined(__clang__)
#define ORV_PREFETCH(addr) __builtin_prefetch((addr), 0, 1)
#else
#define ORV_PREFETCH(addr) ((void)0)
#endif

namespace orv {

namespace {

std::uint64_t table_capacity_for(std::size_t rows) {
  // Load factor <= 0.5 keeps linear-probe clusters short.
  std::size_t wanted = rows * 2;
  if (wanted < 16) wanted = 16;
  return std::bit_ceil(wanted);
}

/// Probe rows hashed ahead of the probe cursor for software prefetch: far
/// enough to cover one DRAM miss per row, near enough that the prefetched
/// lines are still resident when the cursor reaches them.
constexpr std::size_t kProbeBatch = 16;
/// Probe rows canonicalized, filtered and hashed per chunk: bounds the
/// per-call lane/hash scratch (and the match buffer's usual size) so it
/// stays in L1/L2 however long the probe range is.
constexpr std::size_t kProbeChunk = 2048;

/// One probe hit: probe-row position within the current chunk plus the
/// matching left row. Kept small so the match buffer stays cache-resident;
/// the buffer holds it bit-cast to one 64-bit word.
struct Match {
  std::uint32_t pos;
  std::uint32_t lrow;
};
static_assert(sizeof(Match) == sizeof(std::uint64_t));

/// The key-range filter's order map: a fixed bijection of the 64-bit lane
/// under which min/max are taken. Sign bit set: flip every bit; else set the
/// sign bit. Float lanes then order as their values (NaNs at the ends) and
/// non-negative integers stay contiguous; any fixed total order is correct,
/// since a lane equal to a build lane always lies within the build range.
inline std::uint64_t lane_order(std::uint64_t lane) {
  const std::uint64_t flip = (0 - (lane >> 63)) | (std::uint64_t{1} << 63);
  return lane ^ flip;
}

}  // namespace

BuiltHashTable::BuiltHashTable(std::shared_ptr<const SubTable> left,
                               const std::vector<std::string>& key_attrs)
    : left_(std::move(left)),
      key_(JoinKey::resolve(left_->schema(), key_attrs)) {
  ORV_REQUIRE(left_->num_rows() < kEmpty, "left sub-table too large");
  const std::size_t n = left_->num_rows();
  const std::size_t rs = left_->record_size();
  const std::byte* rows = left_->bytes().data();

  const std::uint64_t cap = table_capacity_for(n);
  mask_ = cap - 1;
  slots_.assign(cap, Slot{});
  tags_.assign(cap, kEmptyTag);

  // Hash every left row, then insert. The hash pass also takes each lane's
  // key range, with branches rather than min/max so a row inside the bounds
  // seen so far stores nothing. Keeping the inserts' unpredictable slot walks
  // out of the hash loop measured faster than one fused loop.
  const std::size_t arity = key_.arity();
  std::fill_n(lane_min_, kMaxKeyArity, ~std::uint64_t{0});
  std::fill_n(lane_max_, kMaxKeyArity, std::uint64_t{0});
  std::vector<std::uint64_t> hashes(n);
  std::uint64_t lanes[kMaxKeyArity];
  for (std::size_t r = 0; r < n; ++r) {
    key_.extract_lanes(rows + r * rs, lanes);
    for (std::size_t i = 0; i < arity; ++i) {
      const std::uint64_t o = lane_order(lanes[i]);
      if (o < lane_min_[i]) lane_min_[i] = o;
      if (o > lane_max_[i]) lane_max_[i] = o;
    }
    hashes[r] = hash_lanes({lanes, arity}, kSaltInMemory);
  }
  for (std::size_t r = 0; r < n; ++r) {
    insert(hashes[r], static_cast<std::uint32_t>(r));
  }
}

void BuiltHashTable::insert(std::uint64_t hash, std::uint32_t row) {
  // Walk the dense tag array, not the 16-byte slots: a nonzero tag marks
  // an occupied slot.
  std::uint64_t i = hash & mask_;
  while (tags_[i] != kEmptyTag) i = (i + 1) & mask_;
  slots_[i].hash = hash;
  slots_[i].row = row;
  tags_[i] = tag_of(hash);
}

template <typename Fn>
void BuiltHashTable::for_each_match(std::uint64_t hash,
                                    const std::uint64_t* lanes,
                                    Fn&& fn) const {
  const std::size_t rs = left_->record_size();
  const std::byte* rows = left_->bytes().data();
  std::uint64_t left_lanes[kMaxKeyArity];
  std::uint64_t i = hash & mask_;
  while (slots_[i].row != kEmpty) {
    if (slots_[i].hash == hash) {
      const std::byte* lrow = rows + slots_[i].row * rs;
      key_.extract_lanes(lrow, left_lanes);
      if (key_.lanes_equal(left_lanes, lanes)) fn(slots_[i].row);
    }
    i = (i + 1) & mask_;
  }
}

RightCopyPlan RightCopyPlan::make(const Schema& left, const Schema& right,
                                  const JoinKey& right_key) {
  RightCopyPlan plan;
  plan.left_record_size = left.record_size();
  std::size_t dst = left.record_size();
  RightCopyPlan::Piece pending{0, 0, 0};
  bool have_pending = false;
  for (std::size_t a = 0; a < right.num_attrs(); ++a) {
    bool is_key = false;
    for (std::size_t k : right_key.attr_indices()) {
      if (k == a) {
        is_key = true;
        break;
      }
    }
    if (is_key) continue;
    const std::size_t src = right.offset(a);
    const std::size_t size = attr_size(right.attr(a).type);
    if (have_pending && pending.src_offset + pending.size == src) {
      pending.size += size;  // merge adjacent attrs into one memcpy
    } else {
      if (have_pending) plan.pieces.push_back(pending);
      pending = {src, dst, size};
      have_pending = true;
    }
    dst += size;
  }
  if (have_pending) plan.pieces.push_back(pending);
  plan.result_record_size = dst;
  return plan;
}

ProbeSide ProbeSide::make(const Schema& left, const Schema& right,
                          const std::vector<std::string>& key_attrs) {
  ProbeSide side{JoinKey::resolve(right, key_attrs), {}, right.record_size()};
  side.plan = RightCopyPlan::make(left, right, side.key);
  return side;
}

JoinStats BuiltHashTable::probe(const SubTable& right,
                                const std::vector<std::string>& right_key_attrs,
                                SubTable& out) const {
  return probe_range(right, right_key_attrs, 0, right.num_rows(), out);
}

JoinStats BuiltHashTable::probe_range(
    const SubTable& right, const std::vector<std::string>& right_key_attrs,
    std::size_t row_begin, std::size_t row_end, SubTable& out) const {
  return probe_range(
      right, ProbeSide::make(left_->schema(), right.schema(), right_key_attrs),
      row_begin, row_end, out);
}

/// The kernel: per chunk of kProbeChunk rows, (1) canonicalize every probe
/// row's key lanes and keep only rows inside the build's per-lane key range,
/// then hash the survivors, (2) probe with a rolling software prefetch
/// kProbeBatch rows ahead, tag byte checked before any Slot load, (3) write
/// joined records directly into the output buffer. Output row order is that
/// of nested_loop_join: probe-row order, per-row matches in ascending
/// left-row order (linear probing visits equal-key slots in insertion
/// order).
JoinStats BuiltHashTable::probe_range(const SubTable& right,
                                      const ProbeSide& side,
                                      std::size_t row_begin,
                                      std::size_t row_end,
                                      SubTable& out) const {
  const JoinKey& right_key = side.key;
  const RightCopyPlan& plan = side.plan;
  ORV_REQUIRE(right_key.compatible_with(key_),
              "join keys differ in arity or integer/float lane family");
  ORV_REQUIRE(right.record_size() == side.record_size &&
                  left_->record_size() == plan.left_record_size,
              "probe side was resolved for other schemas");
  ORV_REQUIRE(row_begin <= row_end && row_end <= right.num_rows(),
              "probe row range out of bounds");
  ORV_REQUIRE(out.record_size() == plan.result_record_size,
              "output schema does not match the join result layout");

  // Every row of the range counts as probed, filtered or not: the
  // simulation charges gamma_lookup per probe tuple.
  JoinStats stats;
  stats.probe_tuples = row_end - row_begin;
  if (row_begin == row_end) return stats;

  const std::size_t lrs = left_->record_size();
  const std::size_t rrs = right.record_size();
  const std::byte* lrows = left_->bytes().data();
  const std::byte* rrows = right.bytes().data();
  const std::size_t arity = key_.arity();

  // Per-call scratch in one allocation, sized for the rows this call can
  // actually probe: key lanes by chunk position, the survivors' hashes and
  // chunk positions, then the candidate matches. Only the match region, last
  // in the block, can outgrow it (a chunk with more candidates than rows);
  // growing doubles it and copies the block.
  const std::size_t scratch_rows = std::min(kProbeChunk, row_end - row_begin);
  const std::size_t fixed_words = scratch_rows * (arity + 2);
  std::unique_ptr<std::uint64_t[]> scratch;
  std::size_t match_cap = 0;
  std::uint64_t* lanes_buf = nullptr;
  std::uint64_t* hashes = nullptr;
  std::uint64_t* surv = nullptr;
  std::uint64_t* matches = nullptr;
  auto reserve_matches = [&](std::size_t cap) {
    auto block =
        std::make_unique_for_overwrite<std::uint64_t[]>(fixed_words + cap);
    if (scratch) {
      std::copy_n(scratch.get(), fixed_words + match_cap, block.get());
    }
    scratch = std::move(block);
    match_cap = cap;
    lanes_buf = scratch.get();
    hashes = lanes_buf + scratch_rows * arity;
    surv = hashes + scratch_rows;
    matches = surv + scratch_rows;
  };
  reserve_matches(scratch_rows);

  for (std::size_t cb = row_begin; cb < row_end; cb += kProbeChunk) {
    const std::size_t cn = std::min(kProbeChunk, row_end - cb);

    // (1) Canonicalize the key lanes once per probe row and test them
    // against the build's key range; compact the surviving chunk positions
    // without branching, then hash only those (hash_lanes ==
    // JoinKey::hash_row on the canonical lanes).
    std::size_t ns = 0;
    for (std::size_t j = 0; j < cn; ++j) {
      std::uint64_t* l = lanes_buf + j * arity;
      right_key.extract_lanes(rrows + (cb + j) * rrs, l);
      bool in = true;
      for (std::size_t i = 0; i < arity; ++i) {
        const std::uint64_t o = lane_order(l[i]);
        in &= (o >= lane_min_[i]) & (o <= lane_max_[i]);
      }
      surv[ns] = j;
      ns += in;
    }
    for (std::size_t k = 0; k < ns; ++k) {
      hashes[k] = hash_lanes({lanes_buf + surv[k] * arity, arity},
                             kSaltInMemory);
    }

    // (2) Probe with a rolling prefetch kProbeBatch rows ahead of the
    // cursor. Hash hits become *candidates* — the left row is only
    // prefetched here, and the full key compare is deferred to the emit
    // pass, so the dependent left-payload load never stalls the probe loop.
    // Equal full hashes are almost always true matches, so candidate order
    // is match order.
    std::size_t n_cand = 0;
    for (std::size_t k = 0; k < ns; ++k) {
      if (k + kProbeBatch < ns) {
        const std::uint64_t nidx = hashes[k + kProbeBatch] & mask_;
        ORV_PREFETCH(&tags_[nidx]);
        ORV_PREFETCH(&slots_[nidx]);
      }
      const std::uint64_t h = hashes[k];
      const auto pj = static_cast<std::uint32_t>(surv[k]);
      const std::uint8_t want = tag_of(h);
      std::uint64_t i = h & mask_;
      for (;;) {
        const std::uint8_t t = tags_[i];
        if (t == kEmptyTag) break;
        if (t == want) {
          const Slot& s = slots_[i];
          if (s.hash == h) {
            ORV_PREFETCH(lrows + s.row * lrs);
            if (n_cand == match_cap) reserve_matches(2 * match_cap);
            matches[n_cand++] = std::bit_cast<std::uint64_t>(Match{pj, s.row});
          }
        }
        i = (i + 1) & mask_;
      }
    }
    if (n_cand == 0) continue;

    // (3) Verify candidates (drop full-hash collisions) and zero-copy
    // emit: left prefix then the right copy-plan pieces, written straight
    // into the reserved output rows.
    std::uint64_t left_lanes[kMaxKeyArity];
    std::byte* dst = out.append_rows_reserve(n_cand);
    std::size_t emitted = 0;
    for (std::size_t m = 0; m < n_cand; ++m) {
      const Match match = std::bit_cast<Match>(matches[m]);
      const std::byte* lrow = lrows + match.lrow * lrs;
      key_.extract_lanes(lrow, left_lanes);
      if (!key_.lanes_equal(left_lanes, lanes_buf + match.pos * arity)) {
        continue;
      }
      const std::byte* rrow = rrows + (cb + match.pos) * rrs;
      std::memcpy(dst, lrow, lrs);
      for (const auto& piece : plan.pieces) {
        std::memcpy(dst + piece.dst_offset, rrow + piece.src_offset,
                    piece.size);
      }
      dst += plan.result_record_size;
      ++emitted;
    }
    out.append_rows_commit(emitted);
    stats.result_tuples += emitted;
  }
  out.append_rows_trim();
  return stats;
}

std::vector<std::uint32_t> BuiltHashTable::matches(const SubTable& right,
                                                   const JoinKey& right_key,
                                                   std::size_t right_row) const {
  const std::byte* rrow = right.row(right_row);
  std::uint64_t lanes[kMaxKeyArity];
  right_key.extract_lanes(rrow, lanes);
  std::vector<std::uint32_t> out;
  for_each_match(right_key.hash_row(rrow, kSaltInMemory), lanes,
                 [&](std::uint32_t r) { out.push_back(r); });
  return out;
}

SubTable hash_join(const SubTable& left, const SubTable& right,
                   const std::vector<std::string>& key_attrs,
                   SubTableId result_id, JoinStats* stats) {
  // Non-owning alias: the table lives only for this call.
  auto left_alias = std::shared_ptr<const SubTable>(&left, [](auto*) {});
  BuiltHashTable ht(left_alias, key_attrs);
  const JoinKey right_key = JoinKey::resolve(right.schema(), key_attrs);
  auto result_schema = std::make_shared<const Schema>(Schema::join_result(
      left.schema(), right.schema(), right_key.attr_indices()));
  SubTable out(result_schema, result_id);
  JoinStats s = ht.probe(right, key_attrs, out);
  s.build_tuples = left.num_rows();
  if (stats) *stats += s;
  return out;
}

SubTable nested_loop_join(const SubTable& left, const SubTable& right,
                          const std::vector<std::string>& key_attrs,
                          SubTableId result_id) {
  const JoinKey lkey = JoinKey::resolve(left.schema(), key_attrs);
  const JoinKey rkey = JoinKey::resolve(right.schema(), key_attrs);
  ORV_REQUIRE(rkey.compatible_with(lkey),
              "join keys differ in arity or integer/float lane family");
  auto result_schema = std::make_shared<const Schema>(Schema::join_result(
      left.schema(), right.schema(), rkey.attr_indices()));
  const RightCopyPlan plan =
      RightCopyPlan::make(left.schema(), right.schema(), rkey);
  SubTable out(result_schema, result_id);
  // Canonicalize every left key once (O(n)) instead of re-extracting the
  // lanes inside the O(n*m) inner loop.
  const std::size_t arity = lkey.arity();
  std::vector<std::uint64_t> left_lanes(left.num_rows() * arity);
  for (std::size_t l = 0; l < left.num_rows(); ++l) {
    lkey.extract_lanes(left.row(l), left_lanes.data() + l * arity);
  }
  std::uint64_t rl[kMaxKeyArity];
  std::vector<std::byte> row_buf(plan.result_record_size);
  for (std::size_t r = 0; r < right.num_rows(); ++r) {
    rkey.extract_lanes(right.row(r), rl);
    for (std::size_t l = 0; l < left.num_rows(); ++l) {
      if (!lkey.lanes_equal(left_lanes.data() + l * arity, rl)) continue;
      std::memcpy(row_buf.data(), left.row(l), left.record_size());
      for (const auto& piece : plan.pieces) {
        std::memcpy(row_buf.data() + piece.dst_offset,
                    right.row(r) + piece.src_offset, piece.size);
      }
      out.append_row(row_buf);
    }
  }
  return out;
}

}  // namespace orv
