// The joins' host-side parallelism: probe, filter and fingerprint jobs run
// on the shared pool and fold back in submission order. Whatever the
// interleaving, the result sink must see the same fragment sequence as a
// run that joins each pair or bucket on the spot (pinned to goldens taken
// from such a run), repeated runs must agree exactly, and a query that
// fails — by a throwing sink or a lost storage node — must drain its jobs
// and unwind cleanly.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "../chaos_util.hpp"

namespace orv {
namespace {

using chaos::ChaosRig;
using chaos::Scenario;

/// Misaligned partitions (each right chunk meets four left chunks): 1,024
/// IJ pairs, 65,536 probe rows, enough for many batches per node.
Scenario offload_scenario() {
  Scenario sc;
  sc.spec.grid = {32, 32, 16};
  sc.spec.part1 = {8, 4, 2};
  sc.spec.part2 = {2, 4, 8};
  sc.spec.extra_attrs1 = 1;
  sc.spec.extra_attrs2 = 2;
  sc.spec.seed = 7;
  sc.spec.num_storage_nodes = 2;
  sc.cspec.num_storage = 2;
  sc.cspec.num_compute = 3;
  sc.join_attrs = {"x", "y", "z"};
  return sc;
}

struct Mode {
  const char* name;
  bool indexed_join;
  QesOptions options;
};

std::vector<Mode> modes() {
  QesOptions ij_serial;
  QesOptions ij_pipelined;
  ij_pipelined.prefetch_lookahead = 4;
  QesOptions gh_serial;
  gh_serial.bucket_pair_bytes = 64 << 10;  // several buckets per node
  QesOptions gh_double = gh_serial;
  gh_double.gh_double_buffer = true;
  return {{"ij_serial", true, ij_serial},
          {"ij_pipelined", true, ij_pipelined},
          {"gh_serial", false, gh_serial},
          {"gh_double_buffer", false, gh_double}};
}

/// One sink call: the node it ran for and the fragment it saw.
struct Fragment {
  std::size_t node;
  std::size_t rows;
  std::uint64_t fingerprint;
  bool operator==(const Fragment&) const = default;
};

std::vector<Fragment> run_recording(ChaosRig& rig, const Mode& mode,
                                    QesResult* result = nullptr) {
  std::vector<Fragment> seq;
  QesOptions options = mode.options;
  options.result_sink = [&seq](std::size_t node, const SubTable& fragment) {
    seq.push_back(
        {node, fragment.num_rows(), fragment.unordered_fingerprint()});
  };
  const QesResult r = rig.run(mode.indexed_join, nullptr, options);
  if (result != nullptr) *result = r;
  return seq;
}

/// Order-sensitive digest of a sink sequence.
std::uint64_t digest(const std::vector<Fragment>& seq) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
    h ^= h >> 29;
  };
  for (const Fragment& f : seq) {
    mix(f.node);
    mix(f.rows);
    mix(f.fingerprint);
  }
  return h;
}

struct Golden {
  std::size_t fragments;
  std::uint64_t digest;
};

/// Taken from a build that ran each pair's or bucket's join inline on the
/// event loop, at its submission point.
Golden golden(const std::string& mode) {
  if (mode == "ij_serial") return {1024, 17476158414497420817ull};
  if (mode == "ij_pipelined") return {1024, 12648249771504640880ull};
  if (mode == "gh_serial") return {12, 4553086357846745976ull};
  return {12, 1559606680590112174ull};  // gh_double_buffer
}

class OffloadTest : public ::testing::Test {
 protected:
  OffloadTest() : rig(offload_scenario()) {}
  ChaosRig rig;
};

TEST_F(OffloadTest, SinkSequenceMatchesTheInlineJoin) {
  const ReferenceResult ref = rig.hash_reference();
  for (const Mode& mode : modes()) {
    SCOPED_TRACE(mode.name);
    QesResult r;
    const std::vector<Fragment> seq = run_recording(rig, mode, &r);
    EXPECT_EQ(r.result_tuples, ref.result_tuples);
    EXPECT_EQ(r.result_fingerprint, ref.result_fingerprint);
    std::uint64_t rows = 0;
    std::uint64_t fp = 0;
    for (const Fragment& f : seq) {
      rows += f.rows;
      fp += f.fingerprint;
    }
    EXPECT_EQ(rows, r.result_tuples);
    EXPECT_EQ(fp, r.result_fingerprint);
    EXPECT_EQ(r.join_stats.result_tuples, r.result_tuples);
    const Golden g = golden(mode.name);
    EXPECT_EQ(seq.size(), g.fragments);
    EXPECT_EQ(digest(seq), g.digest);
  }
}

TEST_F(OffloadTest, RepeatedRunsAgreeExactly) {
  for (const Mode& mode : modes()) {
    SCOPED_TRACE(mode.name);
    QesResult first;
    const std::vector<Fragment> seq = run_recording(rig, mode, &first);
    for (int run = 1; run < 50; ++run) {
      QesResult r;
      ASSERT_EQ(run_recording(rig, mode, &r), seq) << "run " << run;
      ASSERT_EQ(r.result_fingerprint, first.result_fingerprint);
      ASSERT_EQ(r.join_stats.probe_tuples, first.join_stats.probe_tuples);
      ASSERT_EQ(r.elapsed, first.elapsed);
    }
  }
}

struct SinkError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

TEST_F(OffloadTest, ThrowingSinkFailsTheQueryAndDrains) {
  ChaosRig::TraceCapture cap;
  rig.capture = &cap;
  for (const Mode& mode : modes()) {
    const auto n = static_cast<int>(run_recording(rig, mode).size());
    ASSERT_GT(n, 2);
    // On the first fragment, mid-run, and on the last one (folded while
    // the query drains).
    for (const int fail_at : {1, n / 2, n}) {
      SCOPED_TRACE(std::string(mode.name) + " fail_at " +
                   std::to_string(fail_at));
      QesOptions options = mode.options;
      int calls = 0;
      options.result_sink = [&calls, fail_at](std::size_t, const SubTable&) {
        if (++calls >= fail_at) throw SinkError("sink refused a fragment");
      };
      EXPECT_THROW(rig.run(mode.indexed_join, nullptr, options), SinkError);
      EXPECT_EQ(rig.blocked_at_end, 0);
      EXPECT_EQ(cap.open_spans, 0u);
    }
  }
}

TEST_F(OffloadTest, PermanentStorageLossDrainsJobsAndFailsCleanly) {
  fault::FaultPlan plan;
  plan.crashes.push_back({fault::NodeKind::Storage, 1, 0.0, fault::kNever});
  ChaosRig::TraceCapture cap;
  rig.capture = &cap;
  for (const Mode& mode : modes()) {
    SCOPED_TRACE(mode.name);
    QesOptions options = mode.options;
    std::size_t fragments = 0;
    options.result_sink = [&fragments](std::size_t, const SubTable&) {
      ++fragments;
    };
    EXPECT_THROW(rig.run(mode.indexed_join, &plan, options),
                 fault::FaultError);
    EXPECT_EQ(rig.blocked_at_end, 0);
    EXPECT_EQ(cap.open_spans, 0u);
  }
}

}  // namespace
}  // namespace orv
