// Checkpoint/resume, deadline, and cancellation behaviour of the DSE
// engine (the resilient-campaign-runtime contract of hls/dse.hpp): a run
// killed at any unit boundary and resumed from its snapshot must finish
// bit-identical to an uninterrupted run, serial or pooled; a cancelled run
// must return a well-formed partial flagged `completed = false` whose
// counters cover exactly the completed units.
#include "hls/dse.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "core/error.hpp"
#include "core/parallel.hpp"

namespace icsc::hls {
namespace {

class DseResumePoolEnvironment : public ::testing::Environment {
 public:
  void SetUp() override { core::set_parallel_threads(4); }
  void TearDown() override { core::set_parallel_threads(0); }
};

[[maybe_unused]] const auto* const kDseResumePoolEnvironment =
    ::testing::AddGlobalTestEnvironment(new DseResumePoolEnvironment);

/// Field-by-field bit-exact comparison of two DSE results (resumed runs
/// must not differ from uninterrupted ones in any float bit).
void expect_identical(const DseResult& a, const DseResult& b) {
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.completed, b.completed);
  ASSERT_EQ(a.evaluated.size(), b.evaluated.size());
  for (std::size_t i = 0; i < a.evaluated.size(); ++i) {
    EXPECT_EQ(a.evaluated[i].unroll, b.evaluated[i].unroll);
    EXPECT_EQ(a.evaluated[i].budget.alus, b.evaluated[i].budget.alus);
    EXPECT_EQ(a.evaluated[i].budget.muls, b.evaluated[i].budget.muls);
    EXPECT_EQ(a.evaluated[i].budget.mem_ports,
              b.evaluated[i].budget.mem_ports);
    EXPECT_EQ(a.evaluated[i].total_latency_us, b.evaluated[i].total_latency_us);
    EXPECT_EQ(a.evaluated[i].area_score, b.evaluated[i].area_score);
  }
  ASSERT_EQ(a.front.size(), b.front.size());
  for (std::size_t i = 0; i < a.front.size(); ++i) {
    EXPECT_EQ(a.front[i].id, b.front[i].id);
  }
}

/// A partial result must be internally consistent: feasible counts exactly
/// the kept points, nothing exceeds the uninterrupted reference, and the
/// kept points are a prefix-consistent subset (checked via counters).
void expect_well_formed_partial(const DseResult& partial,
                                const DseResult& reference) {
  EXPECT_FALSE(partial.completed);
  EXPECT_EQ(partial.feasible, partial.evaluated.size());
  EXPECT_LE(partial.evaluations, reference.evaluations);
  EXPECT_LE(partial.feasible, reference.feasible);
  EXPECT_GE(partial.evaluations, partial.feasible);
}

DseConfig small_config() {
  DseConfig config;
  config.iterations = 256;
  config.space.unroll_factors = {1, 2, 4};
  config.space.alu_counts = {1, 2, 4};
  config.space.mul_counts = {1, 2};
  config.space.mem_port_counts = {1, 2};
  return config;
}

class DseResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/icsc_dse_resume_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    const std::string cmd = "rm -rf '" + dir_ + "'";
    [[maybe_unused]] const int rc = std::system(cmd.c_str());
  }

  std::string ckpt(const std::string& name) const { return dir_ + "/" + name; }

  std::string dir_;
  Kernel kernel_ = make_fir_kernel(8);
};

TEST_F(DseResumeTest, ExhaustiveKillAndResumeIsBitIdentical) {
  const DseConfig plain = small_config();
  const DseResult reference = dse_exhaustive(kernel_, plain);
  ASSERT_TRUE(reference.completed);
  ASSERT_EQ(reference.evaluations, 36u);  // 3*3*2*2 grid

  DseConfig persisted = small_config();
  persisted.checkpoint_path = ckpt("exhaustive.snap");
  persisted.checkpoint_every = 5;
  persisted.unit_budget = 13;  // "kill" mid-sweep, off a block boundary
  const DseResult partial = dse_exhaustive(kernel_, persisted);
  expect_well_formed_partial(partial, reference);
  EXPECT_EQ(partial.evaluations, 13u);  // exactly the budgeted units

  persisted.unit_budget = 0;
  const DseResult resumed = dse_exhaustive(kernel_, persisted);
  EXPECT_GE(resumed.resumed_units, 13u);
  expect_identical(resumed, reference);
}

TEST_F(DseResumeTest, RandomKillAndResumeIsBitIdentical) {
  const DseConfig plain = small_config();
  const DseResult reference = dse_random(kernel_, plain, 24, 0xBEEF);
  ASSERT_TRUE(reference.completed);

  DseConfig persisted = small_config();
  persisted.checkpoint_path = ckpt("random.snap");
  persisted.checkpoint_every = 4;
  persisted.unit_budget = 9;
  const DseResult partial = dse_random(kernel_, persisted, 24, 0xBEEF);
  expect_well_formed_partial(partial, reference);
  EXPECT_EQ(partial.evaluations, 9u);

  persisted.unit_budget = 0;
  const DseResult resumed = dse_random(kernel_, persisted, 24, 0xBEEF);
  EXPECT_GE(resumed.resumed_units, 9u);
  expect_identical(resumed, reference);
}

TEST_F(DseResumeTest, HillClimbKillAndResumeIsBitIdentical) {
  const DseConfig plain = small_config();
  const DseResult reference = dse_hill_climb(kernel_, plain, 6, 0x5EED);
  ASSERT_TRUE(reference.completed);

  DseConfig persisted = small_config();
  persisted.checkpoint_path = ckpt("climb.snap");
  persisted.checkpoint_every = 4;
  persisted.unit_budget = 2;  // kill after 2 of 6 restarts
  const DseResult partial = dse_hill_climb(kernel_, persisted, 6, 0x5EED);
  expect_well_formed_partial(partial, reference);

  persisted.unit_budget = 0;
  const DseResult resumed = dse_hill_climb(kernel_, persisted, 6, 0x5EED);
  EXPECT_GE(resumed.resumed_units, 2u);
  expect_identical(resumed, reference);
}

TEST_F(DseResumeTest, ResumeIsBitIdenticalAcrossSerialAndPool) {
  // Kill under the pool, resume serially: the snapshot must carry no
  // thread-count dependence. Compare against a fully serial reference.
  DseResult serial_reference;
  {
    core::ScopedSerial guard;
    serial_reference = dse_exhaustive(kernel_, small_config());
  }
  DseConfig persisted = small_config();
  persisted.checkpoint_path = ckpt("cross.snap");
  persisted.checkpoint_every = 4;
  persisted.unit_budget = 14;
  (void)dse_exhaustive(kernel_, persisted);  // partial under the 4-thread pool
  persisted.unit_budget = 0;
  DseResult resumed;
  {
    core::ScopedSerial guard;
    resumed = dse_exhaustive(kernel_, persisted);
  }
  expect_identical(resumed, serial_reference);
}

TEST_F(DseResumeTest, RerunningACompletedCheckpointReturnsTheSameResult) {
  DseConfig persisted = small_config();
  persisted.checkpoint_path = ckpt("done.snap");
  const DseResult first = dse_exhaustive(kernel_, persisted);
  ASSERT_TRUE(first.completed);
  // A second invocation restores everything and re-evaluates nothing.
  const DseResult again = dse_exhaustive(kernel_, persisted);
  EXPECT_EQ(again.resumed_units, 36u);
  expect_identical(again, first);
}

TEST_F(DseResumeTest, SnapshotFromADifferentRunIsRejected) {
  DseConfig persisted = small_config();
  persisted.checkpoint_path = ckpt("pinned.snap");
  persisted.unit_budget = 6;
  (void)dse_random(kernel_, persisted, 24, 0xBEEF);
  // Same path, different seed: a silently mixed resume would corrupt the
  // sweep, so the fingerprint check must throw.
  EXPECT_THROW((void)dse_random(kernel_, persisted, 24, 0xFEED), core::Error);
  // Different strategy over the same path is a different run too.
  EXPECT_THROW((void)dse_exhaustive(kernel_, persisted), core::Error);
  // Different kernel body as well.
  EXPECT_THROW((void)dse_random(make_dot_kernel(16), persisted, 24, 0xBEEF),
               core::Error);
  // A different trial budget, and the same run with the loop pipelined.
  EXPECT_THROW((void)dse_random(kernel_, persisted, 16, 0xBEEF), core::Error);
  DseConfig pipelined = persisted;
  pipelined.pipelined = true;
  EXPECT_THROW((void)dse_random(kernel_, pipelined, 24, 0xBEEF), core::Error);
}

TEST_F(DseResumeTest, ExpiredDeadlineYieldsWellFormedEmptyPartial) {
  DseConfig config = small_config();
  config.deadline = core::Deadline::after(0.0);
  for (const DseResult& result :
       {dse_exhaustive(kernel_, config), dse_random(kernel_, config, 24, 1),
        dse_hill_climb(kernel_, config, 4, 1)}) {
    EXPECT_FALSE(result.completed);
    EXPECT_EQ(result.evaluations, 0u);
    EXPECT_EQ(result.feasible, 0u);
    EXPECT_TRUE(result.evaluated.empty());
    EXPECT_TRUE(result.front.empty());
  }
}

TEST_F(DseResumeTest, GenerousDeadlineDoesNotPerturbTheResult) {
  DseConfig config = small_config();
  config.deadline = core::Deadline::after(3600.0);
  expect_identical(dse_exhaustive(kernel_, config),
                   dse_exhaustive(kernel_, small_config()));
}

TEST_F(DseResumeTest, PreCancelledTokenYieldsWellFormedEmptyPartial) {
  DseConfig config = small_config();
  config.cancel.request_stop();
  const DseResult result = dse_exhaustive(kernel_, config);
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.evaluations, 0u);
  EXPECT_EQ(result.feasible, 0u);
  EXPECT_TRUE(result.evaluated.empty());
}

TEST_F(DseResumeTest, CancelledPartialThenResumeCompletesTheSweep) {
  // Cancellation (not just unit budgets) must leave a resumable snapshot.
  const DseResult reference = dse_exhaustive(kernel_, small_config());
  DseConfig persisted = small_config();
  persisted.checkpoint_path = ckpt("cancelled.snap");
  persisted.checkpoint_every = 5;
  persisted.unit_budget = 10;
  (void)dse_exhaustive(kernel_, persisted);
  persisted.unit_budget = 0;
  persisted.cancel = core::CancelToken();  // fresh, unfired token
  const DseResult resumed = dse_exhaustive(kernel_, persisted);
  expect_identical(resumed, reference);
}

}  // namespace
}  // namespace icsc::hls
