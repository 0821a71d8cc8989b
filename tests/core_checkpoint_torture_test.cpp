// Seeded failpoint schedules for snapshots and run journals: the
// checkpoint/* and journal/* sites. Each schedule arms one deterministic
// fault, runs a campaign-shaped workload (per unit: append a journal
// record, then save a snapshot) until its first failure -- a
// campaign does not retry a failed durability call -- then "reboots"
// (clear_crash) and checks the durability contract:
//   * the reopened journal replays every acknowledged record, in order and
//     bit-exact, plus at most the one in flight when the fault fired;
//   * try_load returns the last acknowledged snapshot or the in-flight
//     one, complete -- never a corrupt one, never an exception;
//   * journal and snapshot both take new writes afterwards.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/error.hpp"
#include "core/failpoint.hpp"

namespace icsc::core {
namespace {

constexpr std::uint32_t kKind = 0x54534554;  // "TEST"
// A previous run made units [0, kPriorUnits) durable, then died mid-append;
// each schedule resumes from that state and runs the units up to kUnits.
constexpr std::uint64_t kPriorUnits = 2;
constexpr std::uint64_t kUnits = 5;

std::vector<std::uint8_t> record_for(std::uint64_t unit) {
  SnapshotWriter record;
  record.put_u64(unit * 7919);
  record.put_string(std::string(static_cast<std::size_t>(unit * 13), 'r'));
  return record.payload();
}

SnapshotWriter snapshot_for(std::uint64_t unit) {
  SnapshotWriter snapshot;
  snapshot.put_u64(unit);
  for (std::uint64_t i = 0; i <= unit; ++i) {
    snapshot.put_f64(0.25 * static_cast<double>(i));
  }
  return snapshot;
}

/// What one workload run got acknowledged before its first failure.
struct Progress {
  std::uint64_t records = kPriorUnits;       // journal appends that returned
  std::uint64_t snapshot = kPriorUnits - 1;  // unit of the last saved snapshot
  bool crashed = false;  // ended by a simulated kill -9, not a clean error
};

/// The state the previous run left: its records, the snapshot of its last
/// unit, and three torn bytes of a record that never finished, so that
/// reopening the journal reaches the journal/truncate site.
void write_prior_run(const std::string& dir) {
  {
    RunJournal journal(dir + "/run.jnl", kKind);
    for (std::uint64_t unit = 0; unit < kPriorUnits; ++unit) {
      const auto record = record_for(unit);
      journal.append(record.data(), record.size());
    }
  }
  snapshot_for(kPriorUnits - 1).save(dir + "/snap.bin", kKind, 1);
  std::ofstream(dir + "/run.jnl", std::ios::binary | std::ios::app) << "JRN";
}

Progress run_workload(const std::string& dir) {
  Progress progress;
  try {
    RunJournal journal(dir + "/run.jnl", kKind);
    for (std::uint64_t unit = kPriorUnits; unit < kUnits; ++unit) {
      const auto record = record_for(unit);
      journal.append(record.data(), record.size());
      ++progress.records;
      snapshot_for(unit).save(dir + "/snap.bin", kKind, 1);
      progress.snapshot = unit;
    }
  } catch (const failpoint::CrashError&) {
    progress.crashed = true;
  } catch (const Error&) {
    // Injected EIO/ENOSPC/fsync failure: the campaign stops here.
  }
  return progress;
}

void check_recovery(const std::string& dir, const Progress& progress,
                    std::uint64_t seed) {
  std::size_t skipped = 0;
  const auto records = RunJournal::replay(dir + "/run.jnl", kKind, &skipped);
  ASSERT_GE(records.size(), progress.records)
      << "seed " << seed << ": acknowledged journal record lost";
  ASSERT_LE(records.size(), progress.records + 1)
      << "seed " << seed << ": more than the in-flight record recovered";
  EXPECT_EQ(skipped, 0u) << "seed " << seed << ": damage before the tail";
  for (std::size_t i = 0; i < records.size(); ++i) {
    ASSERT_EQ(records[i].seq, i) << "seed " << seed;
    ASSERT_EQ(records[i].payload, record_for(i))
        << "seed " << seed << ": record " << i << " corrupt";
  }

  std::optional<SnapshotReader> snapshot;
  ASSERT_NO_THROW(snapshot =
                      SnapshotReader::try_load(dir + "/snap.bin", kKind, 1))
      << "seed " << seed << ": snapshot unreadable";
  ASSERT_TRUE(snapshot.has_value()) << "seed " << seed;
  const auto payload = snapshot->get_bytes(snapshot->remaining());
  const std::uint64_t unit = SnapshotReader(payload).get_u64();
  ASSERT_TRUE(unit == progress.snapshot || unit == progress.snapshot + 1)
      << "seed " << seed << ": snapshot of unit " << unit << " after "
      << progress.snapshot;
  ASSERT_EQ(payload, snapshot_for(unit).payload())
      << "seed " << seed << ": snapshot corrupt";

  // Healed: the journal continues after the survivors, snapshots save.
  {
    RunJournal journal(dir + "/run.jnl", kKind);
    ASSERT_EQ(journal.recovered().size(), records.size()) << "seed " << seed;
    const auto next = record_for(records.size());
    journal.append(next.data(), next.size());
  }
  ASSERT_EQ(RunJournal::replay(dir + "/run.jnl", kKind).size(),
            records.size() + 1)
      << "seed " << seed;
  snapshot_for(kUnits).save(dir + "/snap.bin", kKind, 1);
  ASSERT_EQ(SnapshotReader::try_load(dir + "/snap.bin", kKind, 1)->get_u64(),
            kUnits)
      << "seed " << seed;
}

class CheckpointTortureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoint::disarm_all();
    failpoint::clear_crash();
    char tmpl[] = "/tmp/icsc_ckpt_torture_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    root_ = tmpl;
  }
  void TearDown() override {
    failpoint::disarm_all();
    failpoint::clear_crash();
    const std::string cmd = "rm -rf '" + root_ + "'";
    [[maybe_unused]] const int rc = std::system(cmd.c_str());
  }

  std::string fresh_dir(const std::string& name) const {
    const std::string dir = root_ + "/" + name;
    EXPECT_EQ(::mkdir(dir.c_str(), 0755), 0) << dir;
    write_prior_run(dir);
    return dir;
  }

  std::string root_;
};

TEST_F(CheckpointTortureTest, SeededFailpointSchedules) {
  // Recording pass: enumerate the site universe the schedules draw from.
  const std::string record_dir = fresh_dir("record");
  failpoint::Trigger inert;
  inert.action = failpoint::Action::kNone;
  failpoint::arm("recorder", inert);
  const Progress clean = run_workload(record_dir);
  std::map<std::string, std::uint64_t> universe;
  for (const auto& [site, hits] : failpoint::hit_counts()) {
    if (site.rfind("checkpoint/", 0) == 0 || site.rfind("journal/", 0) == 0) {
      universe[site] = hits;
    }
  }
  failpoint::disarm_all();
  ASSERT_EQ(clean.records, kUnits);
  ASSERT_FALSE(clean.crashed);
  // write/fsync/rename for snapshots; write/fsync/truncate for the journal.
  ASSERT_EQ(universe.size(), 6u);

  int crashes = 0;
  int clean_faults = 0;
  for (std::uint64_t seed = 5000; seed < 5300; ++seed) {
    const failpoint::Schedule schedule =
        failpoint::seeded_schedule(seed, universe);
    const std::string dir = fresh_dir("s" + std::to_string(seed));
    failpoint::arm(schedule.site, schedule.trigger);
    const Progress progress = run_workload(dir);
    failpoint::disarm_all();
    failpoint::clear_crash();
    if (progress.crashed) {
      ++crashes;
    } else if (progress.records < kUnits || progress.snapshot + 1 < kUnits) {
      ++clean_faults;
    }
    check_recovery(dir, progress, seed);
    if (HasFatalFailure()) return;
  }
  // Both failure families really occurred.
  EXPECT_GT(crashes, 0);
  EXPECT_GT(clean_faults, 0);
}

}  // namespace
}  // namespace icsc::core
