/// The crash-point recovery matrix: simulate a process kill at EVERY
/// durable-I/O boundary (write / sync / rename / create / dir-fsync /
/// unlink) of a durable session — store creation, the pre-sizing write of
/// each new segment, synced in-place appends, segment rotation,
/// incremental and full checkpoints, manifest swaps, garbage collection —
/// then apply each legal post-crash damage model (unsynced bytes lost /
/// torn / survived / surviving only in their second half, pending renames
/// undone or not) and require revival to
/// succeed with state BIT-IDENTICAL to a clean replay of the durable
/// request prefix. Zero silent divergence, and the replay performed by
/// revival never exceeds one segment. A second matrix kills revival itself
/// while it writes a torn tail back to padding.
///
/// The engines run with no oracle/invariant, cadence checks off, and
/// governance inactive, so engine state is a pure function of the applied
/// request prefix — which is exactly what makes "bit-identical to an
/// oracle replay" a meaningful check.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "core/durable_io.h"
#include "core/fault.h"
#include "dynfo/journal.h"
#include "dynfo/recovery.h"
#include "programs/registry.h"
#include "relational/serialize.h"

namespace dynfo::dyn {
namespace {

using core::CrashPointShim;
using core::CrashTailMode;
using programs::AllScenarios;
using programs::ProgramScenario;
using relational::Request;
using relational::RequestSequence;

struct DamageMode {
  CrashTailMode tail;
  bool undo_renames;
  const char* name;
};

const DamageMode kDamageModes[] = {
    {CrashTailMode::kKeepNone, true, "none_undo"},
    {CrashTailMode::kKeepHalf, true, "half_undo"},
    {CrashTailMode::kKeepAll, true, "all_undo"},
    {CrashTailMode::kKeepNone, false, "none_keep"},
    {CrashTailMode::kKeepHalf, false, "half_keep"},
    {CrashTailMode::kKeepAll, false, "all_keep"},
    {CrashTailMode::kKeepSuffix, true, "suffix_undo"},
    {CrashTailMode::kKeepSuffix, false, "suffix_keep"},
};

const char* kMatrixPrograms[] = {"parity", "reach_u"};

const ProgramScenario& ScenarioNamed(const std::string& name) {
  for (const ProgramScenario& scenario : AllScenarios()) {
    if (scenario.name == name) return scenario;
  }
  ADD_FAILURE() << "no registry scenario named " << name;
  return AllScenarios()[0];
}

std::string TempDirFor(const std::string& name) {
  return ::testing::TempDir() + "dynfo_crash_matrix_" + name;
}

void RemoveTree(const std::string& dir) {
  core::Result<std::vector<std::string>> names = core::ListDir(dir);
  if (names.ok()) {
    for (const std::string& name : names.value()) {
      std::remove((dir + "/" + name).c_str());
    }
  }
  ::rmdir(dir.c_str());
}

GuardedEngineOptions PureOptions(const ProgramScenario& scenario) {
  GuardedEngineOptions options;
  options.check_every = 0;  // state must be a pure function of the prefix
  options.post_init = scenario.post_init;
  return options;
}

DurabilityOptions MatrixDurability() {
  DurabilityOptions durability;
  durability.store.records_per_segment = 5;
  durability.store.full_snapshot_every = 2;
  return durability;
}

/// Runs the whole workload through a fresh durable session under the
/// installed shim. Returns the number of acknowledged (ok) Applies; stops
/// at the first simulated-crash status. Any NON-crash failure is a test
/// failure — the workload is valid and the filesystem is healthy.
size_t RunDoomedSession(const ProgramScenario& scenario,
                        const RequestSequence& requests,
                        const std::string& dir, bool* crashed) {
  GuardedEngine doomed(scenario.make_program(), scenario.default_universe,
                       nullptr, nullptr, PureOptions(scenario));
  core::Status attached = doomed.AttachDurability(dir, MatrixDurability());
  if (!attached.ok()) {
    EXPECT_TRUE(core::IsSimulatedCrash(attached)) << attached.ToString();
    *crashed = true;
    return 0;
  }
  size_t acked = 0;
  for (const Request& request : requests) {
    core::Status applied = doomed.Apply(request);
    if (applied.ok()) {
      ++acked;
      continue;
    }
    EXPECT_TRUE(core::IsSimulatedCrash(applied)) << applied.ToString();
    *crashed = true;
    break;
  }
  return acked;
}

/// One pass with a count-only shim to learn the matrix size M for this
/// scenario's workload (boundaries are deterministic).
uint64_t CountBoundaries(const ProgramScenario& scenario,
                         const RequestSequence& requests,
                         const std::string& dir) {
  RemoveTree(dir);
  CrashPointShim::Options options;
  options.kill_at_op = 0;
  CrashPointShim shim(options);
  core::InstallIoShim(&shim);
  bool crashed = false;
  const size_t acked = RunDoomedSession(scenario, requests, dir, &crashed);
  core::InstallIoShim(nullptr);
  EXPECT_FALSE(crashed);
  EXPECT_EQ(acked, requests.size());
  EXPECT_FALSE(shim.killed());
  RemoveTree(dir);
  return shim.ops_seen();
}

class CrashMatrix : public ::testing::TestWithParam<size_t> {};

TEST_P(CrashMatrix, EveryKillPointRevivesBitIdentical) {
  const DamageMode mode = kDamageModes[GetParam()];
  for (const char* program_name : kMatrixPrograms) {
    const ProgramScenario& scenario = ScenarioNamed(program_name);
    auto program = scenario.make_program();
    const size_t n = scenario.default_universe;
    RequestSequence requests = scenario.make_workload(n, /*seed=*/21);
    if (requests.size() > 18) requests.resize(18);
    const std::string dir =
        TempDirFor(std::string(program_name) + "_" + mode.name);

    const uint64_t total_ops = CountBoundaries(scenario, requests, dir);
    ASSERT_GT(total_ops, requests.size())  // at least one boundary per append
        << program_name << ": the shim saw too few boundaries";

    // The full oracle run, reused for every kill point's comparisons.
    Engine full_oracle(program, n);
    if (scenario.post_init) scenario.post_init(&full_oracle);
    for (const Request& request : requests) full_oracle.Apply(request);
    const std::string full_state = relational::WriteStructure(full_oracle.data());

    for (uint64_t kill = 1; kill <= total_ops; ++kill) {
      RemoveTree(dir);
      CrashPointShim::Options shim_options;
      shim_options.kill_at_op = kill;
      shim_options.tail_mode = mode.tail;
      shim_options.undo_pending_renames = mode.undo_renames;
      CrashPointShim shim(shim_options);
      core::InstallIoShim(&shim);
      bool crashed = false;
      const size_t acked = RunDoomedSession(scenario, requests, dir, &crashed);
      core::InstallIoShim(nullptr);
      ASSERT_TRUE(crashed) << program_name << " op " << kill
                           << ": the kill point was never reached";
      ASSERT_TRUE(shim.killed());
      ASSERT_TRUE(shim.ApplyCrashDamage().ok()) << shim.DescribeKill();

      // Revival must succeed at EVERY kill point — a crash can lose only
      // the unacknowledged tail, never the ability to recover.
      GuardedEngine revived(program, n, nullptr, nullptr,
                            PureOptions(scenario));
      core::Status attached = revived.AttachDurability(dir, MatrixDurability());
      ASSERT_TRUE(attached.ok())
          << program_name << " " << shim.DescribeKill() << ": "
          << attached.ToString();

      // Acknowledged requests are durable (fsync-per-append); at most the
      // single in-flight request may additionally survive.
      const uint64_t steps = revived.engine().stats().requests;
      ASSERT_GE(steps, acked) << program_name << " " << shim.DescribeKill()
                              << ": an acknowledged request was lost";
      ASSERT_LE(steps, acked + 1)
          << program_name << " " << shim.DescribeKill()
          << ": revival conjured unapplied requests";
      ASSERT_LE(revived.recovery_stats().replayed_on_recovery,
                MatrixDurability().store.records_per_segment)
          << program_name << " " << shim.DescribeKill()
          << ": replay exceeded one segment";

      // Bit-identical to a clean replay of the recovered prefix.
      Engine oracle(program, n);
      if (scenario.post_init) scenario.post_init(&oracle);
      relational::Structure oracle_input(program->input_vocabulary(), n);
      for (uint64_t i = 0; i < steps; ++i) {
        oracle.Apply(requests[i]);
        relational::ApplyRequest(&oracle_input, requests[i]);
      }
      ASSERT_EQ(relational::WriteStructure(revived.engine().data()),
                relational::WriteStructure(oracle.data()))
          << program_name << " " << shim.DescribeKill() << " at step " << steps;
      ASSERT_EQ(revived.input(), oracle_input)
          << program_name << " " << shim.DescribeKill();

      // The revived session finishes the workload and converges with the
      // uninterrupted run, bit for bit.
      for (size_t i = static_cast<size_t>(steps); i < requests.size(); ++i) {
        ASSERT_TRUE(revived.Apply(requests[i]).ok())
            << program_name << " " << shim.DescribeKill() << " request " << i;
      }
      ASSERT_EQ(relational::WriteStructure(revived.engine().data()), full_state)
          << program_name << " " << shim.DescribeKill();
    }
    RemoveTree(dir);
  }
}

INSTANTIATE_TEST_SUITE_P(AllDamageModes, CrashMatrix,
                         ::testing::Range<size_t>(
                             0, sizeof(kDamageModes) / sizeof(kDamageModes[0])),
                         [](const ::testing::TestParamInfo<size_t>& param_info) {
                           return std::string(kDamageModes[param_info.param].name);
                         });

// ---------------------------------------------------------------------------
// Batch-boundary kill points: a group commit is one journal record and one
// fsync, so a crash anywhere in a batched session must revive to a WHOLE
// number of batches — acked-batches <= state <= acked-batches + 1, never a
// torn batch (a torn batch record drops the whole batch on replay).

constexpr size_t kBatch = 4;

DurabilityOptions BatchMatrixDurability() {
  DurabilityOptions durability;
  durability.store.records_per_segment = 8;
  durability.store.full_snapshot_every = 2;
  return durability;
}

/// Like RunDoomedSession, in batches of kBatch. Returns acknowledged
/// REQUESTS (a multiple of kBatch).
size_t RunDoomedBatchSession(const ProgramScenario& scenario,
                             const RequestSequence& requests,
                             const std::string& dir, bool* crashed) {
  GuardedEngine doomed(scenario.make_program(), scenario.default_universe,
                       nullptr, nullptr, PureOptions(scenario));
  core::Status attached = doomed.AttachDurability(dir, BatchMatrixDurability());
  if (!attached.ok()) {
    EXPECT_TRUE(core::IsSimulatedCrash(attached)) << attached.ToString();
    *crashed = true;
    return 0;
  }
  size_t acked = 0;
  for (size_t i = 0; i + kBatch <= requests.size(); i += kBatch) {
    core::Status applied =
        doomed.ApplyBatch(std::span<const Request>(requests.data() + i, kBatch));
    if (applied.ok()) {
      acked += kBatch;
      continue;
    }
    EXPECT_TRUE(core::IsSimulatedCrash(applied)) << applied.ToString();
    *crashed = true;
    break;
  }
  return acked;
}

class BatchCrashMatrix : public ::testing::TestWithParam<size_t> {};

TEST_P(BatchCrashMatrix, EveryKillPointRevivesWholeBatches) {
  const DamageMode mode = kDamageModes[GetParam()];
  for (const char* program_name : kMatrixPrograms) {
    const ProgramScenario& scenario = ScenarioNamed(program_name);
    auto program = scenario.make_program();
    const size_t n = scenario.default_universe;
    RequestSequence requests = scenario.make_workload(n, /*seed=*/21);
    ASSERT_GE(requests.size(), 4 * kBatch) << program_name;
    requests.resize(4 * kBatch);  // a whole number of batches
    const std::string dir =
        TempDirFor(std::string("batch_") + program_name + "_" + mode.name);

    // Count-only pass to size the matrix.
    RemoveTree(dir);
    uint64_t total_ops = 0;
    {
      CrashPointShim::Options options;
      options.kill_at_op = 0;
      CrashPointShim shim(options);
      core::InstallIoShim(&shim);
      bool crashed = false;
      const size_t acked = RunDoomedBatchSession(scenario, requests, dir, &crashed);
      core::InstallIoShim(nullptr);
      ASSERT_FALSE(crashed);
      ASSERT_EQ(acked, requests.size());
      total_ops = shim.ops_seen();
      RemoveTree(dir);
    }
    // Group commit means FEWER boundaries than one per request — that is
    // the point of batching; the matrix still covers every one of them.
    ASSERT_GT(total_ops, 0u) << program_name;

    Engine full_oracle(program, n);
    if (scenario.post_init) scenario.post_init(&full_oracle);
    for (const Request& request : requests) full_oracle.Apply(request);
    const std::string full_state = relational::WriteStructure(full_oracle.data());

    for (uint64_t kill = 1; kill <= total_ops; ++kill) {
      RemoveTree(dir);
      CrashPointShim::Options shim_options;
      shim_options.kill_at_op = kill;
      shim_options.tail_mode = mode.tail;
      shim_options.undo_pending_renames = mode.undo_renames;
      CrashPointShim shim(shim_options);
      core::InstallIoShim(&shim);
      bool crashed = false;
      const size_t acked = RunDoomedBatchSession(scenario, requests, dir, &crashed);
      core::InstallIoShim(nullptr);
      ASSERT_TRUE(crashed) << program_name << " op " << kill;
      ASSERT_TRUE(shim.killed());
      ASSERT_TRUE(shim.ApplyCrashDamage().ok()) << shim.DescribeKill();

      GuardedEngine revived(program, n, nullptr, nullptr, PureOptions(scenario));
      core::Status attached =
          revived.AttachDurability(dir, BatchMatrixDurability());
      ASSERT_TRUE(attached.ok())
          << program_name << " " << shim.DescribeKill() << ": "
          << attached.ToString();

      const uint64_t steps = revived.engine().stats().requests;
      // Whole batches only: acked <= state <= acked + one in-flight batch,
      // and NEVER a partial batch.
      ASSERT_EQ(steps % kBatch, 0u)
          << program_name << " " << shim.DescribeKill()
          << ": revived to a PARTIAL batch (" << steps << " requests)";
      ASSERT_GE(steps, acked) << program_name << " " << shim.DescribeKill()
                              << ": an acknowledged batch was lost";
      ASSERT_LE(steps, acked + kBatch)
          << program_name << " " << shim.DescribeKill()
          << ": revival conjured unacknowledged batches";
      // A batch record can overshoot the segment's record budget by at most
      // one batch, so the replay bound is interval + batch.
      ASSERT_LE(revived.recovery_stats().replayed_on_recovery,
                BatchMatrixDurability().store.records_per_segment + kBatch)
          << program_name << " " << shim.DescribeKill();

      Engine oracle(program, n);
      if (scenario.post_init) scenario.post_init(&oracle);
      for (uint64_t i = 0; i < steps; ++i) oracle.Apply(requests[i]);
      ASSERT_EQ(relational::WriteStructure(revived.engine().data()),
                relational::WriteStructure(oracle.data()))
          << program_name << " " << shim.DescribeKill() << " at step " << steps;

      // Finish the workload in batches; converge with the clean run.
      for (size_t i = static_cast<size_t>(steps); i < requests.size();
           i += kBatch) {
        ASSERT_TRUE(revived
                        .ApplyBatch(std::span<const Request>(
                            requests.data() + i, kBatch))
                        .ok())
            << program_name << " " << shim.DescribeKill() << " batch at " << i;
      }
      ASSERT_EQ(relational::WriteStructure(revived.engine().data()), full_state)
          << program_name << " " << shim.DescribeKill();
    }
    RemoveTree(dir);
  }
}

INSTANTIATE_TEST_SUITE_P(AllDamageModes, BatchCrashMatrix,
                         ::testing::Range<size_t>(
                             0, sizeof(kDamageModes) / sizeof(kDamageModes[0])),
                         [](const ::testing::TestParamInfo<size_t>& param_info) {
                           return std::string(kDamageModes[param_info.param].name);
                         });

// ---------------------------------------------------------------------------
// Kill points inside revival: a crash mid-append leaves a torn record (its
// first half, or its second half after NULs), and the next Open writes it
// back to NULs in place and syncs. A second crash anywhere in that revival
// (the zeroing write, its sync, or the checkpoint revival may write) must
// still revive to the same state — including the half-zeroed shapes a torn
// repair write leaves.

TEST(RepairCrashMatrix, KillDuringTornTailRepairRevivesBitIdentical) {
  for (const char* program_name : kMatrixPrograms) {
    const ProgramScenario& scenario = ScenarioNamed(program_name);
    auto program = scenario.make_program();
    const size_t n = scenario.default_universe;
    RequestSequence requests = scenario.make_workload(n, /*seed=*/21);
    if (requests.size() > 18) requests.resize(18);
    const std::string dir = TempDirFor(std::string("repair_") + program_name);
    const uint64_t total_ops = CountBoundaries(scenario, requests, dir);

    // The first crash: killed at `kill` with a torn-write damage mode.
    // Returns the acknowledged count; the directory is left damaged.
    auto first_crash = [&](uint64_t kill, CrashTailMode torn) -> size_t {
      RemoveTree(dir);
      CrashPointShim::Options options;
      options.kill_at_op = kill;
      options.tail_mode = torn;
      CrashPointShim shim(options);
      core::InstallIoShim(&shim);
      bool crashed = false;
      const size_t acked = RunDoomedSession(scenario, requests, dir, &crashed);
      core::InstallIoShim(nullptr);
      EXPECT_TRUE(crashed && shim.ApplyCrashDamage().ok()) << shim.DescribeKill();
      return acked;
    };

    size_t repairs = 0;
    for (uint64_t kill = 1; kill <= total_ops; ++kill) {
      for (CrashTailMode torn :
           {CrashTailMode::kKeepHalf, CrashTailMode::kKeepSuffix}) {
        // Count the revival's boundaries; only revivals that repair a torn
        // tail are this matrix's subject.
        const size_t acked = first_crash(kill, torn);
        CrashPointShim counter(CrashPointShim::Options{});
        core::InstallIoShim(&counter);
        GuardedEngine probe(program, n, nullptr, nullptr, PureOptions(scenario));
        core::Status probed = probe.AttachDurability(dir, MatrixDurability());
        core::InstallIoShim(nullptr);
        ASSERT_TRUE(probed.ok()) << program_name << " op " << kill << ": "
                                 << probed.ToString();
        if (!probe.durable_store()->recovered().torn_tail) continue;
        ++repairs;
        const uint64_t steps = probe.engine().stats().requests;
        ASSERT_EQ(steps, acked) << program_name << " op " << kill;
        const std::string state = relational::WriteStructure(probe.engine().data());

        for (uint64_t repair_kill = 1; repair_kill <= counter.ops_seen();
             ++repair_kill) {
          for (const DamageMode& mode : kDamageModes) {
            first_crash(kill, torn);
            CrashPointShim::Options options;
            options.kill_at_op = repair_kill;
            options.tail_mode = mode.tail;
            options.undo_pending_renames = mode.undo_renames;
            CrashPointShim shim(options);
            core::InstallIoShim(&shim);
            GuardedEngine doomed(program, n, nullptr, nullptr, PureOptions(scenario));
            core::Status died = doomed.AttachDurability(dir, MatrixDurability());
            core::InstallIoShim(nullptr);
            const std::string where = std::string(program_name) + " first op " +
                                      std::to_string(kill) + " " +
                                      core::CrashTailModeName(torn) + ", revival " +
                                      shim.DescribeKill();
            ASSERT_TRUE(core::IsSimulatedCrash(died)) << where << ": " << died.ToString();
            ASSERT_TRUE(shim.ApplyCrashDamage().ok()) << where;

            GuardedEngine revived(program, n, nullptr, nullptr, PureOptions(scenario));
            core::Status attached = revived.AttachDurability(dir, MatrixDurability());
            ASSERT_TRUE(attached.ok()) << where << ": " << attached.ToString();
            ASSERT_EQ(revived.engine().stats().requests, steps) << where;
            ASSERT_EQ(relational::WriteStructure(revived.engine().data()), state)
                << where;
          }
        }
      }
    }
    EXPECT_GT(repairs, 0u) << program_name << ": no kill point left a torn tail";
    RemoveTree(dir);
  }
}

/// The shim's in-place model: a write into a pre-sized file, killed before
/// its sync, leaves the padding it overwrote, the first half of the record,
/// all of it, or its second half after padding — and never changes the
/// file's size.
TEST(CrashPointShimTest, InPlaceWriteIntoPresizedFileUnderEachTailMode) {
  const std::string dir = TempDirFor("shim_in_place");
  const std::string path = dir + "/seg";
  const std::string kHead = "head\n";
  const std::string kRecord = "7 ins E 1 2 c=0123456789abcdef\n";
  constexpr uint64_t kCapacity = 96;
  for (uint64_t kill : {1, 2}) {  // the write, or the sync after it
    for (CrashTailMode mode : {CrashTailMode::kKeepNone, CrashTailMode::kKeepHalf,
                               CrashTailMode::kKeepAll, CrashTailMode::kKeepSuffix}) {
      RemoveTree(dir);
      ASSERT_TRUE(core::EnsureDir(dir).ok());
      ASSERT_TRUE(core::AppendFile::Create(path, kHead, kCapacity).ok());

      CrashPointShim::Options options;
      options.kill_at_op = kill;
      options.tail_mode = mode;
      CrashPointShim shim(options);
      core::InstallIoShim(&shim);
      core::Status status;
      {
        core::Result<core::AppendFile> file = core::AppendFile::Open(path, kHead.size());
        ASSERT_TRUE(file.ok());
        status = file.value().Append(kRecord);
        if (status.ok()) status = file.value().Sync();
      }
      core::InstallIoShim(nullptr);
      ASSERT_TRUE(core::IsSimulatedCrash(status)) << shim.DescribeKill();
      ASSERT_TRUE(shim.ApplyCrashDamage().ok()) << shim.DescribeKill();

      std::string expected = kHead;
      if (mode == CrashTailMode::kKeepHalf) {
        expected += kRecord.substr(0, kRecord.size() / 2);
      } else if (mode == CrashTailMode::kKeepAll) {
        expected += kRecord;
      } else if (mode == CrashTailMode::kKeepSuffix) {
        const size_t lost = kRecord.size() - kRecord.size() / 2;
        expected += std::string(lost, '\0') + kRecord.substr(lost);
      }
      expected.resize(kCapacity, '\0');
      core::Result<std::string> read = core::ReadFileToString(path);
      ASSERT_TRUE(read.ok());
      EXPECT_EQ(read.value(), expected) << shim.DescribeKill();
    }
  }
  RemoveTree(dir);
}

/// Under kKeepSuffix only bytes written inside the durable size can outlive
/// earlier ones: a record that runs past the capacity keeps the second half
/// of its in-place bytes, and its bytes past the old end are cut off.
TEST(CrashPointShimTest, KeepSuffixCutsBytesPastTheDurableSize) {
  const std::string dir = TempDirFor("shim_suffix_growth");
  const std::string path = dir + "/seg";
  const std::string kHead = "head\n";
  const std::string kRecord = "7 ins E 1 2 c=0123456789abcdef\n";
  constexpr uint64_t kCapacity = 15;  // 10 bytes of padding
  RemoveTree(dir);
  ASSERT_TRUE(core::EnsureDir(dir).ok());
  ASSERT_TRUE(core::AppendFile::Create(path, kHead, kCapacity).ok());

  CrashPointShim::Options options;
  options.kill_at_op = 2;  // the sync after the write
  options.tail_mode = CrashTailMode::kKeepSuffix;
  CrashPointShim shim(options);
  core::InstallIoShim(&shim);
  core::Status status;
  {
    core::Result<core::AppendFile> file = core::AppendFile::Open(path, kHead.size());
    ASSERT_TRUE(file.ok());
    status = file.value().Append(kRecord);
    if (status.ok()) status = file.value().Sync();
  }
  core::InstallIoShim(nullptr);
  ASSERT_TRUE(core::IsSimulatedCrash(status)) << shim.DescribeKill();
  ASSERT_TRUE(shim.ApplyCrashDamage().ok()) << shim.DescribeKill();

  core::Result<std::string> read = core::ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), kHead + std::string(5, '\0') + kRecord.substr(5, 5));
  RemoveTree(dir);
}

/// An unsynced in-place write reverts to the durable bytes it overwrote,
/// whatever they were: here, a torn record being written back to NULs.
TEST(CrashPointShimTest, InPlaceWriteRevertsToTheBytesItOverwrote) {
  const std::string dir = TempDirFor("shim_revert");
  const std::string path = dir + "/seg";
  const std::string kDurable = "head\ntorn-record-bytes";
  for (CrashTailMode mode : {CrashTailMode::kKeepNone, CrashTailMode::kKeepHalf,
                             CrashTailMode::kKeepAll, CrashTailMode::kKeepSuffix}) {
    RemoveTree(dir);
    ASSERT_TRUE(core::EnsureDir(dir).ok());
    ASSERT_TRUE(core::AtomicWriteFile(path, kDurable).ok());

    CrashPointShim::Options options;
    options.kill_at_op = 2;  // the sync after the zeroing write
    options.tail_mode = mode;
    CrashPointShim shim(options);
    core::InstallIoShim(&shim);
    core::Status status;
    {
      core::Result<core::AppendFile> file = core::AppendFile::Open(path, 5);
      ASSERT_TRUE(file.ok());
      status = file.value().ZeroFill(kDurable.size());
      if (status.ok()) status = file.value().Sync();
    }
    core::InstallIoShim(nullptr);
    ASSERT_TRUE(core::IsSimulatedCrash(status)) << shim.DescribeKill();
    ASSERT_TRUE(shim.ApplyCrashDamage().ok()) << shim.DescribeKill();

    const size_t zeroed = kDurable.size() - 5;
    // The zeros that survive: none, the first half, all, or the second half.
    size_t from = 5, to = 5;
    if (mode == CrashTailMode::kKeepHalf) to = 5 + zeroed / 2;
    if (mode == CrashTailMode::kKeepAll) to = kDurable.size();
    if (mode == CrashTailMode::kKeepSuffix) {
      from = kDurable.size() - zeroed / 2;
      to = kDurable.size();
    }
    std::string expected = kDurable;
    std::fill(expected.begin() + static_cast<std::ptrdiff_t>(from),
              expected.begin() + static_cast<std::ptrdiff_t>(to), '\0');
    core::Result<std::string> read = core::ReadFileToString(path);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read.value(), expected) << shim.DescribeKill();
  }
  RemoveTree(dir);
}

/// Sanity check on the shim itself: a vetoed boundary surfaces as a
/// simulated crash, later ops fail, and damage application restores the
/// pre-rename target.
TEST(CrashPointShimTest, VetoedRenameRestoresOldTarget) {
  const std::string dir = TempDirFor("shim_unit");
  RemoveTree(dir);
  ASSERT_TRUE(core::EnsureDir(dir).ok());
  const std::string path = dir + "/f";
  ASSERT_TRUE(core::AtomicWriteFile(path, "old").ok());

  // Kill at the rename boundary of the second atomic write: temp exists,
  // target still holds the old bytes.
  CrashPointShim::Options options;
  options.kill_at_op = 4;  // create, write, fsync, RENAME, dir-fsync
  CrashPointShim probe(options);
  core::InstallIoShim(&probe);
  core::Status status = core::AtomicWriteFile(path, "new");
  core::InstallIoShim(nullptr);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(core::IsSimulatedCrash(status));
  EXPECT_TRUE(probe.killed());
  ASSERT_TRUE(probe.ApplyCrashDamage().ok());

  core::Result<std::string> read = core::ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), "old") << "a killed atomic write damaged the target";
  RemoveTree(dir);
}

TEST(CrashPointShimTest, UnsyncedRenameCanBeUndoneAfterDirFsyncKill) {
  const std::string dir = TempDirFor("shim_rename");
  RemoveTree(dir);
  ASSERT_TRUE(core::EnsureDir(dir).ok());
  const std::string path = dir + "/f";
  ASSERT_TRUE(core::AtomicWriteFile(path, "old").ok());

  // Kill at the parent-dir fsync AFTER the rename executed: with
  // undo_pending_renames the dirent update is deemed lost.
  CrashPointShim::Options options;
  options.kill_at_op = 5;  // create, write, fsync, rename, DIR-FSYNC
  options.undo_pending_renames = true;
  CrashPointShim probe(options);
  core::InstallIoShim(&probe);
  core::Status status = core::AtomicWriteFile(path, "new");
  core::InstallIoShim(nullptr);
  ASSERT_FALSE(status.ok());
  ASSERT_TRUE(probe.ApplyCrashDamage().ok());
  core::Result<std::string> read = core::ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), "old");

  // The same kill with undo disabled keeps the new bytes — also legal.
  RemoveTree(dir);
  ASSERT_TRUE(core::EnsureDir(dir).ok());
  ASSERT_TRUE(core::AtomicWriteFile(path, "old").ok());
  options.undo_pending_renames = false;
  CrashPointShim keeper(options);
  core::InstallIoShim(&keeper);
  status = core::AtomicWriteFile(path, "new");
  core::InstallIoShim(nullptr);
  ASSERT_FALSE(status.ok());
  ASSERT_TRUE(keeper.ApplyCrashDamage().ok());
  read = core::ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), "new");
  RemoveTree(dir);
}

}  // namespace
}  // namespace dynfo::dyn
