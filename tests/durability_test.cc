/// The durable-store stack below the crash matrix:
///   * atomic-replace and in-place segment-write primitives
///     (core/durable_io.h);
///   * DurableStore segment rotation, incremental checkpoints, manifest
///     swaps, orphan collection, and the bounded-replay revival contract;
///   * hostile-bytes fuzzing of the manifest and segment formats, padded
///     and unpadded — every single-byte mutation and every truncation is
///     detected, never silently replayed (the segment format may only lose
///     a torn TAIL, and damage inside the padding loses nothing);
///   * GuardedEngine::AttachDurability / Compact end to end.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/durable_io.h"
#include "core/fault.h"
#include "dynfo/journal.h"
#include "dynfo/recovery.h"
#include "dynfo/workload.h"
#include "programs/parity.h"
#include "programs/reach_u.h"
#include "relational/serialize.h"

namespace dynfo::dyn {
namespace {

using relational::Request;
using relational::RequestSequence;

std::string TempDirFor(const std::string& name) {
  return ::testing::TempDir() + "dynfo_durability_" + name;
}

/// Removes `dir` and every regular file directly inside it (the store's
/// layout is flat, so one level suffices).
void RemoveTree(const std::string& dir) {
  core::Result<std::vector<std::string>> names = core::ListDir(dir);
  if (names.ok()) {
    for (const std::string& name : names.value()) {
      std::remove((dir + "/" + name).c_str());
    }
  }
  ::rmdir(dir.c_str());
}

RequestSequence ReachWorkload(size_t n, uint64_t seed, size_t count) {
  GraphWorkloadOptions options;
  options.num_requests = count;
  options.seed = seed;
  options.undirected = true;
  options.set_fraction = 0.05;
  return MakeGraphWorkload(*programs::ReachUInputVocabulary(), "E", n, options);
}

// ---------------------------------------------------------------------------
// core/durable_io.h primitives
// ---------------------------------------------------------------------------

TEST(DurableIoTest, AtomicWriteFileCreatesAndReplaces) {
  const std::string dir = TempDirFor("atomic");
  RemoveTree(dir);
  ASSERT_TRUE(core::EnsureDir(dir).ok());
  const std::string path = dir + "/target";

  ASSERT_TRUE(core::AtomicWriteFile(path, "first").ok());
  core::Result<std::string> read = core::ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), "first");

  ASSERT_TRUE(core::AtomicWriteFile(path, "second, longer contents").ok());
  read = core::ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), "second, longer contents");

  // No temp sibling is left behind.
  EXPECT_FALSE(core::FileExists(path + ".tmp"));
  core::Result<std::vector<std::string>> names = core::ListDir(dir);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names.value().size(), 1u);
  RemoveTree(dir);
}

TEST(DurableIoTest, AppendFilePersistsAcrossReopen) {
  const std::string dir = TempDirFor("append");
  RemoveTree(dir);
  ASSERT_TRUE(core::EnsureDir(dir).ok());
  const std::string path = dir + "/log";
  const std::string kHead = "head\n";
  constexpr uint64_t kCapacity = 64;
  {
    core::Result<core::AppendFile> file =
        core::AppendFile::Create(path, kHead, kCapacity);
    ASSERT_TRUE(file.ok());
    EXPECT_EQ(file.value().offset(), kHead.size());
    ASSERT_TRUE(file.value().Append("one\n").ok());
    ASSERT_TRUE(file.value().Append("two\n").ok());
    ASSERT_TRUE(file.value().Sync().ok());
    EXPECT_EQ(file.value().offset(), kHead.size() + 8);
  }
  core::Result<std::string> read = core::ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read.value().size(), kCapacity) << "records grew a pre-sized file";
  // The write offset, not the file size, decides where the next record
  // lands: reopening at the end of the records overwrites the padding.
  {
    core::Result<core::AppendFile> file =
        core::AppendFile::Open(path, kHead.size() + 8);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file.value().Append("three\n").ok());
    ASSERT_TRUE(file.value().Sync().ok());
  }
  std::string expected = kHead + "one\ntwo\nthree\n";
  expected.resize(kCapacity, '\0');
  read = core::ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), expected);

  // Records past the capacity still land, growing the file.
  {
    core::Result<core::AppendFile> file =
        core::AppendFile::Open(path, kHead.size() + 14);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file.value().Append(std::string(kCapacity, 'x')).ok());
    ASSERT_TRUE(file.value().Sync().ok());
  }
  read = core::ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), kHead + "one\ntwo\nthree\n" + std::string(kCapacity, 'x'));
  RemoveTree(dir);
}

TEST(DurableIoTest, ZeroFillAndRemoveDurable) {
  const std::string dir = TempDirFor("zero_fill");
  RemoveTree(dir);
  ASSERT_TRUE(core::EnsureDir(dir).ok());
  const std::string path = dir + "/f";
  ASSERT_TRUE(core::AtomicWriteFile(path, "0123456789").ok());
  {
    core::Result<core::AppendFile> file = core::AppendFile::Open(path, 4);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file.value().ZeroFill(10).ok());
    ASSERT_TRUE(file.value().Sync().ok());
    EXPECT_EQ(file.value().offset(), 4u) << "ZeroFill moved the write offset";
    ASSERT_TRUE(file.value().Append("ab").ok());
  }
  core::Result<std::string> read = core::ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), std::string("0123ab\0\0\0\0", 10));
  ASSERT_TRUE(core::RemoveFileDurable(path).ok());
  EXPECT_FALSE(core::FileExists(path));
  // Removing an already-absent file is not an error (GC idempotence).
  EXPECT_TRUE(core::RemoveFileDurable(path).ok());
  RemoveTree(dir);
}

// ---------------------------------------------------------------------------
// DurableStore: rotation, checkpoints, GC, revival
// ---------------------------------------------------------------------------

/// Drives the store exactly as the recovery layer does: append, and on
/// checkpoint_due write a blob naming the step (the store treats blobs as
/// opaque bytes, so the test can use legible stand-ins).
void DriveStore(DurableStore* store, const RequestSequence& requests,
                std::string* latest_full, std::string* latest_delta) {
  for (const Request& request : requests) {
    ASSERT_TRUE(store->Append(request).ok());
    if (store->checkpoint_due()) {
      const bool full = store->full_due();
      const std::string blob =
          (full ? "full@" : "delta@") + std::to_string(store->next_seq());
      ASSERT_TRUE(store->Checkpoint(blob, full).ok());
      if (full) {
        *latest_full = blob;
        latest_delta->clear();
      } else {
        *latest_delta = blob;
      }
    }
  }
}

TEST(DurableStoreTest, CreateAppendRotateAndReviveWithBoundedReplay) {
  const std::string dir = TempDirFor("store_rt");
  RemoveTree(dir);
  auto program = programs::MakeReachUProgram();
  const RequestSequence requests = ReachWorkload(8, 3, 22);

  DurableStoreOptions options;
  options.records_per_segment = 4;
  options.full_snapshot_every = 3;
  std::string latest_full = "full@0";
  std::string latest_delta;
  uint64_t appended = 0;
  {
    core::Result<DurableStore> created =
        DurableStore::Create(dir, "reach_u", 8, latest_full, 0, options);
    ASSERT_TRUE(created.ok()) << created.status().message();
    DurableStore store = std::move(created).value();
    EXPECT_TRUE(DurableStore::Exists(dir));
    DriveStore(&store, requests, &latest_full, &latest_delta);
    appended = store.next_seq();
    EXPECT_EQ(appended, requests.size());
    EXPECT_EQ(store.counters().appends, requests.size());
    EXPECT_EQ(store.counters().fsyncs, requests.size());  // default durable
    EXPECT_GT(store.counters().segments_rotated, 0u);
    // 22 appends at interval 4 = 5 checkpoints, every 3rd one full.
    EXPECT_EQ(store.counters().checkpoints + store.counters().full_snapshots,
              5u + 1u /* the Create-time full */);
  }

  core::Result<DurableStore> opened =
      DurableStore::Open(dir, *program->input_vocabulary(), 8, options);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  const DurableRecovery& recovered = opened.value().recovered();
  EXPECT_EQ(recovered.full_blob, latest_full);
  EXPECT_EQ(recovered.delta_blob, latest_delta);
  EXPECT_FALSE(recovered.torn_tail);
  // Replay is bounded by one segment, and is exactly the workload suffix
  // past the last checkpoint.
  EXPECT_LE(recovered.replay.size(), options.records_per_segment);
  EXPECT_EQ(recovered.checkpoint_steps + recovered.replay.size(), appended);
  for (size_t i = 0; i < recovered.replay.size(); ++i) {
    EXPECT_EQ(recovered.replay[i],
              requests[recovered.checkpoint_steps + i])
        << "replay record " << i;
  }
  EXPECT_EQ(opened.value().next_seq(), appended);

  // GC: the directory holds exactly the manifest plus its referenced files.
  core::Result<std::vector<std::string>> names = core::ListDir(dir);
  ASSERT_TRUE(names.ok());
  const Manifest& manifest = opened.value().manifest();
  size_t expected =
      2u /* MANIFEST + full */ + (manifest.delta_file.empty() ? 0u : 1u) +
      manifest.segments.size();
  EXPECT_EQ(names.value().size(), expected)
      << "directory holds unreferenced files";
  RemoveTree(dir);
}

TEST(DurableStoreTest, AppendsAfterReviveContinueTheSequence) {
  const std::string dir = TempDirFor("store_cont");
  RemoveTree(dir);
  auto program = programs::MakeReachUProgram();
  const RequestSequence requests = ReachWorkload(8, 7, 10);
  DurableStoreOptions options;
  options.records_per_segment = 4;
  {
    core::Result<DurableStore> created =
        DurableStore::Create(dir, "reach_u", 8, "full@0", 0, options);
    ASSERT_TRUE(created.ok());
    DurableStore store = std::move(created).value();
    for (size_t i = 0; i < 3; ++i) ASSERT_TRUE(store.Append(requests[i]).ok());
  }
  {
    core::Result<DurableStore> opened =
        DurableStore::Open(dir, *program->input_vocabulary(), 8, options);
    ASSERT_TRUE(opened.ok());
    DurableStore store = std::move(opened).value();
    EXPECT_EQ(store.next_seq(), 3u);
    for (size_t i = 3; i < requests.size(); ++i) {
      ASSERT_TRUE(store.Append(requests[i]).ok());
      if (store.checkpoint_due()) {
        ASSERT_TRUE(store.Checkpoint("delta@" + std::to_string(store.next_seq()),
                                     false)
                        .ok());
      }
    }
  }
  core::Result<DurableStore> opened =
      DurableStore::Open(dir, *program->input_vocabulary(), 8, options);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value().next_seq(), requests.size());
  RemoveTree(dir);
}

TEST(DurableStoreTest, UniverseMismatchAndMissingFilesAreReported) {
  const std::string dir = TempDirFor("store_neg");
  RemoveTree(dir);
  auto program = programs::MakeReachUProgram();
  DurableStoreOptions options;
  options.records_per_segment = 4;
  {
    core::Result<DurableStore> created =
        DurableStore::Create(dir, "reach_u", 8, "full@0", 0, options);
    ASSERT_TRUE(created.ok());
  }
  // Wrong universe: a configuration error, not corruption.
  core::Result<DurableStore> wrong_n =
      DurableStore::Open(dir, *program->input_vocabulary(), 6, options);
  ASSERT_FALSE(wrong_n.ok());
  EXPECT_EQ(wrong_n.status().code(), core::StatusCode::kError);

  // A manifest-referenced file missing is corruption (the manifest is only
  // ever written after its referents are durable).
  ASSERT_TRUE(core::RemoveFileDurable(dir + "/full-0.snap").ok());
  core::Result<DurableStore> missing =
      DurableStore::Open(dir, *program->input_vocabulary(), 8, options);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), core::StatusCode::kCorruption);
  RemoveTree(dir);
}

TEST(DurableStoreTest, TornActiveSegmentTailIsZeroedOnOpen) {
  const std::string dir = TempDirFor("store_torn");
  RemoveTree(dir);
  auto program = programs::MakeReachUProgram();
  const RequestSequence requests = ReachWorkload(8, 11, 3);
  DurableStoreOptions options;
  {
    core::Result<DurableStore> created =
        DurableStore::Create(dir, "reach_u", 8, "full@0", 0, options);
    ASSERT_TRUE(created.ok());
    DurableStore store = std::move(created).value();
    for (const Request& request : requests) {
      ASSERT_TRUE(store.Append(request).ok());
    }
  }
  // Tear the final record the way a crash mid-append does in a padded
  // segment: its second half never reached the disk, so those bytes are
  // still padding.
  const std::string seg = dir + "/seg-0.log";
  core::Result<std::string> text = core::ReadFileToString(seg);
  ASSERT_TRUE(text.ok());
  std::string clean_prefix = SegmentHeader(0);
  for (size_t i = 0; i + 1 < requests.size(); ++i) {
    clean_prefix += FormatJournalRecord(i, requests[i]);
  }
  const std::string last = FormatJournalRecord(requests.size() - 1, requests.back());
  ASSERT_EQ(text.value().compare(0, clean_prefix.size() + last.size(),
                                 clean_prefix + last),
            0);
  std::string torn = text.value();
  std::fill(torn.begin() + static_cast<std::ptrdiff_t>(clean_prefix.size() +
                                                       last.size() / 2),
            torn.begin() +
                static_cast<std::ptrdiff_t>(clean_prefix.size() + last.size()),
            '\0');
  ASSERT_TRUE(core::AtomicWriteFile(seg, torn).ok());

  core::Result<DurableStore> opened =
      DurableStore::Open(dir, *program->input_vocabulary(), 8, options);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  DurableStore store = std::move(opened).value();
  EXPECT_TRUE(store.recovered().torn_tail);
  EXPECT_EQ(store.recovered().replay.size(), requests.size() - 1);
  EXPECT_EQ(store.next_seq(), requests.size() - 1);
  // The torn bytes read back as NULs and the file keeps its size.
  core::Result<std::string> repaired = core::ReadFileToString(seg);
  ASSERT_TRUE(repaired.ok());
  std::string expected = clean_prefix;
  expected.resize(text.value().size(), '\0');
  EXPECT_EQ(repaired.value(), expected);

  // The sequence resumes cleanly, in place.
  ASSERT_TRUE(store.Append(requests.back()).ok());
  EXPECT_EQ(store.next_seq(), requests.size());
  repaired = core::ReadFileToString(seg);
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(repaired.value(), text.value());
  RemoveTree(dir);
}

/// Segments written before segments were pre-sized carry no padding. The
/// same parser and the same writer take them: the store opens one, replays
/// it, and appends to it byte for byte as the earlier format did.
TEST(DurableStoreTest, UnpaddedSegmentOpensReplaysAndAppends) {
  const std::string dir = TempDirFor("store_unpadded");
  RemoveTree(dir);
  ASSERT_TRUE(core::EnsureDir(dir).ok());
  auto program = programs::MakeReachUProgram();
  const RequestSequence requests = ReachWorkload(8, 53, 6);
  Manifest manifest;
  manifest.program = "reach_u";
  manifest.universe = 8;
  manifest.full_file = "full-0.snap";
  manifest.segments.push_back({"seg-0.log", 0});
  std::string segment = SegmentHeader(0);
  for (size_t i = 0; i < 3; ++i) segment += FormatJournalRecord(i, requests[i]);
  ASSERT_TRUE(core::AtomicWriteFile(dir + "/full-0.snap", "full@0").ok());
  ASSERT_TRUE(core::AtomicWriteFile(dir + "/seg-0.log", segment).ok());
  ASSERT_TRUE(core::AtomicWriteFile(dir + "/MANIFEST", FormatManifest(manifest)).ok());

  {
    core::Result<DurableStore> opened =
        DurableStore::Open(dir, *program->input_vocabulary(), 8, {});
    ASSERT_TRUE(opened.ok()) << opened.status().message();
    DurableStore store = std::move(opened).value();
    EXPECT_FALSE(store.recovered().torn_tail);
    ASSERT_EQ(store.recovered().replay,
              RequestSequence(requests.begin(), requests.begin() + 3));
    for (size_t i = 3; i < requests.size(); ++i) {
      ASSERT_TRUE(store.Append(requests[i]).ok());
      segment += FormatJournalRecord(i, requests[i]);
    }
  }
  core::Result<std::string> text = core::ReadFileToString(dir + "/seg-0.log");
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(text.value(), segment) << "appends to an unpadded segment changed its format";

  core::Result<DurableStore> reopened =
      DurableStore::Open(dir, *program->input_vocabulary(), 8, {});
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_EQ(reopened.value().recovered().replay, requests);
  RemoveTree(dir);
}

TEST(DurableStoreTest, NonDurableModeSkipsPerAppendFsync) {
  const std::string dir = TempDirFor("store_nofsync");
  RemoveTree(dir);
  DurableStoreOptions options;
  options.fsync_each_append = false;
  core::Result<DurableStore> created =
      DurableStore::Create(dir, "reach_u", 8, "full@0", 0, options);
  ASSERT_TRUE(created.ok());
  DurableStore store = std::move(created).value();
  const RequestSequence requests = ReachWorkload(8, 5, 6);
  for (const Request& request : requests) {
    ASSERT_TRUE(store.Append(request).ok());
  }
  EXPECT_EQ(store.counters().appends, requests.size());
  EXPECT_EQ(store.counters().fsyncs, 0u);
  RemoveTree(dir);
}

// ---------------------------------------------------------------------------
// Hostile bytes: manifest and segment formats (satellite: serialize-fuzz
// extended to the durability formats)
// ---------------------------------------------------------------------------

Manifest SampleManifest() {
  Manifest manifest;
  manifest.program = "reach_u";
  manifest.universe = 8;
  manifest.full_file = "full-4.snap";
  manifest.full_steps = 4;
  manifest.delta_file = "delta-8.ckpt";
  manifest.delta_base = 4;
  manifest.delta_steps = 8;
  manifest.segments.push_back({"seg-8.log", 8});
  manifest.segments.push_back({"seg-12.log", 12});
  return manifest;
}

TEST(DurabilityFuzzTest, ManifestRejectsEverySingleByteCorruption) {
  const std::string clean = FormatManifest(SampleManifest());
  ASSERT_TRUE(ParseManifest(clean).ok());
  for (size_t i = 0; i < clean.size(); ++i) {
    for (unsigned char mask : {0x01, 0x10, 0x80, 0xff}) {
      std::string mutated = clean;
      mutated[i] = static_cast<char>(mutated[i] ^ mask);
      EXPECT_FALSE(ParseManifest(mutated).ok())
          << "byte " << i << " ^ 0x" << std::hex << static_cast<int>(mask)
          << " was silently accepted";
    }
  }
}

TEST(DurabilityFuzzTest, ManifestRejectsEveryTruncation) {
  const std::string clean = FormatManifest(SampleManifest());
  for (size_t cut = 0; cut < clean.size(); ++cut) {
    EXPECT_FALSE(ParseManifest(clean.substr(0, cut)).ok())
        << "truncation at " << cut << " accepted";
  }
}

TEST(DurabilityFuzzTest, ManifestRejectsStructuralDamage) {
  // Checksum-clean but semantically inconsistent manifests must still fail:
  // the parser validates the chain, not just the container.
  Manifest bad_chain = SampleManifest();
  bad_chain.delta_base = 3;  // delta not based on the full snapshot
  EXPECT_FALSE(ParseManifest(FormatManifest(bad_chain)).ok());

  Manifest bad_first = SampleManifest();
  bad_first.segments[0].first = 9;  // gap between checkpoint and first segment
  EXPECT_FALSE(ParseManifest(FormatManifest(bad_first)).ok());

  Manifest bad_order = SampleManifest();
  std::swap(bad_order.segments[0], bad_order.segments[1]);  // descending chain
  EXPECT_FALSE(ParseManifest(FormatManifest(bad_order)).ok());

  Manifest traversal = SampleManifest();
  traversal.full_file = "../full-4.snap";  // escape the store directory
  EXPECT_FALSE(ParseManifest(FormatManifest(traversal)).ok());
}

/// The segment contract under mutation: any accepted parse is a clean
/// PREFIX of the original records — interior damage is an error, and only
/// the final record may be dropped (torn tail). Altered or reordered
/// records are never silently replayed.
TEST(DurabilityFuzzTest, SegmentMutationsNeverYieldAlteredRecords) {
  auto vocab = programs::ReachUInputVocabulary();
  const RequestSequence requests = ReachWorkload(8, 13, 4);
  const uint64_t first = 5;
  std::string clean = SegmentHeader(first);
  for (size_t i = 0; i < requests.size(); ++i) {
    clean += FormatJournalRecord(first + i, requests[i]);
  }
  core::Result<SegmentParse> base = ParseSegment(clean, *vocab, 8, first);
  ASSERT_TRUE(base.ok()) << base.status().message();
  ASSERT_EQ(base.value().requests.size(), requests.size());

  for (size_t i = 0; i < clean.size(); ++i) {
    for (unsigned char mask : {0x01, 0x10, 0x80, 0xff}) {
      std::string mutated = clean;
      mutated[i] = static_cast<char>(mutated[i] ^ mask);
      core::Result<SegmentParse> parsed = ParseSegment(mutated, *vocab, 8, first);
      if (!parsed.ok()) continue;
      const RequestSequence& got = parsed.value().requests;
      ASSERT_LE(got.size(), requests.size())
          << "byte " << i << ": mutation conjured extra records";
      ASSERT_LT(got.size(), requests.size())
          << "byte " << i << " ^ 0x" << std::hex << static_cast<int>(mask)
          << ": a mutated segment parsed to the full record set";
      EXPECT_TRUE(parsed.value().torn_tail)
          << "byte " << i << ": records were dropped without torn_tail";
      for (size_t j = 0; j < got.size(); ++j) {
        EXPECT_EQ(got[j], requests[j])
            << "byte " << i << ": accepted record " << j << " was altered";
      }
    }
  }
}

TEST(DurabilityFuzzTest, SegmentTruncationsOnlyLoseTheTail) {
  auto vocab = programs::ReachUInputVocabulary();
  const RequestSequence requests = ReachWorkload(8, 17, 4);
  std::string clean = SegmentHeader(0);
  for (size_t i = 0; i < requests.size(); ++i) {
    clean += FormatJournalRecord(i, requests[i]);
  }
  for (size_t cut = 0; cut < clean.size(); ++cut) {
    core::Result<SegmentParse> parsed =
        ParseSegment(clean.substr(0, cut), *vocab, 8, 0);
    if (!parsed.ok()) continue;
    const RequestSequence& got = parsed.value().requests;
    ASSERT_LE(got.size(), requests.size());
    for (size_t j = 0; j < got.size(); ++j) {
      EXPECT_EQ(got[j], requests[j]) << "cut " << cut << " altered record " << j;
    }
    // Anything short of the full byte count lost records or tore the tail.
    EXPECT_TRUE(got.size() < requests.size() || cut == clean.size());
  }
}

/// A pre-sized segment: header, `count` records, then NUL padding. Sets
/// *records_end to the byte length of header + records.
std::string PaddedSegment(const RequestSequence& requests, uint64_t first,
                          size_t padding, size_t* records_end) {
  std::string text = SegmentHeader(first);
  for (size_t i = 0; i < requests.size(); ++i) {
    text += FormatJournalRecord(first + i, requests[i]);
  }
  *records_end = text.size();
  text.resize(text.size() + padding, '\0');
  return text;
}

/// The padded-segment contract under mutation, with mutations to 0x00 as
/// well as the XOR masks: any accepted parse is an unaltered PREFIX of the
/// records; damage to a record drops it and everything after it (torn
/// tail) or fails; damage inside the padding loses no record.
TEST(DurabilityFuzzTest, PaddedSegmentMutationsNeverYieldAlteredRecords) {
  auto vocab = programs::ReachUInputVocabulary();
  const RequestSequence requests = ReachWorkload(8, 59, 4);
  const uint64_t first = 5;
  size_t records_end = 0;
  const std::string clean = PaddedSegment(requests, first, 192, &records_end);
  core::Result<SegmentParse> base = ParseSegment(clean, *vocab, 8, first);
  ASSERT_TRUE(base.ok()) << base.status().message();
  ASSERT_EQ(base.value().requests, requests);
  EXPECT_FALSE(base.value().torn_tail);
  EXPECT_EQ(base.value().valid_bytes, records_end);

  for (size_t i = 0; i < clean.size(); ++i) {
    for (int mask : {0x01, 0x10, 0x80, 0xff, -1 /* set to 0x00 */}) {
      std::string mutated = clean;
      mutated[i] = mask < 0 ? '\0' : static_cast<char>(mutated[i] ^ mask);
      if (mutated == clean) continue;
      const std::string where = "byte " + std::to_string(i) + " mask " +
                                std::to_string(mask);
      core::Result<SegmentParse> parsed = ParseSegment(mutated, *vocab, 8, first);
      if (!parsed.ok()) {
        ASSERT_LT(i, records_end) << where << ": padding damage failed the parse";
        continue;
      }
      const RequestSequence& got = parsed.value().requests;
      ASSERT_LE(got.size(), requests.size()) << where;
      for (size_t j = 0; j < got.size(); ++j) {
        ASSERT_EQ(got[j], requests[j]) << where << ": record " << j << " altered";
      }
      EXPECT_TRUE(parsed.value().torn_tail) << where << ": damage went unreported";
      if (i < records_end) {
        ASSERT_LT(got.size(), requests.size())
            << where << ": a damaged record was accepted";
      } else {
        ASSERT_EQ(got.size(), requests.size())
            << where << ": damage inside the padding lost a record";
      }
    }
  }
}

TEST(DurabilityFuzzTest, PaddedSegmentTruncationsOnlyLoseTheTail) {
  auto vocab = programs::ReachUInputVocabulary();
  const RequestSequence requests = ReachWorkload(8, 61, 4);
  size_t records_end = 0;
  const std::string clean = PaddedSegment(requests, 0, 192, &records_end);
  for (size_t cut = 0; cut <= clean.size(); ++cut) {
    core::Result<SegmentParse> parsed =
        ParseSegment(clean.substr(0, cut), *vocab, 8, 0);
    if (!parsed.ok()) continue;
    const RequestSequence& got = parsed.value().requests;
    ASSERT_LE(got.size(), requests.size());
    for (size_t j = 0; j < got.size(); ++j) {
      EXPECT_EQ(got[j], requests[j]) << "cut " << cut << " altered record " << j;
    }
    if (cut < records_end) {
      EXPECT_LT(got.size(), requests.size()) << "cut " << cut;
    } else {
      // Cutting padding loses nothing and is no tear.
      EXPECT_EQ(got.size(), requests.size()) << "cut " << cut;
      EXPECT_FALSE(parsed.value().torn_tail) << "cut " << cut;
    }
  }
}

TEST(DurabilityFuzzTest, PaddedSegmentRecordZeroedMidHistoryIsCorruption) {
  auto vocab = programs::ReachUInputVocabulary();
  const RequestSequence requests = ReachWorkload(8, 67, 4);
  size_t records_end = 0;
  const std::string clean = PaddedSegment(requests, 0, 128, &records_end);
  size_t begin = SegmentHeader(0).size();
  for (size_t i = 0; i + 1 < requests.size(); ++i) {
    const size_t length = FormatJournalRecord(i, requests[i]).size();
    // The whole record, its first half, or its second half.
    for (auto [from, to] : {std::pair{size_t{0}, length},
                            std::pair{size_t{0}, length / 2},
                            std::pair{length / 2, length}}) {
      std::string zeroed = clean;
      std::fill(zeroed.begin() + static_cast<std::ptrdiff_t>(begin + from),
                zeroed.begin() + static_cast<std::ptrdiff_t>(begin + to), '\0');
      EXPECT_FALSE(ParseSegment(zeroed, *vocab, 8, 0).ok())
          << "record " << i << " bytes [" << from << ", " << to
          << ") zeroed in mid-history read as a clean end or torn tail";
    }
    begin += length;
  }
}

TEST(DurabilityFuzzTest, PaddedSegmentTornRecordIsTornTail) {
  auto vocab = programs::ReachUInputVocabulary();
  const RequestSequence requests = ReachWorkload(8, 71, 4);
  size_t records_end = 0;
  const std::string clean = PaddedSegment(requests, 0, 128, &records_end);
  const size_t last = FormatJournalRecord(3, requests[3]).size();
  const size_t start = records_end - last;
  // Which bytes of the final record are still padding: nothing orders the
  // sectors of an in-place write, so its prefix, its suffix (newline
  // included) or both ends can reach the disk without the rest.
  for (auto [from, to] : {std::pair{size_t{1}, last}, std::pair{last / 2, last},
                          std::pair{last - 1, last}, std::pair{size_t{0}, last / 2},
                          std::pair{size_t{0}, last - 1}, std::pair{size_t{3}, last - 3}}) {
    std::string torn = clean;
    std::fill(torn.begin() + static_cast<std::ptrdiff_t>(start + from),
              torn.begin() + static_cast<std::ptrdiff_t>(start + to), '\0');
    const std::string where =
        "zeroed [" + std::to_string(from) + ", " + std::to_string(to) + ")";
    core::Result<SegmentParse> parsed = ParseSegment(torn, *vocab, 8, 0);
    ASSERT_TRUE(parsed.ok()) << where << ": " << parsed.status().message();
    EXPECT_TRUE(parsed.value().torn_tail) << where;
    EXPECT_EQ(parsed.value().requests,
              RequestSequence(requests.begin(), requests.begin() + 3))
        << where;
    EXPECT_EQ(parsed.value().valid_bytes, start) << where;
  }
}

TEST(DurabilityFuzzTest, PaddedSegmentGarbageInPaddingIsTornTailWithoutLoss) {
  auto vocab = programs::ReachUInputVocabulary();
  const RequestSequence requests = ReachWorkload(8, 73, 4);
  size_t records_end = 0;
  const std::string clean = PaddedSegment(requests, 0, 128, &records_end);
  for (size_t at : {size_t{0}, size_t{9}, size_t{100}}) {
    std::string damaged = clean;
    damaged.replace(records_end + at, 5, "xq7#!");
    core::Result<SegmentParse> parsed = ParseSegment(damaged, *vocab, 8, 0);
    ASSERT_TRUE(parsed.ok()) << "at " << at << ": " << parsed.status().message();
    EXPECT_TRUE(parsed.value().torn_tail) << "at " << at;
    EXPECT_EQ(parsed.value().requests, requests) << "at " << at;
    EXPECT_EQ(parsed.value().valid_bytes, records_end);
  }
  // A line ending in a newline is still stray bytes unless its checksum
  // holds...
  std::string junk_line = clean;
  junk_line.replace(records_end + 9, 6, "junk\n!");
  core::Result<SegmentParse> parsed = ParseSegment(junk_line, *vocab, 8, 0);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_TRUE(parsed.value().torn_tail);
  EXPECT_EQ(parsed.value().requests, requests);
  // ...but a checksummed record after a NUL run is what a record zeroed in
  // mid-history followed by intact records looks like.
  const std::string record = FormatJournalRecord(4, requests[0]);
  std::string record_after_gap = clean;
  record_after_gap.replace(records_end + 9, record.size(), record);
  EXPECT_FALSE(ParseSegment(record_after_gap, *vocab, 8, 0).ok());
}

TEST(DurabilityFuzzTest, SegmentInteriorLineDamageIsCorruption) {
  auto vocab = programs::ReachUInputVocabulary();
  const RequestSequence requests = ReachWorkload(8, 19, 5);
  std::string clean = SegmentHeader(0);
  for (size_t i = 0; i < requests.size(); ++i) {
    clean += FormatJournalRecord(i, requests[i]);
  }
  core::FaultInjector faults(23);
  for (int trial = 0; trial < 40; ++trial) {
    std::string damaged = clean;
    const std::string what =
        trial % 2 == 0 ? faults.DropLine(&damaged) : faults.DuplicateLine(&damaged);
    if (what.empty()) continue;
    core::Result<SegmentParse> parsed = ParseSegment(damaged, *vocab, 8, 0);
    // An INTERIOR gap or repeat is unrecoverable corruption. Damage at the
    // very end (the final record dropped, or repeated as a tail that gets
    // torn off) may pass, but only ever as an unaltered prefix.
    if (parsed.ok()) {
      const RequestSequence& got = parsed.value().requests;
      ASSERT_LE(got.size(), requests.size()) << what;
      for (size_t j = 0; j < got.size(); ++j) {
        EXPECT_EQ(got[j], requests[j]) << what << ": record " << j << " altered";
      }
    }
  }
}

TEST(DurabilityFuzzTest, CorruptManifestFailsOpenNotSilentReplay) {
  const std::string dir = TempDirFor("fuzz_open");
  auto program = programs::MakeReachUProgram();
  const RequestSequence requests = ReachWorkload(8, 29, 3);
  core::FaultInjector faults(31);
  for (int trial = 0; trial < 24; ++trial) {
    RemoveTree(dir);
    {
      core::Result<DurableStore> created =
          DurableStore::Create(dir, "reach_u", 8, "full@0", 0, {});
      ASSERT_TRUE(created.ok());
      DurableStore store = std::move(created).value();
      for (const Request& request : requests) {
        ASSERT_TRUE(store.Append(request).ok());
      }
    }
    core::Result<std::string> manifest =
        core::ReadFileToString(dir + "/MANIFEST");
    ASSERT_TRUE(manifest.ok());
    std::string damaged = manifest.value();
    if (trial % 2 == 0) {
      faults.FlipByte(&damaged);
    } else {
      faults.TruncateTail(&damaged);
    }
    ASSERT_TRUE(core::AtomicWriteFile(dir + "/MANIFEST", damaged).ok());
    core::Result<DurableStore> opened =
        DurableStore::Open(dir, *program->input_vocabulary(), 8, {});
    ASSERT_FALSE(opened.ok()) << "trial " << trial
                              << ": damaged manifest opened cleanly";
    EXPECT_EQ(opened.status().code(), core::StatusCode::kCorruption);
  }
  RemoveTree(dir);
}

// ---------------------------------------------------------------------------
// GuardedEngine::AttachDurability / Compact
// ---------------------------------------------------------------------------

GuardedEngineOptions PlainOptions() {
  GuardedEngineOptions options;
  options.check_every = 0;
  return options;
}

TEST(AttachDurabilityTest, ReviveIsBitIdenticalWithBoundedReplay) {
  const std::string dir = TempDirFor("attach_rt");
  RemoveTree(dir);
  auto program = programs::MakeReachUProgram();
  const RequestSequence requests = ReachWorkload(8, 41, 30);
  DurabilityOptions durability;
  durability.store.records_per_segment = 8;
  durability.store.full_snapshot_every = 2;

  GuardedEngine first(program, 8, programs::ReachUOracle,
                      programs::ReachUInvariant, PlainOptions());
  ASSERT_TRUE(first.AttachDurability(dir, durability).ok());
  for (const Request& request : requests) {
    ASSERT_TRUE(first.Apply(request).ok());
  }
  ASSERT_GT(first.recovery_stats().checkpoints_written +
                first.recovery_stats().full_snapshots_written,
            0u);

  GuardedEngine second(program, 8, programs::ReachUOracle,
                       programs::ReachUInvariant, PlainOptions());
  ASSERT_TRUE(second.AttachDurability(dir, durability).ok());
  EXPECT_EQ(second.engine().data(), first.engine().data());
  EXPECT_EQ(relational::WriteStructure(second.engine().data()),
            relational::WriteStructure(first.engine().data()));
  EXPECT_EQ(second.input(), first.input());
  EXPECT_EQ(second.engine().stats().requests, requests.size());
  EXPECT_LE(second.recovery_stats().replayed_on_recovery,
            durability.store.records_per_segment);
  EXPECT_TRUE(second.CheckNow().ok());

  // The revived session keeps going: appends, checkpoints, revives again.
  const RequestSequence more = ReachWorkload(8, 43, 12);
  for (const Request& request : more) {
    ASSERT_TRUE(second.Apply(request).ok());
  }
  GuardedEngine third(program, 8, programs::ReachUOracle,
                      programs::ReachUInvariant, PlainOptions());
  ASSERT_TRUE(third.AttachDurability(dir, durability).ok());
  EXPECT_EQ(third.engine().data(), second.engine().data());
  EXPECT_EQ(third.engine().stats().requests, requests.size() + more.size());
  RemoveTree(dir);
}

TEST(AttachDurabilityTest, CompactConsolidatesToOneFullSnapshot) {
  const std::string dir = TempDirFor("attach_compact");
  RemoveTree(dir);
  auto program = programs::MakeReachUProgram();
  const RequestSequence requests = ReachWorkload(8, 47, 20);
  DurabilityOptions durability;
  durability.store.records_per_segment = 4;
  durability.store.full_snapshot_every = 100;  // deltas only, until Compact

  GuardedEngine guarded(program, 8, nullptr, nullptr, PlainOptions());
  ASSERT_TRUE(guarded.AttachDurability(dir, durability).ok());
  for (const Request& request : requests) {
    ASSERT_TRUE(guarded.Apply(request).ok());
  }
  ASSERT_GT(guarded.recovery_stats().checkpoints_written, 0u);

  ASSERT_TRUE(guarded.Compact().ok());
  const DurableStore* store = guarded.durable_store();
  ASSERT_NE(store, nullptr);
  EXPECT_TRUE(store->manifest().delta_file.empty());
  EXPECT_EQ(store->manifest().segments.size(), 1u);
  EXPECT_EQ(store->manifest().full_steps, requests.size());
  // Directory = MANIFEST + full snapshot + one (empty) active segment.
  core::Result<std::vector<std::string>> names = core::ListDir(dir);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names.value().size(), 3u);

  // A post-compact revival replays nothing.
  GuardedEngine revived(program, 8, nullptr, nullptr, PlainOptions());
  ASSERT_TRUE(revived.AttachDurability(dir, durability).ok());
  EXPECT_EQ(revived.engine().data(), guarded.engine().data());
  EXPECT_EQ(revived.recovery_stats().replayed_on_recovery, 0u);
  RemoveTree(dir);
}

TEST(AttachDurabilityTest, GuardsRejectMisuse) {
  const std::string dir = TempDirFor("attach_guard");
  RemoveTree(dir);
  auto program = programs::MakeReachUProgram();

  // Durability must be attached to a FRESH wrapper.
  GuardedEngine used(program, 8, nullptr, nullptr, PlainOptions());
  ASSERT_TRUE(used.Apply(Request::Insert("E", {0, 1})).ok());
  EXPECT_FALSE(used.AttachDurability(dir).ok());

  // The legacy journal and the durable store are mutually exclusive.
  GuardedEngine fresh(program, 8, nullptr, nullptr, PlainOptions());
  ASSERT_TRUE(fresh.AttachDurability(dir).ok());
  EXPECT_FALSE(fresh.AttachJournal(TempDirFor("attach_guard_journal")).ok());
  EXPECT_FALSE(fresh.AttachDurability(dir).ok());  // double attach

  // A store created by one program cannot revive another.
  GuardedEngine parity(programs::MakeParityProgram(), 8, nullptr, nullptr,
                       PlainOptions());
  core::Status mismatch = parity.AttachDurability(dir);
  ASSERT_FALSE(mismatch.ok());
  EXPECT_NE(mismatch.message().find("reach_u"), std::string::npos);
  RemoveTree(dir);
}

}  // namespace
}  // namespace dynfo::dyn
