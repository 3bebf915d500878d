/// \file service_concurrency_test.cc
/// Race coverage for the service read/write paths, aimed at TSan: readers
/// pin SnapshotView versions while writers commit, Restore() replaces the
/// state, and ReloadProgram() recompiles. The assertions are weak on
/// purpose — the point is that every interleaving TSan can provoke is
/// data-race-free and every pinned version stays immutable. The index
/// contract tests at the end also check that reads of a published REACH_u
/// version build no index, racing or not.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "dynfo/service.h"
#include "dynfo/workload.h"
#include "programs/parity.h"
#include "programs/reach_u.h"
#include "relational/request.h"

namespace dynfo {
namespace {

using dyn::EngineService;
using relational::Request;

constexpr size_t kUniverse = 16;
constexpr int kReaders = 4;

dyn::ServiceOptions ConcurrencyOptions() {
  dyn::ServiceOptions options;
  options.engine.check_every = 0;
  options.record_applied_history = true;
  return options;
}

/// Pins, queries, and re-checks that the pinned version did not move under
/// the reader's feet while writes raced.
void ReadUntil(EngineService* service, const std::atomic<bool>* stop,
               std::atomic<uint64_t>* reads) {
  while (!stop->load(std::memory_order_acquire)) {
    EngineService::ReadPin pin = service->PinVersion();
    const bool first = service->QueryBool(pin);
    const size_t m_size = pin.data().relation("M").size();
    std::this_thread::yield();
    ASSERT_EQ(service->QueryBool(pin), first);
    ASSERT_EQ(pin.data().relation("M").size(), m_size);
    // Parity invariant ties the answer to the pinned data, not live state.
    ASSERT_EQ(first, m_size % 2 == 1);
    reads->fetch_add(1, std::memory_order_relaxed);
  }
}

/// Lets every reader finish at least one full pin/query cycle after the
/// writers are done, so the counters below are deterministic.
void AwaitReads(const std::atomic<uint64_t>* reads) {
  while (reads->load(std::memory_order_acquire) < kReaders) {
    std::this_thread::yield();
  }
}

TEST(ServiceConcurrencyTest, ReadersRaceWriters) {
  EngineService service(programs::MakeParityProgram(), kUniverse,
                        ConcurrencyOptions());
  core::Result<EngineService::SessionId> session = service.OpenSession();
  ASSERT_TRUE(session.ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back(ReadUntil, &service, &stop, &reads);
  }

  for (int round = 0; round < 200; ++round) {
    const relational::Element x =
        static_cast<relational::Element>(round % kUniverse);
    ASSERT_TRUE(service.Apply(session.value(), Request::Insert("M", {x})).ok());
    ASSERT_TRUE(service.Apply(session.value(), Request::Delete("M", {x})).ok());
  }
  AwaitReads(&reads);
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(service.stats().writes_applied, 400u);
  EXPECT_EQ(service.PinVersion().version(), 400u);
}

TEST(ServiceConcurrencyTest, ReadersRaceBatchWriters) {
  EngineService service(programs::MakeParityProgram(), kUniverse,
                        ConcurrencyOptions());
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back(ReadUntil, &service, &stop, &reads);
  }

  // Two writer sessions contend for the admission queue while batches
  // group-commit; every batch publishes exactly one new version.
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&service, w] {
      core::Result<EngineService::SessionId> session = service.OpenSession();
      ASSERT_TRUE(session.ok());
      for (int round = 0; round < 50; ++round) {
        const relational::Element x =
            static_cast<relational::Element>((w * 7 + round) % kUniverse);
        std::vector<Request> batch = {
            Request::Insert("M", {x}),
            Request::Insert("M", {static_cast<relational::Element>(
                                     (x + 1) % kUniverse)}),
            Request::Delete("M", {x}),
            Request::Delete("M", {static_cast<relational::Element>(
                                     (x + 1) % kUniverse)})};
        dyn::BatchReport report;
        ASSERT_TRUE(service.ApplyBatch(session.value(), batch, &report).ok());
        ASSERT_EQ(report.applied, 4u);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  AwaitReads(&reads);
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(service.stats().writes_applied, 400u);
  EXPECT_EQ(service.applied_history().size(), 400u);
}

TEST(ServiceConcurrencyTest, ReadersRaceRestore) {
  EngineService service(programs::MakeParityProgram(), kUniverse,
                        ConcurrencyOptions());
  core::Result<EngineService::SessionId> session = service.OpenSession();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(service.Apply(session.value(), Request::Insert("M", {1})).ok());
  const std::string odd = service.Snapshot();
  ASSERT_TRUE(service.Apply(session.value(), Request::Insert("M", {2})).ok());
  const std::string even = service.Snapshot();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back(ReadUntil, &service, &stop, &reads);
  }

  for (int round = 0; round < 50; ++round) {
    ASSERT_TRUE(service.Restore(round % 2 == 0 ? odd : even).ok());
  }
  AwaitReads(&reads);
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_GT(reads.load(), 0u);
  // Ended on an even round count -> last restore used `even` (2 elements).
  EXPECT_FALSE(service.ReadQueryBool());
}

TEST(ServiceConcurrencyTest, ReadersRaceReloadProgram) {
  std::shared_ptr<const dyn::DynProgram> program =
      programs::MakeParityProgram();
  EngineService service(program, kUniverse, ConcurrencyOptions());
  core::Result<EngineService::SessionId> session = service.OpenSession();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(service.Apply(session.value(), Request::Insert("M", {1})).ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back(ReadUntil, &service, &stop, &reads);
  }

  for (int round = 0; round < 25; ++round) {
    ASSERT_TRUE(service.ReloadProgram(program).ok());
    ASSERT_TRUE(
        service.Apply(session.value(), Request::Insert("M", {2})).ok());
    ASSERT_TRUE(
        service.Apply(session.value(), Request::Delete("M", {2})).ok());
  }
  AwaitReads(&reads);
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_GT(reads.load(), 0u);
  EXPECT_TRUE(service.ReadQueryBool());
}

TEST(ServiceConcurrencyTest, PinsRaceReclamation) {
  // Short-lived pins churn against eager reclamation: every release may
  // free a version while another thread is pinning the newest.
  dyn::ServiceOptions options = ConcurrencyOptions();
  options.max_retained_versions = 2;
  EngineService service(programs::MakeParityProgram(), kUniverse, options);
  core::Result<EngineService::SessionId> session = service.OpenSession();
  ASSERT_TRUE(session.ok());

  std::atomic<bool> stop{false};
  std::vector<std::thread> pinners;
  for (int i = 0; i < kReaders; ++i) {
    pinners.emplace_back([&service, &stop] {
      while (!stop.load(std::memory_order_acquire)) {
        EngineService::ReadPin outer = service.PinVersion();
        {
          EngineService::ReadPin inner = service.PinVersion();
          ASSERT_GE(inner.version(), outer.version());
        }
        ASSERT_LE(outer.data().relation("M").size(), kUniverse);
      }
    });
  }
  for (int round = 0; round < 300; ++round) {
    const relational::Element x =
        static_cast<relational::Element>(round % kUniverse);
    ASSERT_TRUE(service.Apply(session.value(), Request::Insert("M", {x})).ok());
    ASSERT_TRUE(service.Apply(session.value(), Request::Delete("M", {x})).ok());
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : pinners) t.join();

  EXPECT_EQ(service.retained_versions(), 1u);
  EXPECT_GT(service.stats().snapshots_reclaimed, 0u);
}

// The index contract (DESIGN.md §9): plans index only proper, non-empty key
// subsets of an atom. REACH_u's query P(s,t) = s = t | PV(s,t,s) pins every
// position of PV, so it probes the tuple store, and a published version —
// whose copy-on-write relations carry no indexes — answers it without
// building one.

constexpr size_t kReachUniverse = 12;

relational::RequestSequence ReachUWrites(uint64_t seed) {
  dyn::GraphWorkloadOptions options;
  options.num_requests = 240;
  options.insert_fraction = 0.55;
  options.set_fraction = 0.05;
  options.undirected = true;
  options.seed = seed;
  return dyn::MakeGraphWorkload(*programs::ReachUInputVocabulary(), "E",
                                kReachUniverse, options);
}

/// Every relation of the pinned version is index-free after a query.
void ExpectIndexFree(const EngineService& service,
                     const EngineService::ReadPin& pin) {
  service.QueryBool(pin);
  const relational::Structure& data = pin.data();
  for (int r = 0; r < data.vocabulary().num_relations(); ++r) {
    ASSERT_EQ(data.relation(r).num_indexes(), 0u)
        << data.vocabulary().relation(r).name << " at version "
        << pin.version();
  }
}

/// Every index the writer maintains on PV and E has a proper, non-empty key.
void ExpectProperIndexKeys(const dyn::Engine& engine) {
  for (const char* name : {"PV", "E"}) {
    const relational::Relation& relation = engine.data().relation(name);
    for (const std::vector<int>& key : relation.IndexKeys()) {
      EXPECT_FALSE(key.empty()) << name << " has an empty-key index";
      EXPECT_LT(static_cast<int>(key.size()), relation.arity())
          << name << " has a full-key index";
    }
  }
  EXPECT_FALSE(engine.data().relation("PV").IndexKeys().empty())
      << "no PV index was registered; the key check above saw nothing";
}

TEST(ServiceIndexContractTest, ReachUReadsBuildNoIndexes) {
  EngineService service(programs::MakeReachUProgram(), kReachUniverse,
                        ConcurrencyOptions());
  core::Result<EngineService::SessionId> session = service.OpenSession();
  ASSERT_TRUE(session.ok());
  for (const Request& request : ReachUWrites(16)) {
    ASSERT_TRUE(service.Apply(session.value(), request).ok());
    ExpectIndexFree(service, service.PinVersion());
  }
  ExpectProperIndexKeys(service.engine_for_test());
}

TEST(ServiceIndexContractTest, ReachUReadsRacingWritesBuildNoIndexes) {
  EngineService service(programs::MakeReachUProgram(), kReachUniverse,
                        ConcurrencyOptions());
  core::Result<EngineService::SessionId> session = service.OpenSession();
  ASSERT_TRUE(session.ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      ExpectIndexFree(service, service.PinVersion());
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (const Request& request : ReachUWrites(17)) {
    ASSERT_TRUE(service.Apply(session.value(), request).ok());
  }
  while (reads.load(std::memory_order_acquire) == 0) std::this_thread::yield();
  stop.store(true, std::memory_order_release);
  reader.join();

  ExpectProperIndexKeys(service.engine_for_test());
}

}  // namespace
}  // namespace dynfo
