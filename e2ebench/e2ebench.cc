/// \file e2ebench.cc
/// End-to-end served benchmark with a layer-peel trace.
///
/// Usage:
///   e2ebench --workload W --seed N --seconds S --trace 0|1 [--work-dir D]
///
/// Workloads (closed loops: every load thread waits for its reply):
///   parity_serve    parity, n=1024, dense backend. An in-process
///                   ServiceServer on a unix socket; 2 writer connections
///                   toggling disjoint halves of M, 1 reader sending `query`.
///   reach_u_serve   reach_u (Theorem 4.1), n=32, same server setup; 1
///                   writer replaying undirected edge churn with 2% `set
///                   s`/`set t`, 1 reader sending `query` until it stops.
///   parity_durable  parity, n=1024; one thread drives GuardedEngine::Apply
///                   on a DurableStore (store defaults: fsync per append, 64
///                   records per segment, a full snapshot every 4th
///                   checkpoint), each acknowledged write followed by a
///                   burst of `query` reads.
///
/// With --trace 0 the benchmark measures the closed loop for S seconds and
/// reports end-to-end median latency, set-up time and resident set. With
/// --trace 1 it runs the closed loop for a quarter of the time (for the
/// counters only concurrency produces, the p99s, the rates and the failure
/// ratio) and then replays a fixed seeded request stream, one request at a
/// time, through each layer's public entry point on a fresh instance:
///
///   wire::Client::Call > ServiceServer::Dispatch > EngineService
///     > GuardedEngine (+DurableStore) > GuardedEngine > Engine
///
/// A layer's self time is its span minus the next inner span for the same
/// request, so the parts add up to the outermost span. Every run checks
/// its answers against the static oracles and exits 1 if any check fails.
/// The last line of standard output is one JSON object:
///   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

#include <fcntl.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "dynfo/engine.h"
#include "dynfo/recovery.h"
#include "dynfo/service.h"
#include "dynfo/wire.h"
#include "programs/parity.h"
#include "programs/reach_u.h"
#include "relational/request.h"
#include "relational/structure.h"

namespace {

using Clock = std::chrono::steady_clock;
using dynfo::dyn::EngineService;
using dynfo::dyn::GuardedEngine;
using dynfo::dyn::ServiceServer;
using dynfo::relational::Request;
using dynfo::relational::RequestKind;
using dynfo::relational::Structure;

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}
double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Set-up is timed over and over for this share of the load time, half
/// before the load and half after it, and at least kSetupRepeats times in
/// each half; the median of all is reported. The host's speed drifts from
/// one second to the next, so set-ups spread over the run give a steadier
/// median than a burst of them.
constexpr double kSetupShare = 0.1;
constexpr size_t kSetupRepeats = 51;
/// Load runs this long before the timed window opens.
constexpr double kWarmupSeconds = 0.5;
/// The timed window is cut into this many equal slices; each end-to-end
/// figure is the median of its per-slice values, so a burst of outside
/// interference moves a few slices, not the result.
constexpr int kSlices = 40;

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  std::string name;
  bool reach_u = false;  ///< reach_u program (else parity)
  size_t universe = 0;
  bool served = false;   ///< through the socket server (else durable)
  int writers = 0;
  int readers = 0;
  /// Peel stream: rounds of (writes_per_round writes, 2 reads).
  int peel_rounds = 0;
  int writes_per_round = 1;
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"parity_serve", false, 1024, true, 2, 1, 1024, 2},
      {"reach_u_serve", true, 32, true, 1, 1, 256, 1},
      {"parity_durable", false, 1024, false, 1, 0, 2048, 1},
  };
  return workloads;
}

std::shared_ptr<const dynfo::dyn::DynProgram> MakeProgram(const Workload& w) {
  return w.reach_u ? dynfo::programs::MakeReachUProgram()
                   : dynfo::programs::MakeParityProgram();
}

/// The dynfo_server / dynfo_cli defaults: --backend=auto, no cadence checks.
dynfo::dyn::GuardedEngineOptions GuardedOptions() {
  dynfo::dyn::GuardedEngineOptions options;
  options.engine_options.use_dense_relations = true;
  options.check_every = 0;
  return options;
}

dynfo::dyn::ServiceOptions ServerOptions() {
  dynfo::dyn::ServiceOptions options;
  options.engine = GuardedOptions();
  return options;
}

/// The input relations and constants mirrored in a data structure, as a
/// structure over the input vocabulary (what the static oracles read).
Structure InputOf(const Workload& w, const Structure& data) {
  if (!w.reach_u) {
    Structure input(dynfo::programs::ParityInputVocabulary(), w.universe);
    for (const auto& t : data.relation("M")) input.relation("M").Insert(t);
    return input;
  }
  Structure input(dynfo::programs::ReachUInputVocabulary(), w.universe);
  for (const auto& t : data.relation("E")) input.relation("E").Insert(t);
  input.set_constant("s", data.constant("s"));
  input.set_constant("t", data.constant("t"));
  return input;
}

bool Oracle(const Workload& w, const Structure& input) {
  return w.reach_u ? dynfo::programs::ReachUOracle(input)
                   : dynfo::programs::ParityOracle(input);
}

std::string RequestLine(const Request& r) {
  std::string line = r.kind == RequestKind::kInsert   ? "ins "
                     : r.kind == RequestKind::kDelete ? "del "
                                                      : "set ";
  line += r.target;
  if (r.kind == RequestKind::kSetConstant) {
    line += " " + std::to_string(r.value);
  } else {
    for (int i = 0; i < r.tuple.size(); ++i) {
      line += " " + std::to_string(r.tuple[i]);
    }
  }
  return line;
}

/// One writer's seeded request stream. Next() proposes the request that
/// follows the acknowledged prefix; Applied() records that it was
/// acknowledged, so a failed write never desynchronizes the model.
///
/// parity: writer `index` of `count` owns the elements congruent to
/// `index` mod `count` and toggles a uniformly drawn one, so concurrent
/// writers commute and the final M is known whatever the interleaving.
///
/// reach_u: undirected edge churn (edges canonical u < v) whose edge count
/// reverts to kTargetEdges (inserts are drawn with probability 0.6 below
/// it and 0.4 at or above it), with 2% `set s` / `set t`.
class WriterStream {
 public:
  WriterStream(const Workload& w, uint64_t seed, int index, int count)
      : reach_u_(w.reach_u),
        n_(w.universe),
        index_(index),
        count_(count),
        rng_(seed * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL * (index + 1)),
        present_(reach_u_ ? n_ * n_ : n_, false) {}

  Request Next() {
    if (!reach_u_) {
      const size_t owned = n_ / count_;
      const auto e = static_cast<uint32_t>(index_ + count_ * rng_.Below(owned));
      return present_[e] ? Request::Delete("M", {e}) : Request::Insert("M", {e});
    }
    if (rng_.Chance(2, 100)) {
      return Request::SetConstant(rng_.Chance(1, 2) ? "s" : "t",
                                  static_cast<uint32_t>(rng_.Below(n_)));
    }
    const bool insert = rng_.Chance(edges_.size() < kTargetEdges ? 60 : 40, 100);
    if (!insert && !edges_.empty()) {
      const auto [u, v] = edges_[rng_.Below(edges_.size())];
      return Request::Delete("E", {u, v});
    }
    while (true) {
      auto u = static_cast<uint32_t>(rng_.Below(n_));
      auto v = static_cast<uint32_t>(rng_.Below(n_));
      if (u == v) continue;
      if (u > v) std::swap(u, v);
      if (!present_[u * n_ + v]) return Request::Insert("E", {u, v});
    }
  }

  void Applied(const Request& r) {
    if (r.kind == RequestKind::kSetConstant) return;
    const size_t key = reach_u_ ? r.tuple[0] * n_ + r.tuple[1] : r.tuple[0];
    const bool insert = r.kind == RequestKind::kInsert;
    if (present_[key] == insert) return;
    present_[key] = insert;
    if (!reach_u_) return;
    const std::pair<uint32_t, uint32_t> edge{r.tuple[0], r.tuple[1]};
    if (insert) {
      edges_.push_back(edge);
    } else {
      auto it = std::find(edges_.begin(), edges_.end(), edge);
      *it = edges_.back();
      edges_.pop_back();
    }
  }

  /// parity: the elements this writer's acknowledged writes left in M.
  std::vector<uint32_t> Members() const {
    std::vector<uint32_t> out;
    for (size_t e = 0; e < present_.size(); ++e) {
      if (present_[e]) out.push_back(static_cast<uint32_t>(e));
    }
    return out;
  }

 private:
  static constexpr size_t kTargetEdges = 16;
  bool reach_u_;
  size_t n_;
  int index_;
  int count_;
  dynfo::core::Rng rng_;
  std::vector<bool> present_;
  std::vector<std::pair<uint32_t, uint32_t>> edges_;
};

// ---------------------------------------------------------------------------
// Failure reporting and statistics

struct Gate {
  bool ok = true;
  void Check(bool condition, const std::string& what) {
    if (!condition) {
      std::fprintf(stderr, "e2ebench: correctness check failed: %s\n",
                   what.c_str());
      ok = false;
    }
  }
};

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "e2ebench: %s\n", what.c_str());
  std::exit(1);
}

/// Nearest-rank percentile of `values` (sorted in place).
double Percentile(std::vector<double>* values, double q) {
  if (values->empty()) return 0;
  std::sort(values->begin(), values->end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(values->size()));
  return (*values)[std::min(rank, values->size() - 1)];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// A /proc/self/status memory field ("VmRSS", "VmHWM") in MB.
double StatusMb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::stod(line.substr(field.size() + 1)) / 1024.0;
    }
  }
  return 0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// ---------------------------------------------------------------------------
// Systems under test

/// A service behind a started socket server at a relative unix path.
struct Served {
  std::unique_ptr<EngineService> service;
  std::unique_ptr<ServiceServer> server;
  dynfo::dyn::wire::Address address;
  ~Served() {
    if (server) server->Stop();
  }
};

std::unique_ptr<Served> StartServed(const Workload& w, const std::string& path) {
  auto s = std::make_unique<Served>();
  std::string error;
  if (!dynfo::dyn::wire::ParseAddress("unix:" + path, &s->address, &error)) {
    Die(error);
  }
  s->service = std::make_unique<EngineService>(MakeProgram(w), w.universe,
                                               ServerOptions());
  s->server = std::make_unique<ServiceServer>(s->service.get(), s->address);
  dynfo::core::Status started = s->server->Start();
  if (!started.ok()) Die("server start: " + started.ToString());
  return s;
}

/// `query` through a client; false when the call fails.
bool CallQuery(dynfo::dyn::wire::Client* client, bool* answer,
               uint64_t* version) {
  dynfo::dyn::wire::Response response;
  if (!client->Call("query", &response).ok() || response.code != 0) {
    return false;
  }
  const bool t = response.body.rfind("true ", 0) == 0;
  const bool f = response.body.rfind("false ", 0) == 0;
  if (!t && !f) return false;
  *answer = t;
  const size_t at = response.body.find("v=");
  if (version != nullptr && at != std::string::npos) {
    *version = std::stoull(response.body.substr(at + 2));
  }
  return true;
}

/// A GuardedEngine on a new store in `dir`, which must not exist yet.
std::unique_ptr<GuardedEngine> StartDurable(const Workload& w,
                                            const std::string& dir) {
  auto guarded = std::make_unique<GuardedEngine>(MakeProgram(w), w.universe,
                                                 nullptr, nullptr,
                                                 GuardedOptions());
  dynfo::core::Status attached = guarded->AttachDurability(dir);
  if (!attached.ok()) Die("AttachDurability: " + attached.ToString());
  return guarded;
}

/// Times `make` (construct + first successful response) over and over for
/// `budget_s` seconds, and at least kSetupRepeats times, appending each
/// time to `seconds`. Each system is torn down, and `clean` run, outside
/// the timing.
///
/// The timed set-ups run confined to the CPU the caller is on, with every
/// thread they start: their thread hand-offs are then context switches on
/// one CPU, not cross-CPU wake-ups, whose latency on a virtual machine
/// follows the host's load and doubled a served set-up from one run to the
/// next. The system kept in `kept` for the load is made afterwards,
/// untimed and on every CPU.
template <typename System>
void TimedSetups(double budget_s, const std::function<System()>& make,
                 const std::function<void()>& clean, System* kept,
                 std::vector<double>* seconds) {
  cpu_set_t all, one;
  CPU_ZERO(&one);
  CPU_SET(::sched_getcpu(), &one);
  if (::sched_getaffinity(0, sizeof(all), &all) != 0 ||
      ::sched_setaffinity(0, sizeof(one), &one) != 0) {
    Die("cannot set the CPU affinity");
  }
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(budget_s));
  for (size_t i = 0; i < kSetupRepeats || Clock::now() < end; ++i) {
    *kept = System();
    clean();
    const auto t0 = Clock::now();
    *kept = make();
    seconds->push_back(Seconds(Clock::now() - t0));
  }
  *kept = System();
  if (::sched_setaffinity(0, sizeof(all), &all) != 0) {
    Die("cannot restore the CPU affinity");
  }
  clean();
  *kept = make();
}

// ---------------------------------------------------------------------------
// Closed loop

struct Window {
  Clock::time_point open, close;
  bool Timed(Clock::time_point t) const { return t >= open && t < close; }
  bool Over() const { return Clock::now() >= close; }
  int Slice(Clock::time_point t) const {
    const auto slice = static_cast<int>(kSlices * Seconds(t - open) /
                                        Seconds(close - open));
    return std::clamp(slice, 0, kSlices - 1);
  }
};

Window MakeWindow(double seconds) {
  const auto now = Clock::now();
  const auto warm = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kWarmupSeconds));
  const auto span = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
  return {now + warm, now + warm + span};
}

/// Latencies of one operation kind started inside the timed window, kept
/// as one log-bucketed histogram per window slice (buckets 1% wide), so the
/// benchmark's own memory stays the same whatever the throughput and does
/// not grow into the resident set it reports.
class Samples {
 public:
  Samples() : counts_(kSlices * kBuckets, 0), slice_count_(kSlices, 0) {}

  void Add(const Window& window, Clock::time_point start, Clock::time_point end) {
    if (!window.Timed(start)) return;
    const int slice = window.Slice(start);
    ++counts_[slice * kBuckets + Bucket(Micros(end - start))];
    ++slice_count_[slice];
  }

  void Absorb(const Samples& other) {
    for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
    for (int s = 0; s < kSlices; ++s) slice_count_[s] += other.slice_count_[s];
  }

  uint64_t count() const {
    uint64_t total = 0;
    for (uint64_t c : slice_count_) total += c;
    return total;
  }

  /// Median over slices of the q-th percentile latency.
  double Percentile(double q) const {
    std::vector<double> per_slice;
    for (int s = 0; s < kSlices; ++s) {
      if (slice_count_[s] > 0) per_slice.push_back(SlicePercentile(s, q));
    }
    return ::Percentile(&per_slice, 0.5);
  }

  /// Median over slices of completed operations per second.
  double Rate(double window_s) const {
    std::vector<double> per_slice;
    for (uint64_t c : slice_count_) {
      per_slice.push_back(static_cast<double>(c) * kSlices / window_s);
    }
    return ::Percentile(&per_slice, 0.5);
  }

 private:
  static constexpr double kMinUs = 0.001;
  static constexpr double kGrowth = 1.01;
  static constexpr int kBuckets = 2400;  ///< up to ~23 s

  static int Bucket(double us) {
    if (us <= kMinUs) return 0;
    const int b = static_cast<int>(std::log(us / kMinUs) / std::log(kGrowth));
    return std::min(b, kBuckets - 1);
  }

  /// Nearest-rank percentile of one slice, placed within its bucket by
  /// rank (geometric interpolation).
  double SlicePercentile(int slice, double q) const {
    const uint64_t n = slice_count_[slice];
    const auto rank = std::min(static_cast<uint64_t>(q * static_cast<double>(n)), n - 1);
    const uint32_t* counts = &counts_[slice * kBuckets];
    uint64_t below = 0;
    for (int b = 0; b < kBuckets; ++b) {
      if (below + counts[b] > rank) {
        const double within =
            (static_cast<double>(rank - below) + 0.5) / static_cast<double>(counts[b]);
        return kMinUs * std::pow(kGrowth, b + within);
      }
      below += counts[b];
    }
    return kMinUs * std::pow(kGrowth, kBuckets);
  }

  std::vector<uint32_t> counts_;       ///< [slice][bucket]
  std::vector<uint64_t> slice_count_;  ///< samples per slice
};

/// The resident set, sampled twice per slice of the timed window.
class RssSamples {
 public:
  RssSamples() : per_slice_(kSlices, 0) {}

  /// Samples when the next sample is due; cheap otherwise.
  void Poll(const Window& window) {
    const auto now = Clock::now();
    if (now < next_ || !window.Timed(now)) return;
    double& peak = per_slice_[window.Slice(now)];
    peak = std::max(peak, StatusMb("VmRSS"));
    next_ = now + Period(window);
  }

  static Clock::duration Period(const Window& window) {
    return (window.close - window.open) / (2 * kSlices);
  }

  /// Median over slices of the largest sample in each.
  double Mb() const {
    std::vector<double> sampled;
    for (double mb : per_slice_) {
      if (mb > 0) sampled.push_back(mb);
    }
    return Percentile(&sampled, 0.5);
  }

 private:
  std::vector<double> per_slice_;
  Clock::time_point next_{};
};

struct LoadResult {
  Samples writes, reads;  ///< timed window only
  RssSamples rss;
  double window_s = 0;
  uint64_t attempted = 0, failed = 0;
  dynfo::dyn::wire::Client::Counters client;  ///< summed over connections
  size_t retained_max = 0;
};

/// Per-thread tallies, merged after join.
struct ThreadTally {
  Samples samples;
  uint64_t attempted = 0, failed = 0;
  dynfo::dyn::wire::Client::Counters client;
  size_t retained_max = 0;
};

void Merge(ThreadTally& t, bool write, LoadResult* out) {
  (write ? out->writes : out->reads).Absorb(t.samples);
  out->attempted += t.attempted;
  out->failed += t.failed;
  out->client.calls += t.client.calls;
  out->client.resource_retries += t.client.resource_retries;
  out->client.transport_retries += t.client.transport_retries;
  out->client.reconnects += t.client.reconnects;
  out->retained_max = std::max(out->retained_max, t.retained_max);
}

/// Served closed loop: writer and reader connections against `sys`.
/// Returns each writer's stream (its acknowledged model) and, for a single
/// writer, the acknowledged requests in order.
LoadResult RunServedLoad(const Workload& w, uint64_t seed, double seconds,
                         Served* sys, std::vector<WriterStream>* streams,
                         std::vector<Request>* applied) {
  for (int i = 0; i < w.writers; ++i) streams->emplace_back(w, seed, i, w.writers);
  std::vector<ThreadTally> writer_tally(w.writers), reader_tally(w.readers);
  std::atomic<int> writers_left{w.writers};
  const Window window = MakeWindow(seconds);

  auto writer = [&](int i) {
    ThreadTally& tally = writer_tally[i];
    WriterStream& stream = (*streams)[i];
    dynfo::dyn::wire::Client client(sys->address);
    dynfo::dyn::wire::Response response;
    while (!window.Over()) {
      const Request r = stream.Next();
      const std::string line = RequestLine(r);
      const auto t0 = Clock::now();
      const bool ok = client.Call(line, &response).ok() &&
                      response.code == 0 && response.body == "ok";
      const auto t1 = Clock::now();
      ++tally.attempted;
      if (!ok) {
        ++tally.failed;
        continue;
      }
      stream.Applied(r);
      if (applied != nullptr) applied->push_back(r);
      tally.samples.Add(window, t0, t1);
    }
    tally.client = client.counters();
    writers_left.fetch_sub(1);
  };
  // parity_serve readers run for the window; reach_u_serve readers run
  // until the writer stops.
  auto reader = [&](int i) {
    ThreadTally& tally = reader_tally[i];
    dynfo::dyn::wire::Client client(sys->address);
    while (w.reach_u ? writers_left.load() > 0 : !window.Over()) {
      bool answer = false;
      const auto t0 = Clock::now();
      const bool ok = CallQuery(&client, &answer, nullptr);
      const auto t1 = Clock::now();
      ++tally.attempted;
      if (!ok) ++tally.failed;
      if (ok) tally.samples.Add(window, t0, t1);
      if ((tally.attempted & 63) == 0) {
        tally.retained_max =
            std::max(tally.retained_max, sys->service->retained_versions());
      }
    }
    tally.client = client.counters();
  };

  LoadResult out;
  out.window_s = seconds;
  std::vector<std::thread> threads;
  for (int i = 0; i < w.writers; ++i) threads.emplace_back(writer, i);
  for (int i = 0; i < w.readers; ++i) threads.emplace_back(reader, i);
  while (!window.Over()) {
    out.rss.Poll(window);
    std::this_thread::sleep_for(RssSamples::Period(window) / 4);
  }
  for (auto& t : threads) t.join();

  for (auto& t : writer_tally) Merge(t, true, &out);
  for (auto& t : reader_tally) Merge(t, false, &out);
  return out;
}

/// Reads per burst in the durable closed loop.
constexpr int kReadBurst = 16;

/// Durable closed loop: one thread, each acknowledged write followed by a
/// burst of kReadBurst `query` reads (GuardedEngine::QueryBool, as
/// dynfo_cli answers it) that must reflect every acknowledged write. A
/// read's latency is its burst's time over kReadBurst: a query is a ~15 ns
/// bit read, so a pair of clock reads (~30 ns) around each one would mostly
/// time the clock.
LoadResult RunDurableLoad(double seconds, GuardedEngine* guarded,
                          WriterStream* stream, Gate* gate) {
  LoadResult out;
  out.window_s = seconds;
  const Window window = MakeWindow(seconds);
  size_t ones = 0;
  bool read_mismatch = false;
  while (!window.Over()) {
    out.rss.Poll(window);
    const Request r = stream->Next();
    const auto t0 = Clock::now();
    const bool ok = guarded->Apply(r).ok();
    const auto t1 = Clock::now();
    ++out.attempted;
    if (!ok) {
      ++out.failed;
      continue;
    }
    stream->Applied(r);
    ones += r.kind == RequestKind::kInsert ? 1 : 0;
    ones -= r.kind == RequestKind::kDelete ? 1 : 0;
    const auto t2 = Clock::now();
    for (int k = 0; k < kReadBurst; ++k) {
      if (guarded->QueryBool() != (ones % 2 == 1)) read_mismatch = true;
    }
    const auto t3 = Clock::now();
    out.attempted += kReadBurst;
    out.writes.Add(window, t0, t1);
    out.reads.Add(window, t2, t2 + (t3 - t2) / kReadBurst);
  }
  gate->Check(!read_mismatch, "parity_durable: a read missed an acknowledged write");
  return out;
}

// ---------------------------------------------------------------------------
// Correctness gates after the closed loop

void CheckServed(const Workload& w, Served* sys,
                 const std::vector<WriterStream>& streams,
                 const std::vector<Request>& applied, Gate* gate) {
  dynfo::dyn::wire::Client client(sys->address);
  bool answer = false;
  uint64_t version = 0;
  gate->Check(CallQuery(&client, &answer, &version), "final query failed");
  EngineService::ReadPin pin = sys->service->PinVersion();
  gate->Check(pin.version() == version,
              "final query version " + std::to_string(version) +
                  " != pinned version " + std::to_string(pin.version()));
  const Structure input = InputOf(w, pin.data());
  gate->Check(answer == Oracle(w, input),
              w.name + ": final query answer disagrees with the static oracle");
  if (!w.reach_u) {
    std::vector<uint32_t> expected;
    for (const auto& s : streams) {
      for (uint32_t e : s.Members()) expected.push_back(e);
    }
    gate->Check(expected.size() == input.relation("M").size(),
                "parity_serve: pinned M size differs from the acknowledged writes");
    for (uint32_t e : expected) {
      if (!input.relation("M").Contains({e})) {
        gate->Check(false, "parity_serve: acknowledged insert missing from M");
        break;
      }
    }
    return;
  }
  dynfo::dyn::Engine fresh(MakeProgram(w), w.universe,
                           GuardedOptions().engine_options);
  for (const Request& r : applied) fresh.Apply(r);
  gate->Check(fresh.Snapshot() == sys->service->Snapshot(),
              "reach_u_serve: service snapshot differs from a fresh engine fed "
              "the writer's " + std::to_string(applied.size()) + " requests");
}

/// Closes the live store, reopens it in a fresh GuardedEngine and requires
/// a bit-identical state. Returns the reopen (AttachDurability) seconds.
double CheckRevival(const Workload& w, std::unique_ptr<GuardedEngine>* live,
                    const std::string& dir, Gate* gate) {
  const std::string expected = (*live)->engine().Snapshot();
  live->reset();
  GuardedEngine reopened(MakeProgram(w), w.universe, nullptr, nullptr,
                         GuardedOptions());
  const auto t0 = Clock::now();
  dynfo::core::Status attached = reopened.AttachDurability(dir);
  const double seconds = Seconds(Clock::now() - t0);
  gate->Check(attached.ok(), "reopen: " + attached.ToString());
  gate->Check(reopened.engine().Snapshot() == expected,
              w.name + ": reopened store is not bit-identical to the live engine");
  return seconds;
}

// ---------------------------------------------------------------------------
// Layer peel

struct PeelOp {
  bool write = false;
  bool first_read = false;  ///< first read since the last write
  Request request{};        ///< writes only
  std::string line;         ///< the wire form
};

/// Rounds of `writes_per_round` writes (round-robin over the workload's
/// writer streams) followed by two `query` reads. Each stream toggles with
/// its own model, so the whole sequence is a pure function of the seed.
std::vector<PeelOp> PeelStream(const Workload& w, uint64_t seed) {
  std::vector<WriterStream> streams;
  for (int i = 0; i < w.writers; ++i) streams.emplace_back(w, seed, i, w.writers);
  std::vector<PeelOp> ops;
  for (int round = 0; round < w.peel_rounds; ++round) {
    for (int k = 0; k < w.writes_per_round; ++k) {
      WriterStream& s = streams[k % streams.size()];
      PeelOp op;
      op.write = true;
      op.request = s.Next();
      op.line = RequestLine(op.request);
      s.Applied(op.request);
      ops.push_back(op);
    }
    for (bool first : {true, false}) {
      PeelOp read;
      read.first_read = first;
      read.line = "query";
      ops.push_back(read);
    }
  }
  return ops;
}

uint64_t StreamDigest(const std::vector<PeelOp>& ops) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a over the request lines
  for (const auto& op : ops) {
    for (char c : op.line) h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ULL;
    h = (h ^ '\n') * 1099511628211ULL;
  }
  return h;
}

/// One layer's span for every op (µs) and its answer to every read.
struct Pass {
  std::vector<double> us;
  std::vector<bool> answers;
  double total_s = 0;  ///< summed spans
};

bool WireOk(const dynfo::dyn::wire::Response& r, bool write, bool* answer) {
  if (r.code != 0) return false;
  if (write) return r.body == "ok";
  *answer = r.body.rfind("true ", 0) == 0;
  return *answer || r.body.rfind("false ", 0) == 0;
}

struct PeelResult {
  Pass call, dispatch, service, durable, guarded, engine;
  double untraced_s = 0;  ///< outermost layer, timed per pass only
  std::vector<double> pin_us, query_first_us, query_repeat_us;
  std::vector<double> checkpoint_us, full_snapshot_us;
  dynfo::dyn::wire::Client::Counters client;
  dynfo::dyn::ServiceStats service_stats;
  size_t retained_max = 0;
  dynfo::dyn::DurableStore::Counters store;
  double revive_s = 0;
  dynfo::dyn::Engine::Stats engine_stats;
  dynfo::fo::EvalStats eval_stats;
  size_t writes = 0;
  bool failures = false;
};

/// The peeled layers, outermost first.
enum Layer { kCall, kDispatch, kService, kDurable, kGuarded, kEngine, kNumLayers };

/// The peel runs this many times on fresh instances; per request the
/// median span is kept, which damps noise in self times without breaking
/// the telescoping sum.
constexpr int kPeelRepeats = 5;
/// Every layer takes the same block of this many requests in turn: close
/// enough in time that drift hits all layers alike, long enough that each
/// layer runs with its own caches warm (a per-request round robin slowed
/// every span by up to 2x).
constexpr size_t kPeelBlock = 128;

EngineService::SessionId OpenOrDie(EngineService* service) {
  const auto session = service->OpenSession();
  if (!session.ok()) Die("peel: OpenSession failed");
  return session.value();
}

dynfo::dyn::wire::Address UnusedAddress() {
  dynfo::dyn::wire::Address address;
  address.path = "peel-unused.sock";
  return address;
}

/// A fresh instance of every layer, each driven one request at a time
/// through its public entry point.
class PeelRig {
 public:
  PeelRig(const Workload& w, const std::string& dir, PeelResult* out)
      : w_(w),
        dir_(dir),
        out_(out),
        served_(StartServed(w, "peel.sock")),
        client_(served_->address),
        dispatch_service_(MakeProgram(w), w.universe, ServerOptions()),
        dispatch_server_(&dispatch_service_, UnusedAddress()),
        dispatch_session_(OpenOrDie(&dispatch_service_)),
        service_(MakeProgram(w), w.universe, ServerOptions()),
        service_session_(OpenOrDie(&service_)),
        durable_(StartDurable(w, dir)),
        guarded_(MakeProgram(w), w.universe, nullptr, nullptr, GuardedOptions()),
        engine_(MakeProgram(w), w.universe, GuardedOptions().engine_options) {
    if (!client_.Connect().ok()) Die("peel: connect failed");
    engine_.ResetStats();
    engine_.ResetEvalStats();
  }

  /// `op` through `layer`, recording a read's answer in `pass`.
  void Step(Layer layer, const PeelOp& op, Pass* pass) {
    bool answer = false;
    bool ok = true;
    switch (layer) {
      case kCall: {
        dynfo::dyn::wire::Response response;
        ok = client_.Call(op.line, &response).ok() &&
             WireOk(response, op.write, &answer);
        break;
      }
      case kDispatch: {
        dynfo::dyn::wire::Response response;
        ok = dynfo::dyn::wire::DecodeResponse(
                 dispatch_server_.Dispatch(dispatch_session_, op.line),
                 &response.code, &response.body) &&
             WireOk(response, op.write, &answer);
        break;
      }
      case kService:
        if (op.write) {
          ok = service_.Apply(service_session_, op.request).ok();
        } else {
          answer = ServiceRead(op);
        }
        break;
      case kDurable:
        if (op.write) {
          ok = DurableWrite(op);
        } else {
          answer = durable_->QueryBool();
        }
        break;
      case kGuarded:
        if (op.write) {
          ok = guarded_.Apply(op.request).ok();
        } else {
          answer = guarded_.QueryBool();
        }
        break;
      case kEngine:
        if (op.write) {
          engine_.Apply(op.request);
        } else {
          answer = engine_.QueryBool();
        }
        break;
      case kNumLayers:
        break;
    }
    if (!ok) out_->failures = true;
    if (!op.write) pass->answers.push_back(answer);
  }

  /// Reads every layer's counters, then closes and reopens the durable
  /// store (which must revive bit-identically), timing the reopen.
  void Collect(std::vector<double>* revive_s) {
    out_->client = client_.counters();
    out_->service_stats = service_.stats();
    out_->store = durable_->durable_store()->counters();
    out_->engine_stats = engine_.stats();
    out_->eval_stats = engine_.eval_stats();
    Gate gate;
    revive_s->push_back(CheckRevival(w_, &durable_, dir_, &gate));
    if (!gate.ok) out_->failures = true;
  }

 private:
  /// PinVersion + QueryBool, with the two parts timed separately.
  bool ServiceRead(const PeelOp& op) {
    const auto t0 = Clock::now();
    EngineService::ReadPin pin = service_.PinVersion();
    const auto t1 = Clock::now();
    const bool answer = service_.QueryBool(pin);
    const auto t2 = Clock::now();
    out_->pin_us.push_back(Micros(t1 - t0));
    (op.first_read ? out_->query_first_us : out_->query_repeat_us)
        .push_back(Micros(t2 - t1));
    out_->retained_max = std::max(out_->retained_max, service_.retained_versions());
    return answer;
  }

  /// A durable Apply, filed under the checkpoint kind it wrote, if any.
  bool DurableWrite(const PeelOp& op) {
    const auto before = durable_->durable_store()->counters();
    const auto t0 = Clock::now();
    const bool ok = durable_->Apply(op.request).ok();
    const double us = Micros(Clock::now() - t0);
    const auto& after = durable_->durable_store()->counters();
    if (after.full_snapshots > before.full_snapshots) {
      out_->full_snapshot_us.push_back(us);
    } else if (after.checkpoints > before.checkpoints) {
      out_->checkpoint_us.push_back(us);
    }
    return ok;
  }

  const Workload& w_;
  std::string dir_;
  PeelResult* out_;
  std::unique_ptr<Served> served_;
  dynfo::dyn::wire::Client client_;
  EngineService dispatch_service_;
  ServiceServer dispatch_server_;
  EngineService::SessionId dispatch_session_;
  EngineService service_;
  EngineService::SessionId service_session_;
  std::unique_ptr<GuardedEngine> durable_;
  GuardedEngine guarded_;
  dynfo::dyn::Engine engine_;
};

/// Per-op median span across repeated passes.
Pass MedianPass(const std::vector<Pass>& passes) {
  Pass out;
  out.answers = passes.front().answers;
  std::vector<double> column(passes.size());
  for (size_t i = 0; i < passes.front().us.size(); ++i) {
    for (size_t r = 0; r < passes.size(); ++r) column[r] = passes[r].us[i];
    out.us.push_back(Percentile(&column, 0.5));
  }
  for (size_t r = 0; r < passes.size(); ++r) column[r] = passes[r].total_s;
  out.total_s = Percentile(&column, 0.5);
  for (const Pass& p : passes) {
    if (p.answers != out.answers) out.answers.clear();  // fails the gate
  }
  return out;
}

/// Seconds for `ops` through a fresh instance of the workload's outermost
/// layer alone (the client of a served stack, or a durable GuardedEngine),
/// with no per-request timing: the baseline of trace.overhead_ratio.
double UntracedSeconds(const Workload& w, const std::vector<PeelOp>& ops,
                       const std::string& dir, bool* failed) {
  std::unique_ptr<Served> served;
  std::unique_ptr<dynfo::dyn::wire::Client> client;
  std::unique_ptr<GuardedEngine> durable;
  if (w.served) {
    served = StartServed(w, "twin.sock");
    client = std::make_unique<dynfo::dyn::wire::Client>(served->address);
    if (!client->Connect().ok()) Die("untraced: connect failed");
  } else {
    std::filesystem::remove_all(dir);
    durable = StartDurable(w, dir);
  }
  bool ok = true;
  const auto t0 = Clock::now();
  for (const auto& op : ops) {
    if (w.served) {
      dynfo::dyn::wire::Response response;
      bool answer = false;
      ok &= client->Call(op.line, &response).ok() &&
            WireOk(response, op.write, &answer);
    } else if (op.write) {
      ok &= durable->Apply(op.request).ok();
    } else {
      (void)durable->QueryBool();
    }
  }
  const double seconds = Seconds(Clock::now() - t0);
  if (!ok) *failed = true;
  return seconds;
}

void RunPeel(const Workload& w, const std::vector<PeelOp>& ops,
             const std::string& dir, PeelResult* out) {
  for (const auto& op : ops) out->writes += op.write ? 1 : 0;
  std::vector<std::vector<Pass>> runs(kNumLayers);
  std::vector<double> untraced_s, revive_s;
  for (int r = 0; r < kPeelRepeats; ++r) {
    {
      std::filesystem::remove_all(dir);
      PeelRig rig(w, dir, out);
      std::vector<Pass> passes(kNumLayers);
      for (size_t begin = 0; begin < ops.size(); begin += kPeelBlock) {
        const size_t end = std::min(ops.size(), begin + kPeelBlock);
        for (int layer = 0; layer < kNumLayers; ++layer) {
          for (size_t i = begin; i < end; ++i) {
            const auto t0 = Clock::now();
            rig.Step(static_cast<Layer>(layer), ops[i], &passes[layer]);
            const auto t1 = Clock::now();
            passes[layer].us.push_back(Micros(t1 - t0));
            passes[layer].total_s += Seconds(t1 - t0);
          }
        }
      }
      rig.Collect(&revive_s);
      for (int layer = 0; layer < kNumLayers; ++layer) {
        runs[layer].push_back(std::move(passes[layer]));
      }
    }
    untraced_s.push_back(UntracedSeconds(w, ops, dir, &out->failures));
  }
  out->call = MedianPass(runs[kCall]);
  out->dispatch = MedianPass(runs[kDispatch]);
  out->service = MedianPass(runs[kService]);
  out->durable = MedianPass(runs[kDurable]);
  out->guarded = MedianPass(runs[kGuarded]);
  out->engine = MedianPass(runs[kEngine]);
  out->untraced_s = Percentile(&untraced_s, 0.5);
  out->revive_s = Percentile(&revive_s, 0.5);
}

/// Mean over ops selected by `pick` of outer[i] - inner[i].
double SelfMean(const std::vector<PeelOp>& ops, const Pass& outer,
                const Pass& inner, const std::function<bool(const PeelOp&)>& pick) {
  double sum = 0;
  size_t count = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (!pick(ops[i])) continue;
    sum += outer.us[i] - inner.us[i];
    ++count;
  }
  return count > 0 ? sum / static_cast<double>(count) : 0;
}

/// The per-layer metrics of a traced run.
std::vector<Metric> LayerMetrics(const Workload& w, const std::vector<PeelOp>& ops,
                                 const PeelResult& p, const LoadResult& load,
                                 const dynfo::dyn::ServiceStats& live_stats,
                                 const dynfo::dyn::RecoveryStats& live_recovery) {
  const auto all = [](const PeelOp&) { return true; };
  const auto writes = [](const PeelOp& op) { return op.write; };
  const double nw = static_cast<double>(p.writes);
  const double kw = nw / 1000.0;

  std::vector<double> engine_write_us;
  std::vector<double> engine_read_us;
  for (size_t i = 0; i < ops.size(); ++i) {
    (ops[i].write ? engine_write_us : engine_read_us).push_back(p.engine.us[i]);
  }
  const double engine_apply_us = Mean(engine_write_us);

  // The workload's own stack, outermost first; self time of each layer
  // per op, telescoping to the outermost span.
  struct StackLayer {
    std::string name;
    const Pass* outer;
    const Pass* inner;  ///< null for the innermost layer
  };
  std::vector<StackLayer> stack;
  if (w.served) {
    stack = {{"wire", &p.call, &p.dispatch},
             {"server", &p.dispatch, &p.service},
             {"service", &p.service, &p.guarded},
             {"recovery", &p.guarded, &p.engine},
             {"engine", &p.engine, nullptr}};
  } else {
    stack = {{"journal", &p.durable, &p.guarded},
             {"recovery", &p.guarded, &p.engine},
             {"engine", &p.engine, nullptr}};
  }
  const Pass& outermost = *stack.front().outer;
  const double e2e_mean = Mean(outermost.us);
  double self_sum = 0;
  std::vector<Metric> shares;
  for (const std::string name :
       {"wire", "server", "service", "journal", "recovery", "engine"}) {
    double self = 0;
    for (const StackLayer& layer : stack) {
      if (layer.name != name) continue;
      self = layer.inner ? SelfMean(ops, *layer.outer, *layer.inner, all)
                         : Mean(layer.outer->us);
    }
    self_sum += self;
    shares.push_back({name + ".share", Ratio(self, e2e_mean), "ratio"});
  }

  const auto& es = p.engine_stats;
  const auto& ev = p.eval_stats;
  const double reads_tier0 = static_cast<double>(live_stats.reads_tier[0]);
  const double calls = static_cast<double>(load.client.calls);
  std::vector<Metric> m = {
      {"wire.self_us", SelfMean(ops, p.call, p.dispatch, all), "us"},
      {"wire.retries_per_kcall",
       Ratio(static_cast<double>(load.client.resource_retries +
                                 load.client.transport_retries),
             calls / 1000.0),
       "1/kcall"},
      {"server.dispatch_self_us", SelfMean(ops, p.dispatch, p.service, all), "us"},
      {"service.apply_self_us", SelfMean(ops, p.service, p.guarded, writes), "us"},
      {"service.pin_us", Mean(p.pin_us), "us"},
      {"service.query_first_us", Mean(p.query_first_us), "us"},
      {"service.query_repeat_us", Mean(p.query_repeat_us), "us"},
      {"service.reads_per_version",
       Ratio(static_cast<double>(live_stats.reads_served),
             static_cast<double>(live_stats.snapshots_published)),
       "ratio"},
      {"service.admission_rejections_per_kwrite",
       Ratio(static_cast<double>(live_stats.admission_rejections),
             static_cast<double>(live_stats.writes_applied) / 1000.0),
       "1/kwrite"},
      {"service.admission_timeouts_per_kwrite",
       Ratio(static_cast<double>(live_stats.admission_timeouts),
             static_cast<double>(live_stats.writes_applied) / 1000.0),
       "1/kwrite"},
      {"service.shed_read_share",
       live_stats.reads_served > 0
           ? 1.0 - reads_tier0 / static_cast<double>(live_stats.reads_served)
           : 0.0,
       "ratio"},
      {"service.retained_versions_max",
       static_cast<double>(w.served ? load.retained_max : p.retained_max),
       "count"},
      {"recovery.self_us", SelfMean(ops, p.guarded, p.engine, writes), "us"},
      {"recovery.ladder_fallbacks_per_kwrite",
       Ratio(static_cast<double>(live_recovery.ladder_fallbacks),
             static_cast<double>(live_recovery.requests) / 1000.0),
       "1/kwrite"},
      {"journal.self_us", SelfMean(ops, p.durable, p.guarded, writes), "us"},
      {"journal.checkpoint_write_us", Mean(p.checkpoint_us), "us"},
      {"journal.full_snapshot_write_us", Mean(p.full_snapshot_us), "us"},
      {"journal.fsyncs_per_write", Ratio(static_cast<double>(p.store.fsyncs), nw),
       "1/write"},
      {"journal.bytes_per_write",
       Ratio(static_cast<double>(p.store.bytes_appended), nw), "B/write"},
      {"journal.checkpoints_per_kwrite",
       Ratio(static_cast<double>(p.store.checkpoints + p.store.full_snapshots), kw),
       "1/kwrite"},
      {"journal.files_collected_per_kwrite",
       Ratio(static_cast<double>(p.store.files_collected), kw), "1/kwrite"},
      {"journal.revive_s", p.revive_s, "s"},
      {"engine.apply_us", engine_apply_us, "us"},
      {"engine.apply_p99_us", Percentile(&engine_write_us, 0.99), "us"},
      {"engine.query_us", Mean(engine_read_us), "us"},
      {"engine.rule_eval_share",
       Ratio(es.rule_eval_seconds * 1e6, engine_apply_us * nw), "ratio"},
      {"engine.commit_share", Ratio(es.commit_seconds * 1e6, engine_apply_us * nw),
       "ratio"},
      {"engine.delta_rule_ratio",
       Ratio(static_cast<double>(es.delta_rules),
             static_cast<double>(es.delta_rules + es.fallback_recomputes)),
       "ratio"},
      {"engine.delta_write_ratio",
       Ratio(static_cast<double>(es.tuples_delta_written),
             static_cast<double>(es.tuples_written)),
       "ratio"},
      {"engine.tuples_written_per_write",
       Ratio(static_cast<double>(es.tuples_written), nw), "1/write"},
      {"engine.dense_apply_ratio",
       Ratio(static_cast<double>(es.dense_applies), static_cast<double>(es.requests)),
       "ratio"},
      {"fo.plan_cache_hit_rate", ev.PlanCacheHitRate(), "ratio"},
      {"fo.planner_runs_per_write", Ratio(static_cast<double>(ev.planner_runs), nw),
       "1/write"},
      {"fo.index_probes_per_write", Ratio(static_cast<double>(ev.index_probes), nw),
       "1/write"},
      {"fo.index_builds_per_write", Ratio(static_cast<double>(ev.index_builds), nw),
       "1/write"},
      {"fo.words_scanned_per_write",
       Ratio(static_cast<double>(ev.words_scanned), nw), "1/write"},
      {"trace.overhead_ratio", Ratio(outermost.total_s, p.untraced_s), "ratio"},
      {"trace.coverage", Ratio(self_sum, e2e_mean), "ratio"},
      {"write_p99_us", load.writes.Percentile(0.99), "us"},
      {"read_p99_us", load.reads.Percentile(0.99), "us"},
      {"write_rps", load.writes.Rate(load.window_s), "1/s"},
      {"read_rps", load.reads.Rate(load.window_s), "1/s"},
      {"fail_ratio",
       Ratio(static_cast<double>(load.failed), static_cast<double>(load.attempted)),
       "ratio"},
  };
  m.insert(m.end(), shares.begin(), shares.end());
  return m;
}

// ---------------------------------------------------------------------------
// Entry point

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string work_dir = ".bench_build/e2ebench-work";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = std::stoi(value);
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (argc % 2 != 1) Die("flags take one value each");
  if (args.seconds <= 0) Die("--seconds must be positive");
  return args;
}

std::string JsonNumber(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", v);
  return buffer;
}

void Emit(const std::vector<Metric>& metrics, bool correct, uint64_t attempted,
          uint64_t failed) {
  for (const auto& m : metrics) {
    std::printf("%-40s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload* found = nullptr;
  for (const auto& w : Workloads()) {
    if (w.name == args.workload) found = &w;
  }
  if (found == nullptr) Die("unknown --workload '" + args.workload + "'");
  const Workload& w = *found;

  // Everything the run writes (sockets, stores) lives under the work
  // directory; relative paths keep unix socket names short.
  std::filesystem::create_directories(args.work_dir);
  if (::chdir(args.work_dir.c_str()) != 0) Die("cannot enter " + args.work_dir);
  const std::string run_dir = "run-" + std::to_string(::getpid());
  std::filesystem::create_directories(run_dir);
  if (::chdir(run_dir.c_str()) != 0) Die("cannot enter " + run_dir);

  const double load_seconds = args.trace ? std::max(1.0, args.seconds / 4) : args.seconds;
  const double setup_half_s = load_seconds * kSetupShare / 2;
  Gate gate;
  LoadResult load;
  dynfo::dyn::ServiceStats live_stats;
  dynfo::dyn::RecoveryStats live_recovery;
  std::vector<double> setup_seconds;

  if (w.served) {
    const std::function<std::unique_ptr<Served>()> make = [&] {
      auto s = StartServed(w, "load.sock");
      dynfo::dyn::wire::Client client(s->address);
      bool answer = false;
      if (!CallQuery(&client, &answer, nullptr)) Die("set-up query failed");
      return s;
    };
    std::unique_ptr<Served> sys;
    TimedSetups(setup_half_s, make, {[] {}}, &sys, &setup_seconds);
    std::vector<WriterStream> streams;
    std::vector<Request> applied;
    load = RunServedLoad(w, args.seed, load_seconds, sys.get(), &streams,
                         w.writers == 1 ? &applied : nullptr);
    live_stats = sys->service->stats();
    live_recovery = sys->service->recovery_stats();
    CheckServed(w, sys.get(), streams, applied, &gate);
    TimedSetups(setup_half_s, make, {[] {}}, &sys, &setup_seconds);
  } else {
    const std::function<std::unique_ptr<GuardedEngine>()> make = [&] {
      auto g = StartDurable(w, "load-store");
      (void)g->QueryBool();
      return g;
    };
    // The previous store is removed and the removal committed to disk
    // outside the timing, so no set-up's fsync also pays for it.
    const std::function<void()> clean = [] {
      std::filesystem::remove_all("load-store");
      const int fd = ::open(".", O_RDONLY | O_DIRECTORY);
      if (fd < 0 || ::syncfs(fd) != 0) Die("syncfs failed");
      ::close(fd);
    };
    std::unique_ptr<GuardedEngine> guarded;
    TimedSetups(setup_half_s, make, clean, &guarded, &setup_seconds);
    WriterStream stream(w, args.seed, 0, 1);
    load = RunDurableLoad(load_seconds, guarded.get(), &stream, &gate);
    live_recovery = guarded->recovery_stats();
    CheckRevival(w, &guarded, "load-store", &gate);
    TimedSetups(setup_half_s, make, clean, &guarded, &setup_seconds);
  }
  const double setup_s = Percentile(&setup_seconds, 0.5);

  std::vector<Metric> metrics;
  if (!args.trace) {
    const double window = load.window_s;
    metrics = {
        {"write_p50_us", load.writes.Percentile(0.50), "us"},
        {"read_p50_us", load.reads.Percentile(0.50), "us"},
        {"setup_s", setup_s, "s"},
        {"rss_mb", load.rss.Mb(), "MB"},
    };
    std::printf("workload %s seed %llu: %zu writes, %zu reads timed over %.1f s\n",
                w.name.c_str(), static_cast<unsigned long long>(args.seed),
                static_cast<size_t>(load.writes.count()),
                static_cast<size_t>(load.reads.count()), window);
  } else {
    const double peak_rss_mb = StatusMb("VmHWM");  // before the peel
    const std::vector<PeelOp> ops = PeelStream(w, args.seed);
    PeelResult peel;
    RunPeel(w, ops, "peel-store", &peel);
    gate.Check(!peel.failures, "a peel request failed");
    // Every layer must give every read the same answer.
    for (const Pass* pass : {&peel.call, &peel.dispatch, &peel.service,
                             &peel.durable, &peel.guarded}) {
      gate.Check(pass->answers == peel.engine.answers,
                 "peel: layers disagree on a read answer");
    }
    if (!w.served) {  // no served closed loop: take the peel's service pass
      live_stats = peel.service_stats;
      load.client = peel.client;
    }
    metrics = LayerMetrics(w, ops, peel, load, live_stats, live_recovery);
    metrics.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
    std::printf("workload %s seed %llu: peel of %zu requests (%zu writes), "
                "stream digest %016llx\n",
                w.name.c_str(), static_cast<unsigned long long>(args.seed),
                ops.size(), peel.writes,
                static_cast<unsigned long long>(StreamDigest(ops)));
  }

  std::filesystem::current_path("..");
  std::filesystem::remove_all(run_dir);
  Emit(metrics, gate.ok, load.attempted, load.failed);
  return gate.ok ? 0 : 1;
}
