// The repository benchmark program: drives the p3q layers through one of
// three workloads, times every call from outside, checks the outputs
// against the benchmark's own computations, and prints every metric.
//
//   p3q_perfbench --workload lazy-maintenance|query-serving|churn-update
//                 --seed N --seconds S --trace 0|1 [--spans PATH]
//
// A run repeats whole rounds of its workload until `seconds` of wall time
// have passed. --trace 0 prints the end-to-end metrics; --trace 1
// alternates untraced and traced rounds, attaches the engine's
// PhaseProfiler and the span recorder to the traced ones, prints the
// per-layer metrics, each layer's self time and the tracing overhead, and
// writes the spans to PATH. The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// The exit code is non-zero when any operation or check failed.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "baseline/ideal_network.h"
#include "checks.h"
#include "core/p3q_system.h"
#include "dataset/generator.h"
#include "dataset/query_gen.h"
#include "obs/profiler.h"
#include "serving/arrival.h"
#include "serving/lifecycle.h"
#include "sim/checkpoint.h"
#include "spans.h"

namespace p3q::perfbench {
namespace {

// -- Workload make-up (README.md lists the same figures) ---------------------

constexpr int kUsers = 5000;
constexpr int kNetworkSize = 500;      // s
constexpr int kStoredProfiles = 10;    // c
constexpr int kThreads = 2;
constexpr std::size_t kSampledNodes = 256;
/// Set-up is sampled at least this often per run when it is cheap enough
/// to repeat (lazy-maintenance, churn-update; about 0.5 s each), and the
/// median is reported; query-serving sets up once. The extra set-ups run
/// after the rounds, so they leave the rounds' peak resident set alone.
constexpr std::size_t kSetupSamples = 20;

// lazy-maintenance: the converge phase of `steady-state`, shortened.
constexpr int kLazyCycles = 25;

// query-serving: the open-loop traffic of the `open-loop-steady` scenario
// (src/scenario/registry.cc): Poisson arrivals at 2 per cycle with an SLO
// of 8 cycles. A round issues the 80 queries its 40-cycle serve phase
// expects, then runs a tail without arrivals.
constexpr double kServingRate = 2.0;  // mean arrivals per eager cycle
constexpr int kServingQueries = 80;   // per round

// churn-update: `mixed-stress` scaled to half length.
constexpr int kChurnConvergeCycles = 12;
constexpr int kChurnStressCycles = 12;
constexpr int kChurnSettleCycles = 4;
constexpr int kChurnQueriesPerCycle = 2;  // as `mixed-stress` issues them
constexpr int kChurnDepartAt = 1;
constexpr double kChurnDepartFraction = 0.3;
constexpr int kChurnFirstBatchAt = 3;
constexpr int kChurnCheckpointAt = 6;
constexpr int kChurnRejoinAt = 7;
constexpr int kChurnSecondBatchAt = 9;

/// Eager cycles a query may take after the arrivals end before it counts
/// as failed.
constexpr int kMaxTailCycles = 100;
/// Completion-latency SLO handed to the serving tracker (cycles).
constexpr std::uint64_t kSloCycles = 8;
/// Recall target handed to the serving tracker. No recall exceeds 1, so a
/// query completes only when the eager mode finalizes it — which is when
/// its top-k is exact and can be checked item by item and score by score.
constexpr double kFinalizationOnly = 2.0;

const char* const kWorkloads[] = {"lazy-maintenance", "query-serving",
                                  "churn-update"};

bool IsMaintenance(MessageType type) {
  return type != MessageType::kEagerQueryForward &&
         type != MessageType::kEagerQueryReturn &&
         type != MessageType::kPartialResult;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

// -- Statistics ---------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double Sum(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return sum;
}

/// Quantile of whole-number observations (query latencies in cycles),
/// interpolated within the value it falls on, which is read as the interval
/// [L - 0.5, L + 0.5) — the grouped-data quantile. Moves smoothly with the
/// distribution instead of jumping between whole cycles.
double GroupedQuantile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double target = p * static_cast<double>(v.size());
  std::size_t below = 0;
  while (below < v.size()) {
    const double value = v[below];
    std::size_t end = below;
    while (end < v.size() && v[end] == value) ++end;
    if (static_cast<double>(end) >= target) {
      const double within = (target - static_cast<double>(below)) /
                            static_cast<double>(end - below);
      return value - 0.5 + within;
    }
    below = end;
  }
  return v.back() + 0.5;
}

double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

constexpr double kMiB = 1024.0 * 1024.0;

// -- Operation accounting -----------------------------------------------------

/// Attempted/failed counts per kind of operation, plus the first problems
/// the checks reported.
class Ledger {
 public:
  void Ok(const std::string& kind) { ++counts_[kind].first; }
  void Fail(const std::string& kind, const std::string& problem) {
    ++counts_[kind].first;
    ++counts_[kind].second;
    if (problems_.size() < 20) problems_.push_back(kind + ": " + problem);
  }
  /// Counts a check: a non-empty problem is a failure.
  void Check(const std::string& kind, const std::string& problem) {
    if (problem.empty()) {
      Ok(kind);
    } else {
      Fail(kind, problem);
    }
  }
  std::uint64_t attempted() const {
    std::uint64_t n = 0;
    for (const auto& [kind, c] : counts_) n += c.first;
    return n;
  }
  std::uint64_t failed() const {
    std::uint64_t n = 0;
    for (const auto& [kind, c] : counts_) n += c.second;
    return n;
  }
  void Print() const {
    for (const auto& [kind, c] : counts_) {
      std::printf("ops %-22s attempted %10llu  failed %llu\n", kind.c_str(),
                  static_cast<unsigned long long>(c.first),
                  static_cast<unsigned long long>(c.second));
    }
    for (const std::string& p : problems_) {
      std::fprintf(stderr, "FAILED %s\n", p.c_str());
    }
  }

 private:
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> counts_;
  std::vector<std::string> problems_;
};

// -- Samples ------------------------------------------------------------------

/// Named samples collected over a run's rounds (one vector per name).
using Samples = std::map<std::string, std::vector<double>>;

// -- The deployment under test -------------------------------------------------

P3QConfig BenchConfig() {
  P3QConfig config;
  config.network_size = kNetworkSize;
  config.stored_profiles = kStoredProfiles;
  return config;
}

/// One built system plus what the benchmark knows about it independently.
struct Deployment {
  std::unique_ptr<SyntheticTraceStream> stream;  // kept for update batches
  ProfileHistory history;                        // benchmark's own copy
  std::unique_ptr<P3QSystem> system;
};

/// Builds a store from the benchmark's copy of the version-0 actions.
ProfileStore StoreFromHistory(const ProfileHistory& history) {
  ProfileStore store;
  store.RetainOriginals(true);
  for (UserId u = 0; u < history.NumUsers(); ++u) {
    store.AddUser(u, history.versions[u][0]);
  }
  return store;
}

std::unique_ptr<P3QSystem> NewSystem(ProfileStore store, std::uint64_t seed) {
  auto system = std::make_unique<P3QSystem>(std::move(store), BenchConfig(),
                                            std::vector<int>{}, seed);
  system->SetThreads(kThreads);
  return system;
}

/// Trace generation, profile store, system and random-view bootstrap; with
/// `seeded`, also the ideal networks installed by SeedNetworks. Returns the
/// set-up time (the sum of the timed calls) and records per-call samples.
double SetUp(std::uint64_t seed, bool seeded, SpanRecorder* rec,
             Samples* samples, Deployment* out) {
  double total = 0;
  std::vector<std::vector<ActionKey>> actions;
  double t = Timed(rec, "dataset.stream", [&] {
    out->stream = std::make_unique<SyntheticTraceStream>(
        SyntheticConfig::DeliciousLike(kUsers), seed);
    actions.reserve(kUsers);
    while (!out->stream->Done()) actions.push_back(out->stream->NextUserActions());
  });
  (*samples)["dataset.stream_s"].push_back(t);
  total += t;

  out->history.versions.clear();
  out->history.versions.reserve(actions.size());
  for (const auto& a : actions) out->history.versions.push_back({a});

  ProfileStore store;
  t = Timed(rec, "profile.store_add", [&] {
    store.RetainOriginals(true);
    for (UserId u = 0; u < actions.size(); ++u) {
      store.AddUser(u, std::move(actions[u]));
    }
  });
  (*samples)["profile.store_add_s"].push_back(t);
  total += t;

  t = Timed(rec, "core.system_build",
            [&] { out->system = NewSystem(std::move(store), seed); });
  total += t;
  t = Timed(rec, "core.bootstrap", [&] { out->system->BootstrapRandomViews(); });
  (*samples)["core.bootstrap_s"].push_back(t);
  total += t;

  if (seeded) {
    IdealNetworks ideal;
    t = Timed(rec, "baseline.ideal_networks", [&] {
      ideal = ComputeIdealNetworks(out->system->profile_store(), kNetworkSize);
    });
    (*samples)["baseline.ideal_networks_s"].push_back(t);
    total += t;
    t = Timed(rec, "core.seed_networks",
              [&] { out->system->SeedNetworks(ideal); });
    (*samples)["core.seed_networks_s"].push_back(t);
    total += t;
  }
  return total;
}

// -- Views and checks ---------------------------------------------------------

NetworkView ViewOf(const P3QSystem& system, UserId u) {
  const P3QNode& node = system.node(u);
  NetworkView view;
  view.owner = u;
  view.s = node.network().capacity();
  view.c = node.network().storage_capacity();
  for (const NetworkEntry& e : node.network().entries()) {
    EntryView ev;
    ev.user = e.user;
    ev.score = e.score;
    ev.digest_version = e.digest.version();
    ev.has_replica = e.HasStoredProfile();
    ev.replica_version = ev.has_replica ? e.stored_profile->version() : 0;
    view.entries.push_back(ev);
  }
  return view;
}

std::vector<UserId> SampleNodes(std::uint64_t seed) {
  std::vector<UserId> all(kUsers);
  for (UserId u = 0; u < all.size(); ++u) all[u] = u;
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x5bd1e995ULL);
  std::vector<UserId> sample = rng.SampleWithoutReplacement(all, kSampledNodes);
  std::sort(sample.begin(), sample.end());
  return sample;
}

void CheckNetworks(const Deployment& d, const std::vector<UserId>& sample,
                   Ledger* ledger) {
  for (UserId u : sample) {
    ledger->Check("network_check", CheckNetwork(ViewOf(*d.system, u), d.history));
  }
}

/// Mean success ratio of the sampled nodes against brute-force top-s.
double SampledSuccessRatio(const Deployment& d,
                           const std::vector<UserId>& sample) {
  std::vector<double> ratios;
  for (UserId u : sample) {
    ratios.push_back(SuccessRatio(ViewOf(*d.system, u),
                                  BruteForceTopS(u, d.history, kNetworkSize)));
  }
  return Mean(ratios);
}

/// Brute-force top-k over the querier's network at issue time, each member
/// at her current profile.
std::vector<ScoredItem> ExpectedTopK(const Deployment& d, const QuerySpec& spec) {
  std::vector<const Actions*> profiles;
  for (const NetworkEntry& e : d.system->node(spec.querier).network().entries()) {
    profiles.push_back(&d.history.Current(e.user));
  }
  return BruteForceTopK(profiles, spec.tags, d.system->config().top_k);
}

std::vector<ScoredItem> FinalTopK(const ActiveQuery& query) {
  std::vector<ScoredItem> out;
  for (const RankedItem& r : query.history().back().top_k) {
    out.emplace_back(r.item, r.worst);
  }
  return out;
}

// -- Rounds ------------------------------------------------------------------

/// What one round measured: its own time plus counters.
struct Round {
  double run_s = 0;       ///< summed time of the timed program calls
  double user_cycles = 0; ///< online users summed over every cycle run
  Metrics traffic;        ///< messages sent during the round
  Samples samples;        ///< per-call times and per-round figures
};

void AddTraffic(const Metrics& traffic, Samples* s) {
  for (int t = 0; t < static_cast<int>(MessageType::kCount); ++t) {
    const auto type = static_cast<MessageType>(t);
    const std::string base = std::string("sim.msg.") + MessageTypeName(type);
    (*s)[base + ".count"].push_back(static_cast<double>(traffic.Of(type).messages));
    (*s)[base + ".bytes"].push_back(static_cast<double>(traffic.Of(type).bytes));
  }
}

void AddMemory(const P3QSystem& system, Samples* s) {
  const SystemMemoryStats mem = system.MemoryStats();
  (*s)["profile.arena_used_mb"].push_back(mem.store.arena.used_bytes / kMiB);
  (*s)["profile.arena_reserved_mb"].push_back(mem.store.arena.reserved_bytes / kMiB);
  (*s)["core.pair_cache_entries"].push_back(static_cast<double>(mem.pair_cache_entries));
  (*s)["core.pair_cache_evictions"].push_back(static_cast<double>(mem.pair_cache_evictions));
  double fill = 0;
  for (UserId u = 0; u < system.NumUsers(); ++u) {
    fill += static_cast<double>(system.node(u).network().size());
  }
  (*s)["core.network_fill_mean"].push_back(fill / static_cast<double>(system.NumUsers()));
}

/// An issued query the benchmark is waiting on.
struct PendingQuery {
  std::uint64_t issue_cycle = 0;
  std::vector<ScoredItem> expected;  ///< brute force at issue time
};

/// Open-loop query traffic over one deployment: issue, eager cycles,
/// completion checks and serving-tracker polls.
class QueryStream {
 public:
  /// Issues `total` queries: Poisson(rate) per cycle, or exactly `rate` per
  /// cycle when `fixed`. With `exact` every final top-k is checked against
  /// the brute force.
  QueryStream(Deployment* d, std::uint64_t seed, double rate, bool fixed,
              int total, bool exact,
              SpanRecorder* rec, Round* round, Ledger* ledger)
      : d_(d),
        arrivals_(Spec(rate), seed),
        fixed_(fixed ? static_cast<int>(rate) : -1),
        unissued_(total),
        rng_(seed ^ 0xa0761d6478bd642fULL),
        tracker_(kSloCycles, kFinalizationOnly),
        exact_(exact),
        rec_(rec),
        round_(round),
        ledger_(ledger) {}

  /// Issues this cycle's arrivals (cycle is relative to the stream start).
  void Arrive(std::uint64_t cycle) {
    const int n = std::min(
        unissued_, fixed_ >= 0 ? fixed_ : arrivals_.ArrivalsAt(cycle));
    const std::vector<UserId> online = d_->system->network().OnlineUsers();
    for (int i = 0; i < n && !online.empty(); ++i) {
      --unissued_;
      const UserId u = online[rng_.NextUint64(online.size())];
      const QuerySpec spec =
          GenerateQueryForUser(d_->history.versions[u][0], u, &rng_);
      if (spec.tags.empty()) continue;
      PendingQuery pending;
      pending.issue_cycle = cycle;
      pending.expected = ExpectedTopK(*d_, spec);
      std::uint64_t id = 0;
      const double t = Timed(rec_, "core.issue_query",
                             [&] { id = d_->system->IssueQuery(spec); });
      round_->run_s += t;
      round_->samples["core.issue_query_s"].push_back(t);
      // The tracker releases at once a query that is already complete (the
      // querier stores every profile of her network) or whose reference is
      // empty, so such a query is finished here, before Track.
      std::vector<ItemId> reference;
      for (const auto& [item, score] : pending.expected) reference.push_back(item);
      const bool released =
          d_->system->QueryComplete(id) || pending.expected.empty();
      if (released) Finish(id, pending, cycle);
      round_->run_s += Timed(rec_, "serving.track", [&] {
        tracker_.Track(d_->system.get(), id, cycle, std::move(reference),
                       &stats_);
      });
      if (!released) pending_.emplace(id, std::move(pending));
    }
  }

  /// After the eager cycle that ended at `cycle` (relative): checks the
  /// queries the eager mode finalized, then polls the tracker.
  void AfterEagerCycle(std::uint64_t cycle) {
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (d_->system->QueryComplete(it->first)) {
        Finish(it->first, it->second, cycle);
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
    const double t = Timed(rec_, "serving.poll", [&] {
      tracker_.Poll(d_->system.get(), cycle, &stats_);
    });
    round_->run_s += t;
    round_->samples["serving.poll_s"].push_back(t);
  }

  /// Queries still to issue.
  int unissued() const { return unissued_; }
  bool Done() const { return pending_.empty() && tracker_.open() == 0; }

  /// Counts every query still open as failed and releases it.
  void Abandon(std::uint64_t cycle) {
    for (const auto& [id, pending] : pending_) {
      ledger_->Fail("query", "query " + std::to_string(id) +
                                 " did not complete within the tail");
    }
    pending_.clear();
    tracker_.Abandon(d_->system.get(), cycle, &stats_);
  }

 private:
  static ArrivalSpec Spec(double rate) {
    ArrivalSpec spec;
    spec.kind = ArrivalKind::kPoisson;
    spec.rate = rate;
    spec.slo_cycles = kSloCycles;
    return spec;
  }

  void Finish(std::uint64_t id, const PendingQuery& pending,
              std::uint64_t cycle) {
    const ActiveQuery& query = d_->system->query(id);
    ledger_->Ok("query");
    const std::vector<ScoredItem> got = FinalTopK(query);
    if (exact_) {
      ledger_->Check("topk_check", CheckTopK(got, pending.expected));
    }
    std::size_t hit = 0;
    for (const auto& [item, worst] : got) {
      for (const auto& [ref_item, score] : pending.expected) {
        if (item == ref_item) ++hit;
      }
    }
    round_->samples["recall_at_k"].push_back(
        pending.expected.empty()
            ? 1.0
            : static_cast<double>(hit) /
                  static_cast<double>(pending.expected.size()));
    round_->samples["query_cycles"].push_back(
        static_cast<double>(cycle - pending.issue_cycle));
    round_->samples["query_bytes"].push_back(
        static_cast<double>(query.traffic().TotalBytes()));
  }

  Deployment* d_;
  ArrivalProcess arrivals_;
  int fixed_;     ///< queries per cycle; -1: Poisson arrivals
  int unissued_;  ///< queries still to issue
  Rng rng_;
  ServingTracker tracker_;
  QueryLatencyStats stats_;
  bool exact_;
  SpanRecorder* rec_;
  Round* round_;
  Ledger* ledger_;
  std::map<std::uint64_t, PendingQuery> pending_;
};

void LazyCycle(Deployment* d, SpanRecorder* rec, Round* round) {
  round->user_cycles += static_cast<double>(d->system->network().NumOnline());
  const double t =
      Timed(rec, "sim.lazy.cycle", [&] { d->system->RunLazyCycles(1); });
  round->run_s += t;
  round->samples["sim.lazy.cycle_s"].push_back(t);
}

void EagerCycle(Deployment* d, SpanRecorder* rec, Round* round) {
  round->user_cycles += static_cast<double>(d->system->network().NumOnline());
  const double t =
      Timed(rec, "sim.eager.cycle", [&] { d->system->RunEagerCycles(1); });
  round->run_s += t;
  round->samples["sim.eager.cycle_s"].push_back(t);
}

/// Runs eager cycles without arrivals until every query completed.
void DrainQueries(Deployment* d, QueryStream* queries, std::uint64_t* cycle,
                  SpanRecorder* rec, Round* round) {
  for (int tail = 0; !queries->Done(); ++tail) {
    if (tail == kMaxTailCycles) {
      queries->Abandon(*cycle);
      return;
    }
    EagerCycle(d, rec, round);
    queries->AfterEagerCycle(++*cycle);
  }
}

// lazy-maintenance: bootstrap, then lazy cycles only; after every cycle
// the sampled networks are checked and must never get worse.
void LazyMaintenanceRound(std::uint64_t seed, SpanRecorder* rec,
                          PhaseProfiler* profiler, Samples* setup, Round* round,
                          Ledger* ledger) {
  Deployment d;
  round->samples["setup_s"].push_back(SetUp(seed, false, rec, setup, &d));
  d.system->SetProfiler(profiler);
  const std::vector<UserId> sample = SampleNodes(seed);
  std::vector<std::vector<std::uint64_t>> before(sample.size());
  const Metrics start = d.system->metrics().Snapshot();
  for (int c = 0; c < kLazyCycles; ++c) {
    LazyCycle(&d, rec, round);
    Timed(rec, "bench.check", [&] {
      for (std::size_t i = 0; i < sample.size(); ++i) {
        const NetworkView view = ViewOf(*d.system, sample[i]);
        ledger->Check("network_check", CheckNetwork(view, d.history));
        std::vector<std::uint64_t> after = ScoreVector(view);
        ledger->Check("monotone_check", CheckMonotone(before[i], after));
        before[i] = std::move(after);
      }
    });
  }
  round->traffic = d.system->metrics().Since(start);
  AddMemory(*d.system, &round->samples);
  Timed(rec, "bench.check", [&] {
    round->samples["success_ratio"].push_back(SampledSuccessRatio(d, sample));
  });
}

// churn-update: lazy convergence, then a mixed lazy/eager timeline with a
// departure wave, two update batches, a full rejoin, a query stream and a
// mid-run checkpoint round trip.
void ChurnUpdateRound(std::uint64_t seed, SpanRecorder* rec,
                      PhaseProfiler* profiler, Samples* setup, Round* round,
                      Ledger* ledger) {
  Deployment d;
  round->samples["setup_s"].push_back(SetUp(seed, false, rec, setup, &d));
  d.system->SetProfiler(profiler);
  const std::vector<UserId> sample = SampleNodes(seed);
  Rng workload_rng(seed * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL);
  const Metrics start = d.system->metrics().Snapshot();
  // Every user's new actions, per batch, for the snapshot check.
  std::unordered_map<UserId, std::vector<Actions>> batches_of;
  double updated_actions = 0;

  for (int c = 0; c < kChurnConvergeCycles; ++c) LazyCycle(&d, rec, round);

  QueryStream queries(&d, seed + 0x51ed27, kChurnQueriesPerCycle,
                      /*fixed=*/true,
                      kChurnQueriesPerCycle *
                          (kChurnStressCycles + kChurnSettleCycles),
                      /*exact=*/false,
                      rec, round, ledger);
  std::uint64_t cycle = 0;
  const auto apply_batch = [&] {
    const ActionsView originals = [&d](UserId u) {
      return std::span<const ActionKey>(d.history.versions[u][0]);
    };
    const UpdateBatch batch =
        d.stream->MakeUpdateBatch(UpdateConfig{}, &workload_rng, originals);
    const double t = Timed(rec, "profile.update_apply",
                           [&] { d.system->ApplyUpdateBatch(batch); });
    round->run_s += t;
    round->samples["profile.update_apply_s"].push_back(t);
    Timed(rec, "bench.check", [&] {
      for (const ProfileUpdate& update : batch.updates) {
        updated_actions += static_cast<double>(update.new_actions.size());
        auto& batches = batches_of[update.user];
        batches.push_back(update.new_actions);
        ledger->Check("update_check",
                      CheckUpdatedSnapshot(
                          d.system->profile_store().Get(update.user)->actions(),
                          d.history.versions[update.user][0], batches));
        d.history.versions[update.user].push_back(SortedUnion(
            d.history.Current(update.user), Canonical(update.new_actions)));
      }
    });
  };
  const auto checkpoint_round_trip = [&] {
    CheckpointWriter first;
    double t = Timed(rec, "sim.checkpoint.save",
                     [&] { d.system->SaveCheckpoint(&first); });
    round->run_s += t;
    round->samples["sim.checkpoint.save_s"].push_back(t);
    round->samples["sim.checkpoint.bytes"].push_back(
        static_cast<double>(first.buffer().size()));
    std::unique_ptr<P3QSystem> fresh;
    Timed(rec, "bench.fresh_system", [&] {
      fresh = NewSystem(StoreFromHistory(d.history), seed);
    });
    CheckpointWriter second;
    try {
      CheckpointReader reader(first.buffer().data(), first.buffer().size());
      t = Timed(rec, "sim.checkpoint.load", [&] { fresh->LoadCheckpoint(&reader); });
      round->run_s += t;
      round->samples["sim.checkpoint.load_s"].push_back(t);
      t = Timed(rec, "sim.checkpoint.save", [&] { fresh->SaveCheckpoint(&second); });
      round->run_s += t;
      round->samples["sim.checkpoint.save_s"].push_back(t);
    } catch (const std::exception& e) {
      ledger->Fail("checkpoint_roundtrip_check", e.what());
      return;
    }
    ledger->Check("checkpoint_roundtrip_check",
                  CheckCheckpointRoundTrip(first.buffer(), second.buffer()));
  };

  for (int c = 0; c < kChurnStressCycles + kChurnSettleCycles; ++c) {
    if (c == kChurnDepartAt) {
      const double t = Timed(rec, "core.depart", [&] {
        d.system->FailRandomFraction(kChurnDepartFraction);
      });
      round->run_s += t;
      round->samples["core.depart_s"].push_back(t);
    }
    if (c == kChurnFirstBatchAt || c == kChurnSecondBatchAt) apply_batch();
    if (c == kChurnCheckpointAt) checkpoint_round_trip();
    if (c == kChurnRejoinAt) {
      const double t = Timed(rec, "core.rejoin", [&] {
        d.system->RejoinRandomFraction(1.0);
      });
      round->run_s += t;
      round->samples["core.rejoin_s"].push_back(t);
    }
    queries.Arrive(cycle);
    LazyCycle(&d, rec, round);
    EagerCycle(&d, rec, round);
    queries.AfterEagerCycle(++cycle);
    Timed(rec, "bench.check", [&] { CheckNetworks(d, sample, ledger); });
  }
  DrainQueries(&d, &queries, &cycle, rec, round);

  round->traffic = d.system->metrics().Since(start);
  round->samples["profile.updated_actions"].push_back(updated_actions);
  AddMemory(*d.system, &round->samples);
  Timed(rec, "bench.check", [&] {
    CheckNetworks(d, sample, ledger);
    round->samples["success_ratio"].push_back(SampledSuccessRatio(d, sample));
  });
}

// query-serving: seeded networks, then eager cycles only under open-loop
// Poisson arrivals and a tail until every query completes. Eager cycles
// leave the networks as seeded; Run checks them after the last round.
void QueryServingRound(Deployment* d, std::uint64_t seed,
                       SpanRecorder* rec, PhaseProfiler* profiler, Round* round,
                       Ledger* ledger) {
  d->system->SetProfiler(profiler);
  const Metrics start = d->system->metrics().Snapshot();
  QueryStream queries(d, seed, kServingRate, /*fixed=*/false,
                      kServingQueries, /*exact=*/true, rec, round, ledger);
  std::uint64_t cycle = 0;
  while (queries.unissued() > 0) {
    queries.Arrive(cycle);
    EagerCycle(d, rec, round);
    queries.AfterEagerCycle(++cycle);
  }
  DrainQueries(d, &queries, &cycle, rec, round);
  round->traffic = d->system->metrics().Since(start);
  AddMemory(*d->system, &round->samples);
  d->system->SetProfiler(nullptr);
}

// -- Metric reports -----------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

void MergeSamples(const Samples& from, Samples* into) {
  for (const auto& [name, values] : from) {
    auto& dst = (*into)[name];
    dst.insert(dst.end(), values.begin(), values.end());
  }
}

/// Query figures of a workload that serves queries. A latency percentile is
/// reported only with at least ten samples beyond it (0 otherwise).
std::vector<Metric> QueryFigures(Samples& all, double run_total,
                                 const std::string& prefix) {
  const std::vector<double>& latency = all["query_cycles"];
  const double n = static_cast<double>(latency.size());
  return {
      {prefix + "queries_per_s", "queries/s", run_total > 0 ? n / run_total : 0},
      {prefix + "query_cycles_p50", "cycles",
       n >= 20 ? GroupedQuantile(latency, 0.5) : 0},
      {prefix + "query_cycles_p95", "cycles",
       n >= 200 ? GroupedQuantile(latency, 0.95) : 0},
      {prefix + "recall_at_k", "ratio", Mean(all["recall_at_k"])},
      {prefix + "query_bytes_mean", "B", Mean(all["query_bytes"])},
  };
}

/// The end-to-end metrics every workload reports, from untraced rounds.
/// `extra` receives the query and checkpoint figures of the workloads that
/// have them.
std::vector<Metric> EndToEndMetrics(const std::vector<Round>& rounds,
                                    const std::vector<double>& setups,
                                    std::vector<Metric>* extra) {
  Samples all;
  double run_total = 0, user_cycles = 0, maintenance_bytes = 0;
  std::vector<double> run_s;
  for (const Round& r : rounds) {
    MergeSamples(r.samples, &all);
    run_s.push_back(r.run_s);
    run_total += r.run_s;
    user_cycles += r.user_cycles;
    for (int t = 0; t < static_cast<int>(MessageType::kCount); ++t) {
      const auto type = static_cast<MessageType>(t);
      if (IsMaintenance(type)) {
        maintenance_bytes += static_cast<double>(r.traffic.Of(type).bytes);
      }
    }
  }
  if (!all["query_cycles"].empty()) {
    for (const Metric& m : QueryFigures(all, run_total, "")) {
      if (m.value != 0) extra->push_back(m);
    }
  }
  if (!all["sim.checkpoint.bytes"].empty()) {
    extra->push_back({"checkpoint_mb", "MiB",
                      Median(all["sim.checkpoint.bytes"]) / kMiB});
  }
  return {
      {"setup_s", "s", Median(setups)},
      {"run_s", "s", Median(run_s)},
      {"user_cycles_per_s", "user-cycles/s", user_cycles / run_total},
      {"peak_rss_mb", "MiB", PeakRssMb()},
      {"success_ratio", "ratio", Mean(all["success_ratio"])},
      {"maintenance_bytes_per_user_cycle", "B",
       maintenance_bytes / user_cycles},
  };
}

/// Per-layer metrics from the traced rounds and the traced set-ups. Every
/// workload prints every name; a layer a workload does not exercise reads 0.
std::vector<Metric> PerLayerMetrics(const std::vector<Round>& rounds,
                                    const Samples& setup,
                                    const PhaseProfiler& profiler) {
  Samples all = setup;
  for (const Round& r : rounds) {
    MergeSamples(r.samples, &all);
    AddTraffic(r.traffic, &all);
  }
  const double n = static_cast<double>(rounds.size());
  const auto per_round = [&](const std::string& name) {
    return Sum(all[name]) / n;
  };
  const auto last = [&](const std::string& name) {
    return all[name].empty() ? 0.0 : all[name].back();
  };
  std::vector<Metric> m = {
      {"dataset.stream_s", "s", Median(all["dataset.stream_s"])},
      {"profile.store_add_s", "s", Median(all["profile.store_add_s"])},
      {"profile.update_apply_s", "s", Median(all["profile.update_apply_s"])},
      {"profile.updated_actions", "count/round", per_round("profile.updated_actions")},
      {"profile.arena_used_mb", "MiB", last("profile.arena_used_mb")},
      {"profile.arena_reserved_mb", "MiB", last("profile.arena_reserved_mb")},
      {"baseline.ideal_networks_s", "s", Median(all["baseline.ideal_networks_s"])},
      {"core.bootstrap_s", "s", Median(all["core.bootstrap_s"])},
      {"core.seed_networks_s", "s", Median(all["core.seed_networks_s"])},
      {"core.issue_query_s", "s", Mean(all["core.issue_query_s"])},
      {"core.queries_issued", "count/round",
       static_cast<double>(all["core.issue_query_s"].size()) / n},
      {"core.depart_s", "s", Median(all["core.depart_s"])},
      {"core.rejoin_s", "s", Median(all["core.rejoin_s"])},
      {"core.network_fill_mean", "entries", last("core.network_fill_mean")},
      {"core.pair_cache_entries", "count", last("core.pair_cache_entries")},
      {"core.pair_cache_evictions", "count", last("core.pair_cache_evictions")},
      {"sim.lazy.cycle_s_p50", "s", Median(all["sim.lazy.cycle_s"])},
      {"sim.eager.cycle_s_p50", "s", Median(all["sim.eager.cycle_s"])},
  };
  const auto phase = [&](const char* label) {
    const auto it = profiler.breakdowns().find(label);
    return it == profiler.breakdowns().end() ? PhaseBreakdown{} : it->second;
  };
  const auto per_cycle = [](double seconds, const PhaseBreakdown& b) {
    return b.cycles == 0 ? 0.0 : seconds / static_cast<double>(b.cycles);
  };
  const PhaseBreakdown lazy = phase("lazy");
  const PhaseBreakdown eager = phase("eager");
  m.push_back({"sim.lazy.plan_s", "s/cycle", per_cycle(lazy.plan_seconds, lazy)});
  m.push_back({"sim.lazy.barrier_s", "s/cycle", per_cycle(lazy.barrier_seconds, lazy)});
  m.push_back({"sim.lazy.drain_s", "s/cycle", per_cycle(lazy.drain_seconds, lazy)});
  m.push_back({"sim.lazy.plan_imbalance_mean", "ratio", lazy.MeanImbalance()});
  m.push_back({"sim.eager.plan_s", "s/cycle", per_cycle(eager.plan_seconds, eager)});
  m.push_back({"sim.eager.drain_s", "s/cycle", per_cycle(eager.drain_seconds, eager)});
  m.push_back({"sim.eager.end_cycle_s", "s/cycle",
               per_cycle(eager.end_cycle_seconds, eager)});
  for (int t = 0; t < static_cast<int>(MessageType::kCount); ++t) {
    const std::string base =
        std::string("sim.msg.") + MessageTypeName(static_cast<MessageType>(t));
    m.push_back({base + ".count", "count/round", per_round(base + ".count")});
    m.push_back({base + ".bytes", "B/round", per_round(base + ".bytes")});
  }
  m.push_back({"sim.checkpoint.save_s", "s", Median(all["sim.checkpoint.save_s"])});
  m.push_back({"sim.checkpoint.load_s", "s", Median(all["sim.checkpoint.load_s"])});
  m.push_back({"sim.checkpoint.bytes", "B", Median(all["sim.checkpoint.bytes"])});
  m.push_back({"serving.poll_s", "s/cycle", Mean(all["serving.poll_s"])});
  double run_total = 0;
  for (const Round& r : rounds) run_total += r.run_s;
  for (Metric& q : QueryFigures(all, run_total, "serving.")) m.push_back(q);
  return m;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}";
}

// -- Driver -------------------------------------------------------------------

int Usage(const char* problem) {
  std::fprintf(stderr,
               "p3q_perfbench: %s\nusage: p3q_perfbench --workload "
               "lazy-maintenance|query-serving|churn-update --seed N "
               "--seconds S --trace 0|1 [--spans PATH]\n",
               problem);
  return 2;
}

int Run(const Options& opt) {
  Ledger ledger;
  SpanRecorder recorder;
  PhaseProfiler profiler;
  SpanRecorder* const rec = opt.trace ? &recorder : nullptr;
  std::vector<Round> untraced, traced;
  std::vector<double> setups;  // set-up times, untraced set-ups only
  Samples setup_samples;  // per-call set-up times of the traced set-ups
  Samples discarded;      // ... and of the untraced ones
  const bool serving = opt.workload == "query-serving";

  // query-serving sets up once (seeding dominates and takes tens of
  // seconds); its rounds share the seeded deployment, each with a query
  // stream of its own, so a run averages over several query mixes. The
  // other workloads set up afresh every round and repeat the same round on
  // the run's seed. A traced query-serving run traces its one set-up and so
  // reports no end-to-end set-up time.
  Deployment shared;
  if (serving) {
    const double t = SetUp(opt.seed, true, rec,
                           opt.trace ? &setup_samples : &discarded, &shared);
    if (!opt.trace) setups.push_back(t);
    Timed(rec, "bench.check",
          [&] { CheckNetworks(shared, SampleNodes(opt.seed), &ledger); });
  }

  // Whole rounds run while the next one is expected to end within
  // `seconds` (at least one round, and with --trace 1 at least one pair);
  // with --trace 1 rounds alternate untraced and traced, and the run lasts
  // twice as long. A traced round repeats the query stream of the untraced
  // round before it, so the two differ only by the tracing.
  const double budget = opt.trace ? 2 * opt.seconds : opt.seconds;
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  for (std::uint64_t i = 0;; ++i) {
    const double round_start = elapsed();
    const bool traced_round = opt.trace && i % 2 == 1;
    SpanRecorder* round_rec = traced_round ? rec : nullptr;
    PhaseProfiler* round_profiler = traced_round ? &profiler : nullptr;
    Samples* setup_into = traced_round ? &setup_samples : &discarded;
    Round round;
    const int span =
        round_rec != nullptr ? round_rec->Begin("bench.round") : -1;
    try {
      if (serving) {
        const std::uint64_t stream = opt.trace ? i / 2 : i;
        QueryServingRound(&shared, opt.seed + 7919 * (stream + 1), round_rec,
                          round_profiler, &round, &ledger);
      } else if (opt.workload == "lazy-maintenance") {
        LazyMaintenanceRound(opt.seed, round_rec, round_profiler, setup_into,
                             &round, &ledger);
      } else {
        ChurnUpdateRound(opt.seed, round_rec, round_profiler, setup_into,
                         &round, &ledger);
      }
    } catch (const std::exception& e) {
      ledger.Fail("round", e.what());
    }
    if (round_rec != nullptr) round_rec->End(span);
    if (!traced_round) {
      for (double s : round.samples["setup_s"]) setups.push_back(s);
    }
    (traced_round ? traced : untraced).push_back(std::move(round));
    if (ledger.failed() > 0) break;
    const double round_s = elapsed() - round_start;  // checks included
    if (elapsed() + round_s > budget && (!opt.trace || !traced.empty())) {
      break;
    }
  }
  if (serving && !untraced.empty()) {
    const std::vector<UserId> sample = SampleNodes(opt.seed);
    CheckNetworks(shared, sample, &ledger);
    untraced.back().samples["success_ratio"].push_back(
        SampledSuccessRatio(shared, sample));
  }
  while (!serving && setups.size() < kSetupSamples && ledger.failed() == 0) {
    Deployment d;
    setups.push_back(SetUp(opt.seed, false, nullptr, &discarded, &d));
  }

  ledger.Print();
  std::vector<Metric> extra;
  const std::vector<Metric> e2e = EndToEndMetrics(untraced, setups, &extra);
  std::vector<Metric> all = e2e;
  all.insert(all.end(), extra.begin(), extra.end());
  if (setups.empty()) {
    all.erase(std::remove_if(all.begin(), all.end(),
                             [](const Metric& m) { return m.name == "setup_s"; }),
              all.end());
  }
  std::printf("rounds %zu untraced, %zu traced; round run_s",
              untraced.size(), traced.size());
  for (const Round& r : untraced) std::printf(" %.3f", r.run_s);
  std::printf("; set-up s");
  for (double s : setups) std::printf(" %.3f", s);
  std::printf("\n");
  std::printf("end_to_end %s\n", MetricsJson(all).c_str());

  std::vector<Metric> printed = e2e;
  if (opt.trace) {
    printed = PerLayerMetrics(traced, setup_samples, profiler);
    std::vector<Metric> self;
    for (const auto& [layer, seconds] : recorder.SelfTimeByLayer()) {
      self.push_back({layer, "s", seconds});
    }
    std::printf("self_time %s\n", MetricsJson(self).c_str());
    std::vector<double> plain, with_trace;
    for (const Round& r : untraced) plain.push_back(r.run_s);
    for (const Round& r : traced) with_trace.push_back(r.run_s);
    std::printf(
        "tracing_overhead run_s untraced %.4f traced %.4f overhead %+.2f%%\n",
        Median(plain), Median(with_trace),
        100.0 * (Median(with_trace) / Median(plain) - 1.0));
    if (!opt.spans_path.empty() && !recorder.WriteJson(opt.spans_path)) {
      std::fprintf(stderr, "p3q_perfbench: cannot write %s\n",
                   opt.spans_path.c_str());
    }
  }
  const bool correct = ledger.failed() == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(ledger.attempted()),
              static_cast<unsigned long long>(ledger.failed()),
              MetricsJson(printed).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace p3q::perfbench

int main(int argc, char** argv) {
  using p3q::perfbench::Usage;
  p3q::perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return Usage("bad --seed");
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0)) return Usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace");
      opt.trace = value == "1";
    } else if (flag == "--spans") {
      opt.spans_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  bool known = false;
  for (const char* w : p3q::perfbench::kWorkloads) known |= opt.workload == w;
  if (!known) return Usage("unknown --workload");
  return p3q::perfbench::Run(opt);
}
