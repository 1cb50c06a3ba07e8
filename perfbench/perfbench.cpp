// The repository benchmark's workload runner (README.md in this
// directory). One process runs one workload: it takes a fixed,
// seed-determined sequence of reports one after another (a closed loop
// with one client), sets the world up several times spread over the
// run, checks every report byte for byte outside the timed spans, times
// the host-speed calibration (calibration.h) after each report and
// set-up, and prints the raw samples as one JSON object. run.py turns
// them into the benchmark's metrics.
//
//   perfbench --workload cold-stream|flap-delta --seed N --reports N
//             [--trace 0|1] [--spans FILE] [--corrupt-report I]
//             [--schedule-only]

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/campaign_report.h"
#include "campaign/campaign.h"
#include "campaign/dataset.h"
#include "campaign/targets.h"
#include "campaign/trace_cache.h"
#include "gen/internet.h"
#include "io/tracefile.h"
#include "reveal/revelator.h"
#include "routing/as_path.h"
#include "calibration.h"
#include "spans.h"

namespace perfbench {
namespace {

using namespace wormhole;
using Clock = std::chrono::steady_clock;

enum class Workload : std::uint8_t {
  kColdStream,
  kFlapDelta,
};

std::optional<Workload> ParseWorkload(std::string_view name) {
  if (name == "cold-stream") return Workload::kColdStream;
  if (name == "flap-delta") return Workload::kFlapDelta;
  return std::nullopt;
}

// Every campaign and every world build runs on one worker: on a shared
// host, extra workers made run-to-run medians both slower and noisier.
constexpr std::size_t kJobs = 1;

// Set-ups per run; setup_s is their median. They are spread over the
// run (Bench::Run) and over the CPUs (CpuRotation) so that, like the
// reports, they sample the host's slow and fast spells instead of the
// first few seconds on one CPU only; 16 gives each of 4 CPUs four.
constexpr std::size_t kSetups = 16;

/// Both workloads use perf_micro's size class 1 world (~8.5k routers).
gen::InternetOptions WorldOptions(std::size_t jobs) {
  gen::InternetOptions options;
  options.convergence_jobs = jobs;
  options.seed = 42;
  options.hierarchical = true;
  options.vp_count = 4;
  options.tier1_count = 2;
  options.transit_count = 40;
  options.transit_routers = 32;
  options.stub_count = 2400;
  return options;
}

/// A streaming campaign over 64-target shards.
campaign::CampaignOptions CampaignOptionsFor(std::size_t jobs) {
  campaign::CampaignOptions options;
  options.jobs = jobs;
  options.shard_targets = true;
  options.stream_shard_size = 64;
  return options;
}

/// Every router loopback, in an order drawn from `seed`: the seed varies
/// which vantage point probes which target while keeping the work per
/// report within about 5% across seeds.
std::vector<netbase::Ipv4Address> SeededTargets(
    const gen::SyntheticInternet& world, std::uint64_t seed) {
  std::vector<netbase::Ipv4Address> targets = world.AllLoopbacks();
  std::mt19937_64 rng(seed);
  for (std::size_t i = targets.size(); i > 1; --i) {
    std::swap(targets[i - 1], targets[rng() % i]);
  }
  return targets;
}

/// `rounds` flaps of every tier-1 and transit AS, in an order drawn from
/// `seed`: in each AS, `rounds` distinct internal links drawn from the
/// seed. A flap's cost is set mostly by its AS (the trace cache
/// invalidates by touched AS), so flapping every core AS equally often
/// keeps the mix of cheap and expensive reports the same for every seed.
/// std::mt19937_64's output is fixed by the standard, so the schedule is
/// the same on every platform.
std::vector<topo::LinkId> FlapSchedule(const gen::SyntheticInternet& world,
                                       std::uint64_t seed,
                                       std::size_t rounds) {
  const topo::Topology& topology = world.topology();
  std::map<topo::AsNumber, std::vector<topo::LinkId>> core_links;
  for (topo::LinkId l = 0; l < topology.link_count(); ++l) {
    if (!topology.IsInternalLink(l)) continue;
    const topo::AsNumber asn =
        topology.router(topology.interface(topology.link(l).a).router).asn;
    if (world.profile(asn).role != gen::AsRole::kStub) {
      core_links[asn].push_back(l);
    }
  }
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  const auto shuffle_prefix = [&rng](std::vector<topo::LinkId>& links,
                                     std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      std::swap(links[i], links[i + rng() % (links.size() - i)]);
    }
  };
  std::vector<topo::LinkId> schedule;
  for (auto& [asn, links] : core_links) {
    if (links.size() < rounds) {
      throw std::runtime_error("flap schedule: AS" + std::to_string(asn) +
                               " has too few internal links");
    }
    shuffle_prefix(links, rounds);
    schedule.insert(schedule.end(), links.begin(),
                    links.begin() + static_cast<std::ptrdiff_t>(rounds));
  }
  shuffle_prefix(schedule, schedule.size());
  return schedule;
}

/// The number of tier-1 and transit ASes (one flap round).
std::size_t CoreAsCount(const gen::SyntheticInternet& world) {
  return static_cast<std::size_t>(std::count_if(
      world.profiles().begin(), world.profiles().end(), [](const auto& p) {
        return p.second.role != gen::AsRole::kStub;
      }));
}

/// FNV-1a over 64-bit values.
std::uint64_t Digest(const std::vector<std::uint64_t>& values) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (std::uint64_t v : values) {
    for (int b = 0; b < 8; ++b) {
      hash ^= (v >> (8 * b)) & 0xff;
      hash *= 1099511628211ULL;
    }
  }
  return hash;
}

std::string Hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

sim::EngineStats Minus(const sim::EngineStats& a, const sim::EngineStats& b) {
  return {a.packets_injected - b.packets_injected,
          a.hops_processed - b.hops_processed,
          a.icmp_generated - b.icmp_generated,
          a.labels_pushed - b.labels_pushed,
          a.labels_popped - b.labels_popped};
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Moves the process from CPU to CPU, one report or set-up at a time.
/// On the reference host the vCPUs ran at speeds up to 1.45x apart for
/// minutes at a time, and the scheduler keeps a lone busy thread on one
/// CPU, so without rotating a run measured mostly one CPU's speed and
/// runs differed by which CPU they drew. Rotating over every CPU the
/// process may use makes each run sample all of them alike.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof(all_), &all_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &all_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() { Release(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins the process to the k-th CPU of its original set, cyclically.
  /// Does nothing when there is only one.
  void PinTo(std::size_t k) {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[k % cpus_.size()], &one);
    (void)sched_setaffinity(0, sizeof(one), &one);
  }

  /// Back to the original set, before anything runs on several workers.
  void Release() {
    if (cpus_.size() >= 2) (void)sched_setaffinity(0, sizeof(all_), &all_);
  }

  [[nodiscard]] std::size_t cpus() const { return cpus_.size(); }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
};

/// Empty when equal, else where the bytes first differ.
std::string Mismatch(const std::string& expected, const std::string& actual) {
  if (expected == actual) return {};
  std::size_t at = 0;
  while (at < expected.size() && at < actual.size() &&
         expected[at] == actual[at]) {
    ++at;
  }
  return "differs at byte " + std::to_string(at) + " of " +
         std::to_string(expected.size());
}

/// What one report produced, and how long it took.
struct Taken {
  campaign::CampaignResult result;
  std::string text;
  double total_s = 0.0;
  double run_s = 0.0;
  sim::EngineStats stats;
};

std::string Render(const campaign::CampaignResult& result,
                   const topo::Topology& topology, SpanLog* log) {
  const Span span(log, "analysis.WriteCampaignReport");
  std::ostringstream os;
  analysis::WriteCampaignReport(os, result, topology);
  return std::move(os).str();
}

/// A cold report: a fresh Campaign, Run and render.
Taken TakeCold(gen::SyntheticInternet& world,
               const std::vector<netbase::Ipv4Address>& targets,
               const campaign::CampaignOptions& options, SpanLog* log) {
  Taken taken;
  const sim::EngineStats before = world.engine().stats();
  const auto start = Clock::now();
  {
    campaign::Campaign campaign(world.engine(), world.vantage_points(),
                                options);
    const auto run_start = Clock::now();
    {
      const Span span(log, "campaign.Campaign.Run");
      taken.result = campaign.Run(targets);
    }
    taken.run_s = Since(run_start);
  }
  taken.text = Render(taken.result, world.topology(), log);
  taken.total_s = Since(start);
  taken.stats = Minus(world.engine().stats(), before);
  return taken;
}

/// A flap report: the link changes state, the network reconverges, the
/// cache is invalidated against the new AS level and RunDelta brings the
/// report up to date.
Taken TakeFlap(gen::SyntheticInternet& world, campaign::Campaign& campaign,
               campaign::TraceCache& cache,
               const std::vector<netbase::Ipv4Address>& targets,
               topo::LinkId link, bool up, SpanLog* log) {
  Taken taken;
  const sim::EngineStats before = world.engine().stats();
  const auto start = Clock::now();
  {
    const Span span(log, "topo.Topology.SetLinkUp");
    world.mutable_topology().SetLinkUp(link, up);
  }
  routing::ConvergenceDelta delta;
  {
    const Span span(log, "routing.Network.OnLinkStateChange");
    delta = world.network().OnLinkStateChange(link);
  }
  std::optional<routing::AsPathOracle> oracle;
  {
    const Span span(log, "routing.AsPathOracle");
    oracle.emplace(world.topology(), world.network().bgp_level(),
                   world.network().bgp_policy());
  }
  {
    const Span span(log, "campaign.TraceCache.Invalidate");
    cache.Invalidate(delta, *oracle);
  }
  const auto run_start = Clock::now();
  {
    const Span span(log, "campaign.Campaign.RunDelta");
    taken.result = campaign.RunDelta(targets, cache);
  }
  taken.run_s = Since(run_start);
  taken.text = Render(taken.result, world.topology(), log);
  taken.total_s = Since(start);
  taken.stats = Minus(world.engine().stats(), before);
  return taken;
}

struct Config {
  Workload workload = Workload::kColdStream;
  std::uint64_t seed = 1;
  std::size_t reports = 0;
  bool traced = false;
  std::string spans_path;
  std::int64_t corrupt_report = -1;
};

/// Minimal JSON object writer; doubles keep all 17 significant digits.
class Json {
 public:
  explicit Json(std::ostream& os) : os_(os) {
    os_ << std::setprecision(17);
  }
  Json& Key(std::string_view key) {
    Sep();
    os_ << '"' << key << "\":";
    fresh_ = true;
    return *this;
  }
  template <typename T>
  Json& Value(const T& value) {
    Sep();
    if constexpr (std::is_same_v<T, bool>) {
      os_ << (value ? "true" : "false");
    } else if constexpr (std::is_arithmetic_v<T>) {
      os_ << value;
    } else {
      os_ << '"';
      for (const char c : std::string_view(value)) {
        if (c == '"' || c == '\\') {
          os_ << '\\' << c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
          char escaped[8];
          std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
          os_ << escaped;
        } else {
          os_ << c;
        }
      }
      os_ << '"';
    }
    return *this;
  }
  template <typename T>
  Json& Field(std::string_view key, const T& value) {
    return Key(key).Value(value);
  }
  Json& Open(char bracket) {
    Sep();
    os_ << bracket;
    fresh_ = true;
    return *this;
  }
  Json& Close(char bracket) {
    os_ << bracket;
    fresh_ = false;
    return *this;
  }

 private:
  void Sep() {
    if (!fresh_) os_ << ',';
    fresh_ = false;
  }
  std::ostream& os_;
  bool fresh_ = true;
};

class Bench {
 public:
  explicit Bench(const Config& config)
      : config_(config),
        options_(CampaignOptionsFor(kJobs)),
        flap_(config.workload == Workload::kFlapDelta) {}

  /// The set-ups are spread over the run. A cold-stream report does not
  /// depend on the world's history, so after the first set-up the others
  /// replace the live world at evenly spaced points of the report loop.
  /// flap-delta's live world carries the flap loop's growing cache, so
  /// it takes the first half of its set-ups before the loop (the last of
  /// them stays live) and the rest after it, once the live state is gone.
  void Run(std::ostream& os) {
    std::size_t setups = 0;
    const std::size_t before = flap_ ? (kSetups + 1) / 2 : 1;
    while (setups < before) SetUp(setups++);
    if (flap_) {
      // Whole rounds over the core ASes, as close to --reports as that
      // allows.
      const std::size_t round = 2 * CoreAsCount(*world_);
      schedule_ = FlapSchedule(
          *world_, config_.seed,
          std::max<std::size_t>(1, (config_.reports + round / 2) / round));
      flaps_ = schedule_.size();
      cache_fill_bytes_ = cache_->RetainedBytes();
    }
    const std::size_t reports = flap_ ? 2 * schedule_.size()
                                      : config_.reports;
    // Re-enact at most about 50 evenly spaced traced reports, which
    // bounds the traced run's length and span count.
    const std::size_t stride = 2 * ((reports + 99) / 100);
    for (std::size_t i = 0; i < reports; ++i) {
      while (!flap_ && setups < kSetups && i * kSetups >= setups * reports) {
        SetUp(setups++);
      }
      const std::size_t unit = flap_ ? i / 2 : i;
      const bool traced = config_.traced && unit % 2 == 1;
      TakeReport(i, traced ? &spans_ : nullptr,
                 traced && unit % stride == 1);
    }
    if (flap_) {
      cache_final_bytes_ = cache_->RetainedBytes();
      campaign_.reset();
      cache_.reset();
      world_.reset();
    }
    while (setups < kSetups) SetUp(setups++);
    rotation_.Release();
    if (config_.traced) {
      spans_.set_report(-1);
      if (!flap_) SideFlap();
      SideExec();
    }
    Write(os);
  }

  [[nodiscard]] const SpanLog& spans() const { return spans_; }

 private:
  struct Sample {
    double total_s = 0.0;
    double run_s = 0.0;
    // The calibration's time right after the report (calibration.h).
    double calib_s = 0.0;
    std::uint64_t probes = 0;
    std::uint64_t packets = 0;
    std::uint64_t hops = 0;
    bool traced = false;
    bool ok = false;
  };
  struct SetupSample {
    double build_s = 0.0;
    double warm_s = 0.0;
    double calib_s = 0.0;
  };
  struct Reenacted {
    std::size_t report = 0;
    std::uint64_t targeted_traces = 0;
    std::uint64_t targeted_probes = 0;
    std::uint64_t pings = 0;
    std::uint64_t reveal_pairs = 0;
    std::uint64_t revealed = 0;
    std::uint64_t reveal_traces = 0;
    std::uint64_t probing_hops = 0;
    std::uint64_t io_bytes = 0;
  };

  void Fail(const std::string& what) {
    ++failed_;
    if (failures_.size() < 20) failures_.push_back(what);
  }

  /// Set-up `k`: builds a fresh world and takes the warm-up report (on
  /// flap-delta, a RunDelta that fills a fresh cache), both timed; the
  /// world, campaign and cache stay live. The warm-up is checked
  /// afterwards, untimed. Set-up 0 also fixes the reference every later
  /// report must match: its own warm-up on cold-stream, a cold Run of
  /// its world on flap-delta.
  void SetUp(std::size_t k) {
    rotation_.PinTo(k);
    spans_.set_report(-1);
    SpanLog* log = config_.traced ? &spans_ : nullptr;
    world_.reset();
    campaign_.reset();
    cache_.reset();
    const std::string where = "warm-up " + std::to_string(k);
    Taken warm;
    ++attempted_;
    try {
      const Span root(log, "setup");
      auto start = Clock::now();
      {
        const Span span(log, "gen.SyntheticInternet");
        world_ = std::make_unique<gen::SyntheticInternet>(WorldOptions(kJobs));
      }
      const double build_s = Since(start);
      if (targets_.empty()) targets_ = SeededTargets(*world_, config_.seed);
      start = Clock::now();
      if (flap_) {
        campaign_ = std::make_unique<campaign::Campaign>(
            world_->engine(), world_->vantage_points(), options_);
        cache_ = std::make_unique<campaign::TraceCache>();
        {
          const Span span(log, "campaign.Campaign.RunDelta");
          warm.result = campaign_->RunDelta(targets_, *cache_);
        }
        warm.text = Render(warm.result, world_->topology(), log);
      } else {
        warm = TakeCold(*world_, targets_, options_, log);
      }
      const double warm_s = Since(start);
      setup_.push_back({build_s, warm_s, calibration_.Measure()});
    } catch (const std::exception& e) {
      // Without a reference, or without the state the loop runs on,
      // nothing is left to run.
      if (k == 0 || !world_ || (flap_ && !cache_)) throw;
      Fail(where + ": " + e.what());
      return;
    }
    if (k == 0) {
      const Taken& reference =
          flap_ ? TakeCold(*world_, targets_, options_, nullptr) : warm;
      ref_text_ = reference.text;
      ref_probes_ = reference.result.probes_sent;
      ref_packets_ = reference.stats.packets_injected;
    }
    const std::string diff = ReferenceMismatch(warm);
    if (!diff.empty()) Fail(where + " " + diff);
  }

  /// Empty when `taken` equals the reference report and its counts, else
  /// what differs. Engine packets are compared on cold-stream only: a
  /// flap-delta report serves part of its traces from the cache.
  std::string ReferenceMismatch(const Taken& taken) const {
    std::string diff = Mismatch(ref_text_, taken.text);
    if (diff.empty() && taken.result.probes_sent != ref_probes_) {
      diff = "probe count";
    }
    if (diff.empty() && !flap_ &&
        taken.stats.packets_injected != ref_packets_) {
      diff = "packet count";
    }
    return diff;
  }

  void TakeReport(std::size_t i, SpanLog* log, bool reenact) {
    // Two units (reports, or flaps of two reports) per CPU: link-down
    // and link-up reports, and the traced and untraced units a traced
    // run alternates, all visit every CPU alike.
    rotation_.PinTo((flap_ ? i / 2 : i) / 2);
    spans_.set_report(static_cast<std::int64_t>(i));
    ++attempted_;
    Sample sample;
    sample.traced = log != nullptr;
    const topo::LinkId link = flap_ ? schedule_[i / 2] : topo::kNoLink;
    const bool up = i % 2 == 1;
    Taken taken;
    try {
      {
        const Span root(log, "report");
        taken = flap_ ? TakeFlap(*world_, *campaign_, *cache_, targets_,
                                 link, up, log)
                      : TakeCold(*world_, targets_, options_, log);
      }
      sample.calib_s = calibration_.Measure();
      sample.total_s = taken.total_s;
      sample.run_s = taken.run_s;
      sample.probes = taken.result.probes_sent;
      sample.packets = taken.stats.packets_injected;
      sample.hops = taken.stats.hops_processed;
      pairs_total_ += taken.result.delta_pairs_total;
      pairs_reprobed_ += taken.result.delta_pairs_reprobed;
      if (static_cast<std::int64_t>(i) == config_.corrupt_report &&
          !taken.text.empty()) {
        taken.text[taken.text.size() / 2] ^= 1;
      }
      sample.ok = CheckReport(i, taken, up);
    } catch (const std::exception& e) {
      Fail("report " + std::to_string(i) + ": " + e.what());
    }
    samples_.push_back(sample);
    if (reenact && sample.ok) Reenact(i, taken.result);
  }

  /// Every check runs here, outside the timed spans.
  bool CheckReport(std::size_t i, const Taken& taken, bool up) {
    std::string diff;
    if (!flap_ || up) {
      diff = ReferenceMismatch(taken);
    } else if ((i / 2) % 50 == 0) {
      // A link-down report must equal a cold Run of the same state.
      ++down_checked_;
      const Taken cold = TakeCold(*world_, targets_, options_, nullptr);
      diff = Mismatch(cold.text, taken.text);
      if (diff.empty() &&
          taken.result.probes_sent != cold.result.probes_sent) {
        diff = "probe count";
      }
      if (cold.text != ref_text_) ++down_differs_;
    }
    if (diff.empty()) return true;
    Fail("report " + std::to_string(i) + " " + diff);
    return false;
  }

  /// Re-enacts a report's campaign phases through public functions on
  /// fresh probers, so the traced run can split Run's time by phase: the
  /// program has no spans of its own inside Run.
  void Reenact(std::size_t i, const campaign::CampaignResult& report) {
    SpanLog* log = &spans_;
    const sim::Engine& engine = world_->engine();
    const topo::Topology& topology = world_->topology();
    const auto& vps = world_->vantage_points();
    Reenacted r;
    r.report = i;
    const Span root(log, "reenact");
    if (flap_) {
      // RunDelta is partial; the phases are compared with a cold Run.
      campaign::Campaign cold(engine, vps, options_);
      const Span span(log, "campaign.Campaign.Run");
      (void)cold.Run(targets_);
    }
    const sim::EngineStats before = engine.stats();
    std::vector<probe::TraceResult> discovery;
    {
      campaign::Campaign campaign(engine, vps, options_);
      const Span span(log, "campaign.Campaign.RunDiscovery");
      discovery = campaign.RunDiscovery(targets_);
    }
    topo::ItdkDataset dataset;
    {
      const Span span(log, "campaign.BuildDataset");
      dataset = campaign::BuildDataset(
          discovery, campaign::TruthResolver(topology), topology);
    }
    campaign::TargetSets sets;
    {
      const Span span(log, "campaign.SelectTargets");
      sets = campaign::SelectTargets(dataset, options_.hdn_threshold);
    }
    const auto shards =
        options_.shard_targets
            ? campaign::ShardTargets(sets.all, vps.size())
            : std::vector<std::vector<netbase::Ipv4Address>>(vps.size(),
                                                             sets.all);
    std::vector<probe::Prober> probers;
    for (const netbase::Ipv4Address vp : vps) probers.emplace_back(engine, vp);
    probe::TraceOptions trace_options = options_.trace_options;
    trace_options.batched = options_.batched_stepping;
    std::vector<probe::TraceResult> targeted;
    {
      const Span phase(log, "probe.targeted");
      for (std::size_t vp = 0; vp < vps.size(); ++vp) {
        const std::uint64_t sent = probers[vp].probes_sent();
        for (const netbase::Ipv4Address target : shards[vp]) {
          const Span span(log, "probe.Prober.Traceroute");
          targeted.push_back(probers[vp].Traceroute(target, trace_options));
        }
        r.targeted_probes += probers[vp].probes_sent() - sent;
      }
    }
    r.targeted_traces = targeted.size();
    // The campaign reveals a pair from the vantage point whose targeted
    // trace first ended ... X, Y, D; find it among the re-enacted traces
    // (the campaign's own on a loss-free world).
    std::map<campaign::EndpointPair, std::size_t> owner;
    for (std::size_t t = 0, vp = 0; vp < vps.size(); ++vp) {
      for (std::size_t n = 0; n < shards[vp].size(); ++n, ++t) {
        const auto last3 = targeted[t].LastResponders(3);
        if (!targeted[t].reached || last3.size() < 3) continue;
        const campaign::EndpointPair pair{last3[0], last3[1]};
        if (report.revelations.contains(pair)) owner.emplace(pair, vp);
      }
    }
    {
      const Span phase(log, "reveal.phase");
      for (const auto& [pair, unused] : report.revelations) {
        const auto it = owner.find(pair);
        probe::Prober& prober = probers[it != owner.end() ? it->second : 0];
        reveal::Revelator revelator(prober, {.trace_options = trace_options});
        const Span span(log, "reveal.Revelator.Reveal");
        const reveal::RevelationResult result =
            revelator.Reveal(pair.ingress, pair.egress);
        ++r.reveal_pairs;
        r.revealed += result.succeeded() ? 1 : 0;
        r.reveal_traces += static_cast<std::uint64_t>(result.traces_used);
      }
    }
    {
      const Span phase(log, "fingerprint.phase");
      std::size_t k = 0;
      for (const auto& [address, unused] : report.signatures.SortedEntries()) {
        probe::Prober& prober = probers[k++ % probers.size()];
        const Span span(log, "probe.Prober.Ping");
        (void)prober.Ping(address);
        ++r.pings;
      }
    }
    r.probing_hops = Minus(engine.stats(), before).hops_processed;
    // The io layer: the re-enacted targeted traces to a tracefile in
    // memory and back, as `wormhole campaign ... tracefile` and `replay`.
    std::string bytes;
    {
      const Span span(log, "io.WriteTraces");
      std::ostringstream os;
      io::WriteTraces(os, targeted);
      bytes = std::move(os).str();
    }
    {
      const Span span(log, "io.ReadTraces");
      std::istringstream in(bytes);
      (void)io::ReadTraces(in);
    }
    r.io_bytes = bytes.size();
    reenacted_.push_back(r);
  }

  /// cold-stream's traced run: its reports never flap a link, but a traced
  /// run prints every per-layer metric, so it flaps 12 core links (down
  /// and up) on its own world with a cache-backed RunDelta for the
  /// routing and cache numbers.
  void SideFlap() {
    SpanLog* log = &spans_;
    const Span root(log, "side.flap");
    campaign::Campaign campaign(world_->engine(), world_->vantage_points(),
                                options_);
    campaign::TraceCache cache;
    (void)campaign.RunDelta(targets_, cache);
    cache_fill_bytes_ = cache.RetainedBytes();
    std::vector<topo::LinkId> links = FlapSchedule(*world_, config_.seed, 1);
    links.resize(std::min<std::size_t>(links.size(), 12));
    for (const topo::LinkId link : links) {
      for (const bool up : {false, true}) {
        const Taken taken =
            TakeFlap(*world_, campaign, cache, targets_, link, up, log);
        pairs_total_ += taken.result.delta_pairs_total;
        pairs_reprobed_ += taken.result.delta_pairs_reprobed;
      }
    }
    flaps_ = links.size();
    cache_final_bytes_ = cache.RetainedBytes();
  }

  /// Traced runs only, for the exec metrics: world build at 1 and 4
  /// workers and a cold Run at 1, 2 and 4 workers, five times each, the
  /// worker counts interleaved so host drift touches them alike. Both
  /// workloads share the world and the campaign options, so this is
  /// cold-stream's Run on either; flap-delta runs it too because a traced
  /// run prints every per-layer metric.
  void SideExec() {
    SpanLog* log = &spans_;
    for (int rep = 0; rep < 5; ++rep) {
      for (const std::size_t jobs : {1, 4}) {
        std::unique_ptr<gen::SyntheticInternet> world;
        const Span span(log, jobs == 1 ? "exec.build_j1" : "exec.build_j4");
        world = std::make_unique<gen::SyntheticInternet>(
            WorldOptions(jobs));
      }
      for (const std::size_t jobs : {1, 2, 4}) {
        campaign::Campaign campaign(
            world_->engine(), world_->vantage_points(),
            CampaignOptionsFor(jobs));
        const Span span(log, jobs == 1   ? "exec.run_j1"
                             : jobs == 2 ? "exec.run_j2"
                                         : "exec.run_j4");
        (void)campaign.Run(targets_);
      }
    }
  }

  void Write(std::ostream& os) {
    std::vector<std::uint64_t> counts;
    for (const Sample& s : samples_) {
      counts.push_back(s.probes);
      counts.push_back(s.packets);
    }
    std::vector<std::uint64_t> links(schedule_.begin(), schedule_.end());
    Json json(os);
    json.Open('{');
    json.Field("seed", config_.seed)
        .Field("traced", config_.traced)
        .Field("campaign_jobs", options_.jobs)
        .Field("convergence_jobs", kJobs)
        .Field("cpus_rotated", rotation_.cpus())
        .Field("build_type", PERFBENCH_BUILD_TYPE)
        .Field("compiler", PERFBENCH_COMPILER)
        .Field("attempted", attempted_)
        .Field("failed", failed_);
    json.Key("failures").Open('[');
    for (const std::string& f : failures_) json.Value(f);
    json.Close(']');
    json.Key("schedule").Open('[');
    for (const std::uint64_t l : links) json.Value(l);
    json.Close(']');
    json.Field("schedule_digest", Hex(Digest(links)))
        .Field("counts_digest", Hex(Digest(counts)))
        .Field("down_checked", down_checked_)
        .Field("down_differs_from_reference", down_differs_)
        .Field("flaps", flaps_)
        .Field("pairs_total", pairs_total_)
        .Field("pairs_reprobed", pairs_reprobed_)
        .Field("cache_fill_bytes", cache_fill_bytes_)
        .Field("cache_final_bytes", cache_final_bytes_)
        .Field("peak_rss_mb", PeakRssMb())
        .Field("spans", spans_.size());
    json.Key("setup").Open('[');
    for (const SetupSample& s : setup_) {
      json.Open('[').Value(s.build_s).Value(s.warm_s).Value(s.calib_s)
          .Close(']');
    }
    json.Close(']');
    json.Key("reports").Open('[');
    for (const Sample& s : samples_) {
      json.Open('{')
          .Field("total_s", s.total_s)
          .Field("run_s", s.run_s)
          .Field("calib_s", s.calib_s)
          .Field("probes", s.probes)
          .Field("packets", s.packets)
          .Field("hops", s.hops)
          .Field("traced", s.traced)
          .Field("ok", s.ok)
          .Close('}');
    }
    json.Close(']');
    json.Key("reenacted").Open('[');
    for (const Reenacted& r : reenacted_) {
      json.Open('{')
          .Field("report", r.report)
          .Field("targeted_traces", r.targeted_traces)
          .Field("targeted_probes", r.targeted_probes)
          .Field("pings", r.pings)
          .Field("reveal_pairs", r.reveal_pairs)
          .Field("revealed", r.revealed)
          .Field("reveal_traces", r.reveal_traces)
          .Field("probing_hops", r.probing_hops)
          .Field("io_bytes", r.io_bytes)
          .Close('}');
    }
    json.Close(']');
    json.Close('}');
    os << '\n';
  }

  Config config_;
  campaign::CampaignOptions options_;
  bool flap_;
  std::unique_ptr<gen::SyntheticInternet> world_;
  std::unique_ptr<campaign::Campaign> campaign_;
  std::unique_ptr<campaign::TraceCache> cache_;
  std::vector<netbase::Ipv4Address> targets_;
  std::vector<topo::LinkId> schedule_;
  std::string ref_text_;
  std::uint64_t ref_probes_ = 0;
  std::uint64_t ref_packets_ = 0;
  std::vector<SetupSample> setup_;
  std::vector<Sample> samples_;
  std::vector<Reenacted> reenacted_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::uint64_t down_checked_ = 0;
  std::uint64_t down_differs_ = 0;
  // Flaps taken (the report loop's on flap-delta, SideFlap's on
  // cold-stream), the pairs their RunDeltas covered and re-probed, and
  // the cache size before the first flap and after the last.
  std::uint64_t flaps_ = 0;
  std::uint64_t pairs_total_ = 0;
  std::uint64_t pairs_reprobed_ = 0;
  std::uint64_t cache_fill_bytes_ = 0;
  std::uint64_t cache_final_bytes_ = 0;
  SpanLog spans_;
  CpuRotation rotation_;
  Calibration calibration_;
};

int Usage() {
  std::cerr << "usage: perfbench --workload cold-stream|flap-delta"
               " --seed N --reports N\n"
               "       [--trace 0|1] [--spans FILE] [--corrupt-report I]"
               " [--schedule-only]\n";
  return 2;
}

/// Parses a whole decimal number that fits in 64 bits; nullopt on
/// anything else.
std::optional<std::uint64_t> ParseCount(const std::string& text) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (text.empty() || error != std::errc() || stop != end) {
    return std::nullopt;
  }
  return value;
}

int Main(int argc, char** argv) {
  Config config;
  std::optional<Workload> workload;
  std::optional<std::uint64_t> seed;
  bool schedule_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--schedule-only") {
      schedule_only = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    const auto count = ParseCount(value);
    if (arg == "--workload") {
      workload = ParseWorkload(value);
      if (!workload) return Usage();
    } else if (arg == "--spans") {
      config.spans_path = value;
    } else if (!count) {
      return Usage();
    } else if (arg == "--seed") {
      seed = *count;
    } else if (arg == "--reports") {
      config.reports = *count;
    } else if (arg == "--trace") {
      config.traced = *count != 0;
    } else if (arg == "--corrupt-report") {
      config.corrupt_report = static_cast<std::int64_t>(*count);
    } else {
      return Usage();
    }
  }
  if (!workload || !seed) return Usage();
  config.workload = *workload;
  config.seed = *seed;
  if (schedule_only) {
    const gen::SyntheticInternet world(WorldOptions(kJobs));
    Json json(std::cout);
    json.Open('[');
    for (const topo::LinkId l : FlapSchedule(world, *seed, 1)) {
      json.Value(l);
    }
    json.Close(']');
    std::cout << '\n';
    return 0;
  }
  if (config.reports == 0) return Usage();
  Bench bench(config);
  bench.Run(std::cout);
  if (config.traced && !config.spans_path.empty() &&
      !bench.spans().WriteTo(config.spans_path)) {
    std::cerr << "perfbench: cannot write " << config.spans_path << "\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
