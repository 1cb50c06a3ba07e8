// wormhole — command-line frontend to the library.
//
//   wormhole emulate <default|brpr|dpr|uhp>   Fig. 4-style testbed traces
//   wormhole configs <default|brpr|dpr|uhp>   router configs for a scenario
//   wormhole campaign [seed] [tracefile]      full measurement campaign
//   wormhole crossval [seed]                  Table-3 cross-validation
//   wormhole replay <tracefile>               analyse a persisted tracefile
//
// --jobs N spreads campaign probing over N worker threads (default: the
// hardware concurrency); the results are identical for every N.
//
// Exit status: 0 on success, 1 on a failed run (unreadable or malformed
// input), 2 on a bad command line (usage printed).
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/campaign_report.h"
#include "analysis/correct.h"
#include "analysis/metrics.h"
#include "analysis/report.h"
#include "analysis/tables.h"
#include "campaign/campaign.h"
#include "campaign/crossval.h"
#include "gen/gns3.h"
#include "gen/internet.h"
#include "gen/router_config.h"
#include "io/tracefile.h"
#include "netbase/parse.h"
#include "probe/prober.h"

namespace {

using namespace wormhole;

int Usage() {
  std::cerr <<
      "usage:\n"
      "  wormhole emulate <default|brpr|dpr|uhp>\n"
      "  wormhole configs <default|brpr|dpr|uhp>\n"
      "  wormhole campaign [--jobs N] [seed] [tracefile.out]\n"
      "  wormhole report [--jobs N] [seed] [outdir]\n"
      "  wormhole crossval [seed]\n"
      "  wormhole replay <tracefile>\n"
      "\n"
      "  --jobs N   worker threads for campaign probing\n"
      "             (0 or omitted: hardware concurrency)\n";
  return 2;
}

/// Parses a whole-string decimal number; complains and returns nullopt on
/// anything else (garbage, trailing characters, overflow).
template <typename T>
std::optional<T> ParseArg(std::string_view what, std::string_view text) {
  const auto value = netbase::ParseNumber<T>(text);
  if (!value) std::cerr << "wormhole: bad " << what << " '" << text << "'\n";
  return value;
}

/// Strips `--jobs N` / `--jobs=N` from `args` and returns N (0 = default);
/// nullopt if a value is missing or not a number.
std::optional<std::size_t> ExtractJobs(std::vector<std::string>& args) {
  std::size_t jobs = 0;
  std::vector<std::string> rest;
  for (std::size_t i = 0; i < args.size(); ++i) {
    std::string_view value;
    if (args[i] == "--jobs") {
      value = i + 1 < args.size() ? std::string_view(args[++i]) : "";
    } else if (args[i].starts_with("--jobs=")) {
      value = std::string_view(args[i]).substr(7);
    } else {
      rest.push_back(args[i]);
      continue;
    }
    const auto parsed = ParseArg<std::size_t>("--jobs", value);
    if (!parsed) return std::nullopt;
    jobs = *parsed;
  }
  args = std::move(rest);
  return jobs;
}

/// The seed in args[0], 29 when absent.
std::optional<std::uint64_t> SeedArg(const std::vector<std::string>& args) {
  if (args.empty()) return 29;
  return ParseArg<std::uint64_t>("seed", args[0]);
}

std::optional<gen::Gns3Scenario> ParseScenario(const std::string& name) {
  if (name == "default") return gen::Gns3Scenario::kDefault;
  if (name == "brpr") return gen::Gns3Scenario::kBackwardRecursive;
  if (name == "dpr") return gen::Gns3Scenario::kExplicitRoute;
  if (name == "uhp") return gen::Gns3Scenario::kTotallyInvisible;
  return std::nullopt;
}

int Emulate(const std::string& scenario_name) {
  const auto scenario = ParseScenario(scenario_name);
  if (!scenario) return Usage();
  gen::Gns3Testbed testbed({.scenario = *scenario});
  probe::Prober prober(testbed.engine(), testbed.vantage_point());
  std::cout << "=== " << ToString(*scenario) << " ===\n";
  for (const char* target : {"CE2.left", "PE2.left"}) {
    std::cout << prober.Traceroute(testbed.Address(target))
                     .Format([&](netbase::Ipv4Address a) {
                       return testbed.NameOf(a);
                     })
              << "\n";
  }
  return 0;
}

int Configs(const std::string& scenario_name) {
  const auto scenario = ParseScenario(scenario_name);
  if (!scenario) return Usage();
  gen::Gns3Testbed testbed({.scenario = *scenario});
  std::cout << gen::TestbedConfigs(testbed.topology(), testbed.configs());
  return 0;
}

int RunCampaign(std::uint64_t seed, const std::string& tracefile,
                std::size_t jobs) {
  gen::SyntheticInternet net({.seed = seed});
  std::cout << "world: " << net.profiles().size() << " ASes, "
            << net.topology().router_count() << " routers\n";
  campaign::Campaign campaign(net.engine(), net.vantage_points(),
                              {.jobs = jobs});
  std::cout << "probing with " << campaign.jobs() << " worker thread(s)\n";
  const auto result = campaign.Run(net.AllLoopbacks());
  std::cout << "campaign: " << result.probes_sent << " probes, "
            << result.revelations.size() << " candidate pairs, "
            << result.revealed_count() << " tunnels revealed\n\n";

  const auto corrected = analysis::CorrectedCopy(
      result.inferred, result.revelations,
      campaign::TruthResolver(net.topology()), net.topology());
  analysis::TextTable table({"AS", "pairs", "%rev", "LSR IPs", "density",
                             "->"});
  for (const auto& row : analysis::MakeDiscoveryTable(
           result, corrected, net.topology(), 8)) {
    table.AddRow({"AS" + std::to_string(row.asn),
                  analysis::TextTable::Num(row.ie_pairs),
                  analysis::TextTable::Pct(row.pct_revealed, 0),
                  analysis::TextTable::Num(row.lsr_ips),
                  analysis::TextTable::Real(row.density_before, 2),
                  analysis::TextTable::Real(row.density_after, 2)});
  }
  std::cout << table.ToString();

  std::cout << "\ngraph: degree max "
            << result.inferred.DegreeDistribution().Max() << " -> "
            << corrected.DegreeDistribution().Max()
            << ", clustering "
            << analysis::TextTable::Real(
                   analysis::AverageClustering(result.inferred), 3)
            << " -> "
            << analysis::TextTable::Real(
                   analysis::AverageClustering(corrected), 3)
            << "\n";
  if (!tracefile.empty()) {
    std::ofstream out(tracefile);
    io::WriteTraces(out, result.traces);
    std::cout << "wrote " << result.traces.size() << " traces to "
              << tracefile << "\n";
  }
  return 0;
}

int RunReport(std::uint64_t seed, const std::string& directory,
              std::size_t jobs) {
  gen::SyntheticInternet net({.seed = seed});
  campaign::Campaign campaign(net.engine(), net.vantage_points(),
                              {.jobs = jobs});
  const auto result = campaign.Run(net.AllLoopbacks());
  const auto path = analysis::WriteCampaignArtifacts(directory, result,
                                                     net.topology());
  std::cout << "wrote " << path << " plus CSV series to " << directory
            << "\n";
  return 0;
}

int RunCrossval(std::uint64_t seed) {
  gen::SyntheticInternet net({.seed = seed});
  net.ForceTtlPropagation(true);
  std::vector<probe::Prober> probers;
  for (const auto vp : net.vantage_points()) {
    probers.emplace_back(net.engine(), vp);
  }
  std::vector<probe::TraceResult> traces;
  for (auto& prober : probers) {
    for (const auto loopback : net.AllLoopbacks()) {
      traces.push_back(prober.Traceroute(loopback, {.first_ttl = 2}));
    }
  }
  const auto tunnels =
      campaign::ExtractExplicitTunnels(traces, net.topology());
  const auto summary =
      campaign::CrossValidateAll(probers, tunnels, {.first_ttl = 2});
  std::cout << "explicit tunnels: " << tunnels.size()
            << "  rerun failed: " << summary.rerun_failed << "\n";
  const auto pct = [&](std::size_t v) {
    return 100.0 * static_cast<double>(v) /
           static_cast<double>(std::max<std::size_t>(1, summary.validated()));
  };
  std::cout << "fail " << pct(summary.fail) << "%  DPR " << pct(summary.dpr)
            << "%  BRPR " << pct(summary.brpr) << "%  hybrid "
            << pct(summary.hybrid) << "%  either " << pct(summary.either)
            << "%\n";
  return 0;
}

int Replay(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot open " << path << "\n";
    return 1;
  }
  const auto traces = io::ReadTraces(in);
  std::cout << traces.size() << " traces\n";
  topo::Topology empty;
  const auto dataset = campaign::BuildDataset(
      traces, campaign::InterfaceResolver(), empty);
  const auto degrees = dataset.DegreeDistribution();
  std::cout << "interface-level graph: " << dataset.node_count()
            << " nodes, " << dataset.link_count() << " links, max degree "
            << (degrees.empty() ? 0 : degrees.Max()) << "\n";
  netbase::IntDistribution lengths;
  std::size_t with_mpls = 0;
  for (const auto& trace : traces) {
    if (trace.LastRespondingTtl() > 0) lengths.Add(trace.LastRespondingTtl());
    if (trace.HasExplicitMpls()) ++with_mpls;
  }
  if (!lengths.empty()) {
    std::cout << "path length: median " << lengths.Median() << ", mean "
              << analysis::TextTable::Real(lengths.Mean(), 2) << "\n";
  }
  std::cout << "traces with explicit MPLS labels: " << with_mpls << "\n";
  return 0;
}

int Dispatch(const std::string& command, std::vector<std::string> args) {
  const auto jobs = ExtractJobs(args);
  if (!jobs) return Usage();
  if (command == "emulate" && !args.empty()) return Emulate(args[0]);
  if (command == "configs" && !args.empty()) return Configs(args[0]);
  if (command == "replay" && !args.empty()) return Replay(args[0]);
  if (command != "campaign" && command != "report" && command != "crossval") {
    return Usage();
  }
  const auto seed = SeedArg(args);
  if (!seed) return Usage();
  if (command == "campaign") {
    return RunCampaign(*seed, args.size() >= 2 ? args[1] : "", *jobs);
  }
  if (command == "report") {
    return RunReport(*seed, args.size() >= 2 ? args[1] : "wormhole-report",
                     *jobs);
  }
  return RunCrossval(*seed);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  try {
    return Dispatch(argv[1], std::vector<std::string>(argv + 2, argv + argc));
  } catch (const std::exception& e) {
    std::cerr << "wormhole: " << e.what() << "\n";
    return 1;
  }
}
