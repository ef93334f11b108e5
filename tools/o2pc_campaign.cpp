// o2pc_campaign — randomized fault-campaign runner.
//
// Sweeps fleets of deterministic simulations under injected faults (site
// crashes pinned to protocol steps, partitions, message drops/delays,
// coordinator crashes), judging every run with the oracle battery: the
// trace invariant checker (I1-I7), the paper's serialization-graph
// criterion, the cross-site durability / in-doubt / conservation audit,
// and the crash-restart recovery oracle (complete recovery phases,
// WAL-replay equivalence with the live tables).
// Failing runs are written as replayable {seed, plan} artifacts and
// greedily shrunk to a minimal fault plan.
//
//   o2pc_campaign [--runs N] [--jobs N] [--seed S] [--protocol o2pc|2pc|both]
//                 [--templates a,b,...] [--sites N] [--txns N] [--locals N]
//                 [--abort-prob P] [--time-budget 120s]
//                 [--artifact-dir DIR] [--no-shrink] [--verbose]
//                 [--telemetry-json FILE] [--report FILE.html]
//                 [--duplicate-all[=K]]
//
// --duplicate-all runs the whole sweep under blanket at-least-once
// delivery: every message is delivered 1+K times (K defaults to 1).
// The oracle battery must stay clean — this is the idempotence
// acceptance gate run at volume.
//
// --telemetry-json / --report collect sweep telemetry (commit-phase
// latency profile, protocol/fault coverage map, gauge time-series) and
// write the machine-readable JSON / the self-contained HTML report. The
// telemetry JSON and the printed coverage fingerprint are byte-identical
// for every --jobs.
//
// --jobs N fans independent runs across N worker threads (0 = one per
// hardware thread). Artifacts, fingerprints, and failure reports are
// byte-identical for every job count; the printed sweep fingerprint makes
// that checkable from the command line.
//   o2pc_campaign --replay FILE     # replay an artifact twice, compare
//   o2pc_campaign --inject-bad      # self-test: known-bad plan is caught
//   o2pc_campaign --list-templates
//
// Flags accept both `--flag value` and `--flag=value`.
//
// Exit codes: 0 all runs passed (or the self-test caught the bad plan);
// 1 oracle violations (or self-test miss); 2 nondeterministic replay;
// 64 usage error.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "campaign/runner.h"
#include "campaign/shrink.h"
#include "telemetry/report.h"

using namespace o2pc;

namespace {

struct CliArgs {
  campaign::CampaignOptions options;
  std::string replay_path;
  std::string telemetry_json_path;
  std::string report_path;
  bool inject_bad = false;
  bool list_templates = false;
  bool verbose = false;
  bool ok = true;
};

/// Accepts "120", "120s", "2m"; returns seconds (<= 0 invalid).
double ParseTimeBudget(const std::string& text) {
  if (text.empty()) return -1;
  std::string digits = text;
  double scale = 1.0;
  if (digits.back() == 's') {
    digits.pop_back();
  } else if (digits.back() == 'm') {
    digits.pop_back();
    scale = 60.0;
  }
  try {
    return std::stod(digits) * scale;
  } catch (...) {
    return -1;
  }
}

std::vector<std::string> SplitCsv(const std::string& text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::size_t end = comma == std::string::npos ? text.size() : comma;
    if (end > start) out.push_back(text.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

CliArgs Parse(int argc, char** argv) {
  CliArgs args;
  // Flags take "--flag value" or "--flag=value".
  auto next_value = [&](int* i, const std::string& arg) -> std::string {
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) return arg.substr(eq + 1);
    if (*i + 1 < argc) return argv[++*i];
    std::fprintf(stderr, "%s needs a value\n", arg.c_str());
    args.ok = false;
    return "";
  };
  auto is_flag = [](const std::string& arg, const char* name) {
    return arg == name || arg.rfind(std::string(name) + "=", 0) == 0;
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (is_flag(arg, "--runs")) {
      args.options.runs = std::atoi(next_value(&i, arg).c_str());
    } else if (is_flag(arg, "--jobs")) {
      args.options.jobs = std::atoi(next_value(&i, arg).c_str());
    } else if (is_flag(arg, "--seed")) {
      args.options.base_seed =
          std::strtoull(next_value(&i, arg).c_str(), nullptr, 10);
    } else if (is_flag(arg, "--sites")) {
      args.options.num_sites = std::atoi(next_value(&i, arg).c_str());
    } else if (is_flag(arg, "--txns")) {
      args.options.num_globals = std::atoi(next_value(&i, arg).c_str());
    } else if (is_flag(arg, "--locals")) {
      args.options.num_locals = std::atoi(next_value(&i, arg).c_str());
    } else if (is_flag(arg, "--abort-prob")) {
      args.options.vote_abort_probability =
          std::atof(next_value(&i, arg).c_str());
    } else if (is_flag(arg, "--templates")) {
      args.options.templates = SplitCsv(next_value(&i, arg));
    } else if (is_flag(arg, "--protocol")) {
      const std::string value = next_value(&i, arg);
      if (value == "o2pc") {
        args.options.protocols = {core::CommitProtocol::kOptimistic};
      } else if (value == "2pc") {
        args.options.protocols = {core::CommitProtocol::kTwoPhaseCommit};
      } else if (value == "both") {
        args.options.protocols = {core::CommitProtocol::kOptimistic,
                                  core::CommitProtocol::kTwoPhaseCommit};
      } else {
        std::fprintf(stderr, "unknown protocol '%s'\n", value.c_str());
        args.ok = false;
      }
    } else if (is_flag(arg, "--time-budget")) {
      const std::string value = next_value(&i, arg);
      args.options.time_budget_seconds = ParseTimeBudget(value);
      if (args.options.time_budget_seconds <= 0) {
        std::fprintf(stderr, "bad time budget '%s'\n", value.c_str());
        args.ok = false;
      }
    } else if (is_flag(arg, "--artifact-dir")) {
      args.options.artifact_dir = next_value(&i, arg);
    } else if (is_flag(arg, "--replay")) {
      args.replay_path = next_value(&i, arg);
    } else if (is_flag(arg, "--telemetry-json")) {
      args.telemetry_json_path = next_value(&i, arg);
      args.options.collect_telemetry = true;
    } else if (is_flag(arg, "--report")) {
      args.report_path = next_value(&i, arg);
      args.options.collect_telemetry = true;
    } else if (is_flag(arg, "--duplicate-all")) {
      // "--duplicate-all" alone means one extra copy; "=K" overrides.
      if (arg.find('=') != std::string::npos) {
        args.options.duplicate_copies = std::atoi(next_value(&i, arg).c_str());
        if (args.options.duplicate_copies < 1) {
          std::fprintf(stderr, "bad --duplicate-all count\n");
          args.ok = false;
        }
      } else {
        args.options.duplicate_copies = 1;
      }
    } else if (arg == "--no-shrink") {
      args.options.shrink_failures = false;
    } else if (arg == "--inject-bad") {
      args.inject_bad = true;
    } else if (arg == "--list-templates") {
      args.list_templates = true;
    } else if (arg == "--verbose") {
      args.verbose = true;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      args.ok = false;
    }
  }
  return args;
}

const char* ProtocolFlag(core::CommitProtocol protocol) {
  return protocol == core::CommitProtocol::kOptimistic ? "o2pc" : "2pc";
}

void PrintViolations(const campaign::OracleReport& oracle) {
  for (const std::string& violation : oracle.violations) {
    std::fprintf(stderr, "  %s\n", violation.c_str());
  }
}

/// --replay: run an artifact twice; fingerprints must match and the
/// oracle verdict is reported.
int Replay(const std::string& path) {
  campaign::CampaignRunConfig config;
  std::string error;
  if (!campaign::LoadArtifact(path, &config, &error)) {
    std::fprintf(stderr, "cannot load artifact: %s\n", error.c_str());
    return 64;
  }
  config.render_journal = true;  // the journals are byte-compared below
  std::printf("replaying %s (protocol=%s seed=%llu, %zu fault events)\n",
              path.c_str(), ProtocolFlag(config.protocol),
              static_cast<unsigned long long>(config.seed),
              config.plan.events.size());
  const campaign::CampaignRunResult first = campaign::RunOne(config);
  const campaign::CampaignRunResult second = campaign::RunOne(config);
  std::printf("fingerprint run1=%016llx run2=%016llx (%s)\n",
              static_cast<unsigned long long>(first.fingerprint),
              static_cast<unsigned long long>(second.fingerprint),
              first.fingerprint == second.fingerprint ? "deterministic"
                                                      : "NONDETERMINISTIC");
  if (first.fingerprint != second.fingerprint ||
      first.journal != second.journal) {
    std::fprintf(stderr, "replay divergence: journals differ\n");
    return 2;
  }
  std::printf(
      "committed=%llu aborted=%llu compensations=%llu site_crashes=%llu "
      "coordinator_crashes=%llu dropped=%llu faults=%d makespan_us=%lld\n",
      static_cast<unsigned long long>(first.committed),
      static_cast<unsigned long long>(first.aborted),
      static_cast<unsigned long long>(first.compensations),
      static_cast<unsigned long long>(first.site_crashes),
      static_cast<unsigned long long>(first.coordinator_crashes),
      static_cast<unsigned long long>(first.messages_dropped),
      first.faults_triggered, static_cast<long long>(first.makespan));
  if (!first.recovery_windows.empty()) {
    std::printf("recovery timeline (%zu crash(es)):\n",
                first.recovery_windows.size());
    for (const campaign::RecoveryWindow& window : first.recovery_windows) {
      if (window.begin == 0) {
        std::printf("  site %lld: crash @%lldus, never recovered\n",
                    static_cast<long long>(window.site),
                    static_cast<long long>(window.crash_time));
      } else if (window.end == 0) {
        std::printf(
            "  site %lld: crash @%lldus, recovery began @%lldus "
            "(%lld in-doubt), superseded by a re-crash\n",
            static_cast<long long>(window.site),
            static_cast<long long>(window.crash_time),
            static_cast<long long>(window.begin),
            static_cast<long long>(window.in_doubt));
      } else {
        std::printf(
            "  site %lld: crash @%lldus, recovery %lldus..%lldus, "
            "%lld in-doubt, %lld left to termination\n",
            static_cast<long long>(window.site),
            static_cast<long long>(window.crash_time),
            static_cast<long long>(window.begin),
            static_cast<long long>(window.end),
            static_cast<long long>(window.in_doubt),
            static_cast<long long>(window.unresolved));
      }
    }
  }
  if (!first.ok()) {
    std::printf("oracle violations (%zu):\n", first.oracle.violations.size());
    PrintViolations(first.oracle);
    return 1;
  }
  std::printf("oracles: ok\n");
  return 0;
}

/// --inject-bad: self-test that the oracle battery catches a deliberately
/// lethal plan and that shrinking strips its noise events.
int InjectBad(const campaign::CampaignOptions& options) {
  campaign::CampaignRunConfig config;
  config.protocol = core::CommitProtocol::kOptimistic;
  config.seed = options.base_seed;
  config.num_sites = options.num_sites;
  config.keys_per_site = options.keys_per_site;
  config.num_globals = options.num_globals;
  config.num_locals = options.num_locals;
  config.vote_abort_probability = options.vote_abort_probability;
  config.template_name = "known_bad";
  config.plan = campaign::KnownBadPlan(config.num_sites);

  const campaign::CampaignRunResult result = campaign::RunOne(config);
  if (result.ok()) {
    std::fprintf(stderr,
                 "self-test FAILED: known-bad plan passed the oracles\n");
    return 1;
  }
  std::printf("known-bad plan detected (%zu violations):\n",
              result.oracle.violations.size());
  PrintViolations(result.oracle);

  const campaign::ShrinkResult shrunk = campaign::ShrinkFaultPlan(config);
  std::printf("shrunk %zu -> %zu fault events in %d runs:\n%s",
              config.plan.events.size(), shrunk.plan.events.size(),
              shrunk.runs_used, shrunk.plan.ToString().c_str());
  if (shrunk.plan.events.size() > 2) {
    std::fprintf(stderr, "self-test FAILED: shrink left %zu events (> 2)\n",
                 shrunk.plan.events.size());
    return 1;
  }
  if (!options.artifact_dir.empty()) {
    campaign::CampaignRunConfig artifact = config;
    artifact.plan = shrunk.plan;
    const std::string path =
        campaign::WriteArtifact(artifact, options.artifact_dir);
    if (!path.empty()) std::printf("artifact: %s\n", path.c_str());
  }
  std::printf("self-test ok\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args = Parse(argc, argv);
  if (!args.ok) return 64;

  if (args.list_templates) {
    for (const std::string& name : campaign::DefaultTemplateNames()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  if (!args.replay_path.empty()) return Replay(args.replay_path);
  if (args.inject_bad) return InjectBad(args.options);

  const campaign::CampaignReport report =
      campaign::RunCampaign(args.options, args.verbose);
  std::printf("campaign: %d/%d runs completed%s, %d failed, %llu faults "
              "injected\n",
              report.runs_completed, args.options.runs,
              report.budget_exhausted ? " (time budget hit)" : "",
              report.runs_failed,
              static_cast<unsigned long long>(report.total_faults_triggered));
  std::printf("sweep fingerprint: %016llx (%zu journals; identical for "
              "every --jobs)\n",
              static_cast<unsigned long long>(report.CombinedFingerprint()),
              report.fingerprints.size());
  if (report.telemetry_collected) {
    std::printf(
        "coverage fingerprint: %016llx\n",
        static_cast<unsigned long long>(report.telemetry.coverage.Fingerprint()));
    for (const std::string& cell : report.telemetry.coverage.UnhitCells()) {
      std::fprintf(stderr, "coverage: %s unhit\n", cell.c_str());
    }
    if (!args.telemetry_json_path.empty() &&
        !telemetry::WriteTextFile(args.telemetry_json_path,
                                  report.telemetry.ToJson())) {
      return 64;
    }
    if (!args.report_path.empty() &&
        !telemetry::WriteTextFile(
            args.report_path,
            telemetry::RenderHtml(report.telemetry, "O2PC fault campaign"))) {
      return 64;
    }
    if (!args.telemetry_json_path.empty()) {
      std::printf("telemetry json: %s\n", args.telemetry_json_path.c_str());
    }
    if (!args.report_path.empty()) {
      std::printf("report: %s\n", args.report_path.c_str());
    }
  }
  for (const campaign::CampaignFailure& failure : report.failures) {
    std::fprintf(stderr,
                 "FAIL seed=%llu template=%s protocol=%s (%zu violations)\n",
                 static_cast<unsigned long long>(failure.config.seed),
                 failure.config.template_name.c_str(),
                 ProtocolFlag(failure.config.protocol),
                 failure.oracle.violations.size());
    PrintViolations(failure.oracle);
    std::fprintf(stderr, "minimal plan (%zu events):\n%s",
                 failure.shrunk_plan.events.size(),
                 failure.shrunk_plan.ToString().c_str());
    if (!failure.artifact_path.empty()) {
      std::fprintf(stderr, "artifact: %s\n", failure.artifact_path.c_str());
    }
  }
  return report.failures.empty() ? 0 : 1;
}
