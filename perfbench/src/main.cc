// perfbench: the QueryER benchmark binary. perfbench/run.py builds it and
// drives it; it can also be run by hand:
//
//   perfbench gen   --seed N --out DIR
//   perfbench run   --workload W --data DIR --seconds S --trace 0|1
//                   [--trace-out FILE]
//   perfbench floor --workload W --data DIR [--seconds S]
//
// `run` prints a few report lines and, as its last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. It exits 1 when
// any answer check failed.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "dataset.h"
#include "harness.h"
#include "stats.h"
#include "tracer.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatJson(bool correct, std::size_t attempted, std::size_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  char buf[128];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.12g, \"unit\": ",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value);
    out += buf;
    out += "\"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench gen --seed N --out DIR\n"
               "       perfbench run --workload W --data DIR --seconds S "
               "--trace 0|1 [--trace-out FILE]\n"
               "       perfbench floor --workload W --data DIR [--seconds S]\n");
  return 2;
}

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return {};
    flags[argv[i] + 2] = argv[i + 1];
  }
  if ((argc - 2) % 2 != 0) return {};
  return flags;
}

bool ParseCount(const std::string& text, std::size_t* out) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0') return false;
  *out = static_cast<std::size_t>(value);
  return true;
}

void PrintChecks(const Checks& checks) {
  for (const std::string& message : checks.messages()) {
    std::printf("CHECK FAILED: %s\n", message.c_str());
  }
}

// The end-to-end metrics of R identical untraced rounds.
std::vector<Metric> EndToEnd(const Workload& workload,
                             const std::vector<RoundResult>& rounds,
                             Checks* checks) {
  std::vector<PassSample> passes;
  std::vector<double> setups;
  std::vector<double> setup_writes_ms;
  PairCounts pairs;
  PairCounts floor_pairs;
  std::map<std::string, std::vector<double>> by_kind;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const RoundResult& round = rounds[r];
    std::printf("round %zu: setup %.3f s, passes", r + 1, round.setup_s);
    for (const PassSample& pass : round.passes) {
      std::printf(" %.3f s", pass.seconds);
      passes.push_back(pass);
      for (const OpSample& op : pass.ops) {
        by_kind[op.kind].push_back(op.seconds * 1e3);
      }
    }
    std::printf(", %zu operations\n", round.operations());
    setups.push_back(round.setup_s);
    for (double s : round.setup_write_s) setup_writes_ms.push_back(s * 1e3);
    pairs.Add(round.pairs);
    floor_pairs.Add(round.floor_pairs);
  }
  const RunSummary summary = Summarize(passes, setups, workload.reads_only());
  for (const auto& [kind, ms] : by_kind) {
    std::printf("  %-12s %6zu operations, median %.3f ms\n", kind.c_str(),
                ms.size(), Median(ms));
  }
  double tail = summary.read_p50_ms;
  if (summary.read_tail_ms.has_value()) {
    tail = summary.read_tail_ms->value;
    std::printf(
        "latency_tail_ms is p%g over %zu %s samples (%zu beyond it)\n",
        summary.read_tail_ms->percent, summary.read_samples,
        workload.reads_only() ? "read" : "operation",
        summary.read_tail_ms->beyond);
  } else {
    checks->Fail("only " + std::to_string(summary.read_samples) +
                 " latency samples: no tail (needs " +
                 std::to_string(kMinTailSamples) + ")");
  }
  double write_p50 = summary.write_p50_ms;
  std::size_t write_samples = summary.write_samples;
  if (write_samples == 0) {
    write_p50 = Median(setup_writes_ms);
    write_samples = setup_writes_ms.size();
    std::printf("write_latency_p50_ms is over the %zu set-up resolutions\n",
                write_samples);
  } else {
    std::printf("write_latency_p50_ms is over %zu writes\n", write_samples);
  }
  std::printf(
      "answer_f1 %.4f (precision %.4f, recall %.4f, %llu true pairs); "
      "f1_floor %.4f (exact-key grouping of the same selections)\n",
      pairs.F1(), pairs.Precision(), pairs.Recall(),
      static_cast<unsigned long long>(pairs.true_positive +
                                      pairs.false_negative),
      floor_pairs.F1());
  if (!(pairs.F1() > floor_pairs.F1())) {
    checks->Fail("answer_f1 " + std::to_string(pairs.F1()) +
                 " is not above the floor " +
                 std::to_string(floor_pairs.F1()));
  }
  return {
      {"setup_s", summary.setup_seconds, "s"},
      {"throughput_qps", summary.throughput, "1/s"},
      {"latency_p50_ms", summary.read_p50_ms, "ms"},
      {"latency_tail_ms", tail, "ms"},
      {"write_latency_p50_ms", write_p50, "ms"},
      {"answer_f1", pairs.F1(), "ratio"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

// The per-layer metrics: untraced round, traced round, one-worker round.
std::vector<Metric> PerLayer(const RoundResult& untraced,
                             const RoundResult& traced,
                             const RoundResult& one_worker,
                             const Layers& layers, const Tracer& tracer) {
  auto qps = [](const RoundResult& r) {
    return r.list_seconds() > 0
               ? static_cast<double>(r.operations()) / r.list_seconds()
               : 0;
  };
  const double similarity_calls = layers.Sum("matching.similarity_calls");
  const double executed = layers.Sum("matching.comparisons_executed");
  std::printf("per-layer self time of the traced round (span name: count, "
              "inclusive ms, self ms):\n");
  for (const auto& [name, s] : tracer.Summarize()) {
    std::printf("  %-26s %8zu %12.3f %12.3f\n", name.c_str(), s.count,
                s.inclusive_us / 1e3, s.self_us / 1e3);
  }
  std::printf("matching.match_yield base: %.0f comparisons executed\n",
              executed);
  const double untraced_qps = qps(untraced);
  const double traced_qps = qps(traced);
  std::printf("tracing overhead: %.2f%% (untraced %.3f ops/s, traced %.3f "
              "ops/s)\n",
              untraced_qps > 0 ? (1 - traced_qps / untraced_qps) * 100 : 0,
              untraced_qps, traced_qps);
  return {
      {"storage.csv_load_ms", layers.Median("storage.csv_load_ms"), "ms"},
      {"blocking.index_build_ms", layers.Median("blocking.index_build_ms"),
       "ms"},
      {"blocking.query_block_ms", layers.Median("blocking.query_block_ms"),
       "ms"},
      {"metablocking.prune_ms", layers.Median("metablocking.prune_ms"), "ms"},
      {"metablocking.comparisons_kept",
       layers.Sum("metablocking.comparisons_kept"), "count"},
      {"matching.ns_per_comparison",
       similarity_calls > 0
           ? layers.Sum("matching.similarity_s") * 1e9 / similarity_calls
           : 0,
       "ns"},
      {"matching.comparisons_executed", executed, "count"},
      {"matching.match_yield",
       executed > 0 ? layers.Sum("matching.matches_found") / executed : 0,
       "ratio"},
      {"matching.link_publish_us", layers.Median("matching.link_publish_us"),
       "us"},
      {"matching.cluster_lookup_ns",
       layers.Median("matching.cluster_lookup_ns"), "ns"},
      {"sql.parse_us", layers.Median("sql.parse_us"), "us"},
      {"engine.prepare_us", layers.Median("engine.prepare_us"), "us"},
      {"engine.ttfb_ms", layers.Median("engine.ttfb_ms"), "ms"},
      {"engine.drain_ms", layers.Median("engine.drain_ms"), "ms"},
      {"exec.filter_rows_per_s", layers.Median("exec.filter_rows_per_s"),
       "1/s"},
      {"exec.join_rows_per_s", layers.Median("exec.join_rows_per_s"), "1/s"},
      {"exec.group_rows_per_s", layers.Median("exec.group_rows_per_s"),
       "1/s"},
      {"parallel.cpu_per_wall",
       untraced.list_seconds() > 0 ? untraced.cpu_s / untraced.list_seconds()
                                   : 0,
       "ratio"},
      {"parallel.speedup",
       untraced.list_seconds() > 0
           ? one_worker.list_seconds() / untraced.list_seconds()
           : 0,
       "ratio"},
      {"server.open_us", layers.Median("server.open_us"), "us"},
      {"server.next_us", layers.Median("server.next_us"), "us"},
      {"server.execute_us", layers.Median("server.execute_us"), "us"},
      {"server.result_cache_hits", layers.Sum("server.result_cache_hits"),
       "count"},
      {"server.result_cache_lookups",
       layers.Sum("server.result_cache_lookups"), "count"},
      {"server.json_encode_mb_per_s",
       layers.Median("server.json_encode_mb_per_s"), "MB/s"},
      {"server.json_decode_mb_per_s",
       layers.Median("server.json_decode_mb_per_s"), "MB/s"},
      {"server.wire_over_inproc", layers.Median("server.wire_over_inproc"),
       "ratio"},
      {"trace.untraced_qps", untraced_qps, "1/s"},
      {"trace.traced_qps", traced_qps, "1/s"},
      {"trace.overhead_pct",
       untraced_qps > 0 ? (1 - traced_qps / untraced_qps) * 100 : 0, "%"},
  };
}

int Run(const std::map<std::string, std::string>& flags) {
  std::size_t seconds = 0;
  std::size_t trace = 0;
  if (flags.count("workload") == 0 || flags.count("data") == 0 ||
      !ParseCount(flags.count("seconds") ? flags.at("seconds") : "", &seconds) ||
      !ParseCount(flags.count("trace") ? flags.at("trace") : "", &trace) ||
      trace > 1 || seconds == 0) {
    return Usage();
  }
  Dataset data;
  std::string error;
  if (!LoadDataset(flags.at("data"), &data, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  Oracle oracle(&data);
  std::unique_ptr<Workload> workload =
      MakeWorkload(flags.at("workload"), &data, &oracle);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 flags.at("workload").c_str());
    return 2;
  }
  const std::size_t nproc = Nproc();
  std::printf("workload %s: %zu engine workers, %zu s\n",
              flags.at("workload").c_str(), nproc, seconds);

  Checks checks;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  if (trace == 0) {
    std::vector<RoundResult> rounds;
    for (std::size_t r = 0; r < workload->Rounds(seconds); ++r) {
      rounds.push_back(workload->Round({r, nproc, nullptr, nullptr}, &checks));
      attempted += rounds.back().operations();
      failed += rounds.back().failed;
    }
    metrics = EndToEnd(*workload, rounds, &checks);
  } else {
    Tracer tracer;
    Layers layers;
    // All three make round 0's list, so they do the same work.
    const RoundResult untraced =
        workload->Round({0, nproc, nullptr, nullptr}, &checks);
    const RoundResult traced =
        workload->Round({0, nproc, &tracer, &layers}, &checks);
    const RoundResult one_worker =
        workload->Round({0, 1, nullptr, nullptr}, &checks);
    for (const RoundResult* r : {&untraced, &traced, &one_worker}) {
      attempted += r->operations();
      failed += r->failed;
    }
    metrics = PerLayer(untraced, traced, one_worker, layers, tracer);
    if (flags.count("trace-out") > 0) {
      std::ofstream out(flags.at("trace-out"));
      out << tracer.ToChromeJson();
      if (!out) checks.Fail("cannot write " + flags.at("trace-out"));
      std::printf("trace written to %s\n", flags.at("trace-out").c_str());
    }
  }
  PrintChecks(checks);
  std::printf("%s\n", FormatJson(checks.ok(), attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return checks.ok() ? 0 : 1;
}

int Floor(const std::map<std::string, std::string>& flags) {
  if (flags.count("workload") == 0 || flags.count("data") == 0) return Usage();
  Dataset data;
  std::string error;
  if (!LoadDataset(flags.at("data"), &data, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  Oracle oracle(&data);
  std::unique_ptr<Workload> workload =
      MakeWorkload(flags.at("workload"), &data, &oracle);
  if (workload == nullptr) return Usage();
  std::size_t seconds = 30;
  if (flags.count("seconds") > 0 && !ParseCount(flags.at("seconds"), &seconds)) {
    return Usage();
  }
  PairCounts floor;
  for (std::size_t r = 0; r < workload->Rounds(seconds); ++r) {
    for (const QueryDef& def : workload->Scored(r)) {
      floor.Add(oracle.Baseline(def));
    }
  }
  std::printf("f1_floor %.4f (precision %.4f, recall %.4f)\n", floor.F1(),
              floor.Precision(), floor.Recall());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const std::map<std::string, std::string> flags = ParseFlags(argc, argv);
  if (command == "gen") {
    std::size_t seed = 0;
    if (flags.count("out") == 0 ||
        !ParseCount(flags.count("seed") ? flags.at("seed") : "", &seed)) {
      return Usage();
    }
    std::string error;
    if (!Generate(seed, flags.at("out"), &error)) {
      std::fprintf(stderr, "perfbench: %s\n", error.c_str());
      return 1;
    }
    return 0;
  }
  if (command == "run") return Run(flags);
  if (command == "floor") return Floor(flags);
  return Usage();
}
