// The three workloads. A run is a number of identical rounds; a round sets
// up a fresh engine from the CSV files and then works through the
// workload's fixed list of operations (once, or in several passes where
// the list leaves the engine as it found it), so every round does the same
// work whatever the seed, and a cold round is really cold.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct RoundOptions {
  std::size_t round = 0;      // Which round of the run (selects slices).
  std::size_t workers = 1;    // Engine worker threads.
  Tracer* tracer = nullptr;   // Non-null: the traced round.
  Layers* layers = nullptr;   // Non-null exactly when tracer is.
};

struct RoundResult {
  double setup_s = 0;
  std::vector<PassSample> passes;  // The fixed list, once or more.
  double cpu_s = 0;  // Process CPU time spent during the passes.
  /// Writes made during set-up (the warm-up resolution), which feed
  /// write_latency_p50_ms where the list itself holds no write.
  std::vector<double> setup_write_s;
  PairCounts pairs;
  PairCounts floor_pairs;  // The exact-key baseline on the same answers.
  std::size_t failed = 0;

  std::size_t operations() const;
  double list_seconds() const;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual RoundResult Round(const RoundOptions& options, Checks* checks) = 0;
  /// True when latency_p50/latency_tail cover reads only.
  virtual bool reads_only() const = 0;
  /// Rounds a run of `seconds` seconds makes: a fixed function of the
  /// run length, so runs of equal length do identical work.
  virtual std::size_t Rounds(std::size_t seconds) const = 0;
  /// The DEDUP statements of round `round` whose answers answer_f1
  /// scores, once per execution.
  virtual std::vector<QueryDef> Scored(std::size_t round) const = 0;
};

/// Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Dataset* data, Oracle* oracle);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
