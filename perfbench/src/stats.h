// Statistics of one benchmark run: the latency percentile rule, pairwise
// F1 of DEDUP answer groups against the generators' ground truth, and the
// arithmetic that folds a run's rounds into its reported metrics. Kept
// free of engine headers so perfbench/tests/stats_test.cc can pin it down
// on hand-made inputs.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for an even count); 0 when empty.
double Median(std::vector<double> values);

/// Nearest-rank percentile: the value at rank ceil(p/100 * n) (1-based).
double Percentile(std::vector<double> values, double percent);

/// The tail a sample supports: the highest percentile of the ladder
/// 99.9, 99, 95, 90, 75 that leaves at least kMinTailBeyond samples above
/// its rank. None under kMinTailSamples samples (such a "tail" would be
/// a handful of points, not a tail).
inline constexpr std::size_t kMinTailBeyond = 10;
inline constexpr std::size_t kMinTailSamples = 40;
struct Tail {
  double percent = 0;      // e.g. 95 for p95.
  double value = 0;        // The percentile's value.
  std::size_t beyond = 0;  // Samples ranked above it.
};
std::optional<Tail> TailOf(const std::vector<double>& values);

/// Pair counts of predicted duplicate groups against a ground truth,
/// accumulated over many answers (micro-averaged F1).
struct PairCounts {
  std::uint64_t true_positive = 0;
  std::uint64_t false_positive = 0;
  std::uint64_t false_negative = 0;

  void Add(const PairCounts& other);
  double Precision() const;
  double Recall() const;
  /// 2PR/(P+R); 0 when nothing was predicted or nothing was true.
  double F1() const;
};

/// The generators' ground truth of one table: the true cluster of every
/// entity (entity id = row position = the `id` column).
class Truth {
 public:
  Truth() = default;
  /// `cluster_of[e]` is any label; equal labels mean true duplicates.
  explicit Truth(const std::vector<std::uint64_t>& cluster_of);

  std::size_t num_entities() const { return cluster_of_.size(); }
  const std::vector<std::uint32_t>& Members(std::uint32_t e) const {
    return members_[cluster_of_[e]];
  }

 private:
  std::vector<std::uint32_t> cluster_of_;  // Dense cluster numbers.
  std::vector<std::vector<std::uint32_t>> members_;
};

/// Scores one DEDUP answer. `groups` are the id lists of the answer's
/// groups (a group may repeat, e.g. once per join partner; repeats count
/// once). Only pairs touching `focus` — the entities the query selected —
/// are scored:
///   predicted = pairs {a, b} inside one group with a or b in `focus`;
///   true      = pairs {a, b} of one true cluster with a or b in `focus`.
PairCounts ScoreGroups(const std::vector<std::vector<std::uint32_t>>& groups,
                       const std::vector<std::uint32_t>& focus,
                       const Truth& truth);

/// Reads `ids` groups out of a DEDUP answer's id column value: the
/// Group-Entities operator joins a group's distinct values with " | ".
/// Returns false when a piece is not a non-negative integer.
bool ParseIdGroup(const std::string& value, std::vector<std::uint32_t>* ids);

/// One timed operation of a run.
struct OpSample {
  double seconds = 0;
  bool write = false;  // Publishes links (a cold DEDUP in wire_mixed).
  const char* kind = "";  // Statement shape, for the report.
};

/// One pass through a workload's fixed list of operations.
struct PassSample {
  std::vector<OpSample> ops;
  double seconds = 0;  // Wall time of the pass.
};

/// A run's end-to-end summary over all of its passes and set-ups.
struct RunSummary {
  std::size_t operations = 0;
  double list_seconds = 0;    // Wall time of all passes.
  double throughput = 0;      // Median over passes of ops / pass seconds.
  double setup_seconds = 0;   // Median over the run's set-ups.
  double read_p50_ms = 0;     // Median over read operations.
  std::optional<Tail> read_tail_ms;
  std::size_t read_samples = 0;
  double write_p50_ms = 0;    // Median over write operations (0 if none).
  std::size_t write_samples = 0;
};

/// Folds a run: per-pass throughput and set-up time by their median, so a
/// pass slowed by the host does not move the result, and latencies pooled
/// over all passes. `reads_only` selects which samples feed the latency
/// metrics: all operations (false) or only non-writes (true).
RunSummary Summarize(const std::vector<PassSample>& passes,
                     const std::vector<double>& setup_seconds,
                     bool reads_only);

/// Order-independent digest of a row multiset: the count plus the sum of
/// a strong 64-bit hash of each row. Two answers with equal digests hold
/// the same rows (up to a negligible collision chance) in any order.
struct RowDigest {
  std::uint64_t rows = 0;
  std::uint64_t sum = 0;
  bool operator==(const RowDigest& other) const {
    return rows == other.rows && sum == other.sum;
  }
  bool operator!=(const RowDigest& other) const { return !(*this == other); }
};

/// Streaming row hasher: Add each value of a row, then EndRow.
class RowHasher {
 public:
  void Add(const char* data, std::size_t size);
  void EndRow(RowDigest* digest);

 private:
  std::uint64_t state_ = 1469598103934665603ull;  // FNV-1a offset basis.
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
