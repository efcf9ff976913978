// Pieces every workload shares: the query definitions with their
// independent answer oracle, the engine set-up, in-process execution
// through the cursor API, the ER replay ladder, and the collectors for
// failed checks and per-layer samples.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dataset.h"
#include "engine/query_engine.h"
#include "matching/link_index.h"
#include "stats.h"
#include "tracer.h"

namespace perfbench {

/// Worker count of the engine as deployed: what `nproc` reports.
std::size_t Nproc();

/// Seconds on the steady clock.
double Now();

/// Process CPU seconds (user + system), from getrusage.
double ProcessCpuSeconds();

/// Peak resident set of this process in MB.
double PeakRssMb();

/// Failed checks of a run. Thread-safe. Any failure makes the run
/// incorrect; the first few messages are kept for the report.
class Checks {
 public:
  void Fail(const std::string& message);
  bool ok() const { return failures_.load() == 0; }
  std::size_t failures() const { return failures_.load(); }
  std::vector<std::string> messages() const;

 private:
  std::atomic<std::size_t> failures_{0};
  mutable std::mutex mu_;
  std::vector<std::string> messages_;  // Guarded by mu_.
};

/// Per-layer samples of the traced round, keyed by metric name.
/// Thread-safe.
class Layers {
 public:
  void Sample(const std::string& metric, double value);
  void Add(const std::string& metric, double delta);
  double Median(const std::string& metric) const;
  double Sum(const std::string& metric) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::vector<double>> samples_;  // Guarded by mu_.
  std::map<std::string, double> sums_;                  // Guarded by mu_.
};

using Row = std::vector<std::string>;

/// The shape of a statement, which decides how its answer is checked.
enum class Shape {
  kDedupSp,    // SELECT DEDUP over one table.
  kDedupJoin,  // SELECT DEDUP over left JOIN right.
  kFilter,     // Plain selection/projection over one table.
  kJoin,       // Plain equi-join of left and right.
};

/// One statement plus what the oracle needs to answer it without the
/// engine: the selection on the left table, the join columns and the
/// projection (empty = every column of the left table).
struct QueryDef {
  std::string sql;
  Shape shape = Shape::kFilter;
  std::string left;
  std::string right;
  std::function<bool(const TableData&, const Row&)> where;
  std::string left_key;
  std::string right_key;
  /// (side, column): side 0 = left table, 1 = right table.
  std::vector<std::pair<int, std::string>> projection;
  /// DEDUP answers: answer columns holding the left / right entity ids.
  std::size_t left_id_col = 0;
  std::size_t right_id_col = 0;

  bool dedup() const {
    return shape == Shape::kDedupSp || shape == Shape::kDedupJoin;
  }
};

/// What the oracle expects of a statement, computed from the CSV rows.
struct Expected {
  RowDigest digest;                      // Plain statements.
  std::vector<std::uint32_t> selected;   // DEDUP: left entities selected.
  std::vector<std::uint32_t> joinable;   // DEDUP join: selected entities
                                         // whose key joins the right table.
};

/// Memoized oracle over one dataset. Thread-safe.
class Oracle {
 public:
  explicit Oracle(const Dataset* data) : data_(data) {}
  const Expected& Get(const QueryDef& def);

  /// The F1 floor of a DEDUP statement: the pair counts of grouping its
  /// scored entities by one exact key (the title or name; see
  /// BaselineKey), the resolution any ER engine has to beat.
  PairCounts Baseline(const QueryDef& def);

 private:
  Expected Compute(const QueryDef& def) const;

  const Dataset* data_;
  std::mutex mu_;
  std::map<std::string, std::unique_ptr<Expected>> cache_;  // Guarded by mu_.
  std::map<std::string, PairCounts> baseline_;              // Guarded by mu_.
};

/// The columns whose exact (lower-cased) values key the baseline grouping.
std::vector<std::string> BaselineKey(const std::string& table);

/// An answer as the benchmark read it.
struct Answer {
  RowDigest digest;
  std::size_t rows = 0;
  std::vector<std::string> left_ids;   // DEDUP: id column value per row.
  std::vector<std::string> right_ids;
  std::uint64_t comparisons_executed = 0;
  std::uint64_t comparisons_after_metablocking = 0;
  std::uint64_t matches_found = 0;
  bool cached = false;  // Wire EXECUTE served from the result cache.
};

/// Reads one answer row into the answer: hashes every value and keeps the
/// id columns of DEDUP answers.
void AbsorbRow(const QueryDef& def, const std::vector<std::string_view>& row,
               Answer* answer);

/// Checks one answer against the oracle; DEDUP answers also add their
/// pair counts to `pairs` and the baseline's to `floor_pairs`. `label`
/// names the operation in messages.
void CheckAnswer(const QueryDef& def, const Answer& answer, Oracle* oracle,
                 const Dataset& data, const std::string& label,
                 Checks* checks, PairCounts* pairs, PairCounts* floor_pairs);

/// An engine over the dataset's CSV files, and what setting it up took.
struct EngineSetup {
  std::unique_ptr<queryer::QueryEngine> engine;
  double csv_load_s = 0;     // RegisterCsvFile, all tables.
  double index_build_s = 0;  // WarmIndices, all tables.
};

/// Registers every CSV file and warms every table's indices.
bool SetUpEngine(const Dataset& data, std::size_t workers,
                 std::size_t max_sessions, Tracer* tracer, EngineSetup* out,
                 Checks* checks);

/// Per-call times of one in-process statement.
struct InProcTiming {
  double parse_s = 0;  // ParseSelect alone; traced runs only.
  double prepare_s = 0;
  double ttfb_s = 0;   // Open until the first batch arrived.
  double drain_s = 0;  // First batch until the end of the stream.
  double total_s = 0;  // Prepare until the end of the stream.
};

/// Prepare -> Open -> Next until the end, reading every value. Returns
/// false (with a check message) when the engine fails the statement.
bool RunInProc(queryer::QueryEngine* engine, const QueryDef& def,
               Tracer* tracer, std::uint64_t query_id, Answer* answer,
               InProcTiming* timing, Checks* checks);

/// The ER replay ladder. Before a cold DEDUP statement runs, it replays
/// the statement's ER stages from outside the engine, on the entities the
/// engine has not resolved yet: query blocking -> block-join ->
/// meta-blocking -> ProfileSimilarity on every kept comparison ->
/// PublishLinks of the matches into a scratch Link Index per table. The
/// scratch index receives every replayed match, so it mirrors the
/// engine's link state, which is where a join's right-side selection
/// comes from.
class ErReplay {
 public:
  ErReplay(queryer::QueryEngine* engine, const Dataset* data, Tracer* tracer,
           Layers* layers)
      : engine_(engine), data_(data), tracer_(tracer), layers_(layers) {}

  /// Replays `def` (a DEDUP statement) and returns the comparisons its
  /// meta-blocking kept, summed over its ER operators.
  std::size_t Replay(const QueryDef& def, Oracle* oracle,
                     std::uint64_t query_id);

  /// Links in the scratch index of `table`: equals the engine's count
  /// when both resolved the same pairs.
  std::size_t ScratchLinks(const std::string& table);

 private:
  std::size_t Stage(const std::string& table,
                    const std::vector<queryer::EntityId>& selection,
                    std::uint64_t query_id);
  queryer::LinkIndex& Scratch(const std::string& table);

  queryer::QueryEngine* engine_;
  const Dataset* data_;
  Tracer* tracer_;
  Layers* layers_;
  std::map<std::string, std::unique_ptr<queryer::LinkIndex>> scratch_;
};

/// Times LinkIndex::Cluster over `entities` of `table`'s engine index and
/// records matching.cluster_lookup_ns.
void MeasureClusterLookups(queryer::QueryEngine* engine,
                           const std::string& table,
                           const std::vector<std::uint32_t>& entities,
                           Layers* layers);

/// MOD(id, modulus) as the oracle computes it.
inline std::uint64_t IdMod(const Row& row, std::uint64_t modulus) {
  return std::stoull(row[0]) % modulus;
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
