// The Batch Approach baseline (paper Sec. 5, BAQ): deduplicate the *entire*
// table offline — the traditional ETL step QueryER avoids — before any
// query runs. Implemented over the same ER components so the comparison
// against the analysis-aware path is apples-to-apples: blocking comes from
// the TBI, the full block collection goes through the table's Meta-Blocking
// configuration, every surviving comparison is executed, and all entities
// are marked resolved in the Link Index.

#ifndef QUERYER_BASELINE_BATCH_ER_H_
#define QUERYER_BASELINE_BATCH_ER_H_

#include "common/status.h"
#include "exec/exec_stats.h"
#include "exec/table_runtime.h"

namespace queryer {

/// \brief Counters of one batch deduplication.
struct BatchErStats {
  std::size_t comparisons_executed = 0;
  std::size_t matches_found = 0;
  double seconds = 0;
};

/// \brief Fully deduplicates `runtime`'s table, populating its Link Index
/// and marking all entities resolved. Stage timings and counters are also
/// accumulated into `stats` when provided. Idempotent: a second call finds
/// every pair already linked or already compared and re-executes the
/// comparisons that found no match. Fails when comparison execution or a
/// Link Index write does (injected failures, a durable index's WAL append
/// error) — and then marks nothing resolved, so the next call retries the
/// whole pass.
Result<BatchErStats> BatchDeduplicate(TableRuntime* runtime,
                                      ExecStats* stats = nullptr);

}  // namespace queryer

#endif  // QUERYER_BASELINE_BATCH_ER_H_
