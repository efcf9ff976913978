// Comparison-Execution (paper Sec. 6.1(iv)): runs the comparisons that
// survived Meta-Blocking, records matches in the Link Index, and reports
// the executed-comparison count that the paper's evaluation tracks.

#ifndef QUERYER_MATCHING_COMPARISON_EXECUTION_H_
#define QUERYER_MATCHING_COMPARISON_EXECUTION_H_

#include <cstdint>
#include <vector>

#include "common/cancel_context.h"
#include "common/status.h"
#include "matching/link_index.h"
#include "matching/profile_matcher.h"
#include "metablocking/edge_pruning.h"
#include "parallel/thread_pool.h"
#include "storage/table.h"

namespace queryer {

/// \brief Counters of one Comparison-Execution run.
struct ComparisonExecStats {
  /// Comparisons actually evaluated with the similarity function.
  std::size_t executed = 0;
  /// Comparisons skipped because the pair was already linked, in the Link
  /// Index or by an earlier match of the same run.
  std::size_t skipped_linked = 0;
  /// Clusters merged by the run's matches.
  std::size_t matches_found = 0;
};

/// Below this many comparisons the run is one chunk even with a
/// multi-worker pool: task submission would cost more than it saves.
inline constexpr std::size_t kParallelComparisonThreshold = 256;

/// \brief Executes the comparisons, amending `link_index` with new links.
///
/// A pair already linked is not re-compared (its outcome is known), which
/// is how the LI makes repeated/overlapping queries cheaper. `weights` are
/// the table's attribute-distinctiveness weights (may be null for uniform
/// weighting).
///
/// The run evaluates read-only, then publishes once. The comparison list is
/// split into contiguous chunks (one per worker of a multi-worker `pool`
/// when there are enough comparisons, else one chunk run inline). Each
/// chunk first reads the Link Index representatives of its pairs under one
/// shared snapshot and drops pairs that are already linked; it then
/// evaluates the rest without any lock, skipping a pair when the chunk's
/// own earlier matches have already connected its two representatives.
/// The matches are published with one LinkIndex::PublishLinks, in input
/// order. With one chunk this makes exactly the skip decisions of a loop
/// that links each match as it finds it; with several chunks a pair linked
/// only through another chunk's matches is evaluated, and its match is a
/// no-op merge at publish. The clustering, num_links() and
/// `matches_found` do not depend on the chunking.
///
/// `cancel` (optional) is polled every CancelContext::kPollInterval
/// evaluated comparisons per chunk. A cancelled or failed run (the first
/// failing chunk's Status wins, as in ParallelFor) returns that Status and
/// publishes nothing; so does a run whose publish fails (an injected
/// `li.publish` fault or a WAL append error), which leaves the index
/// untouched.
Result<ComparisonExecStats> ExecuteComparisons(
    const Table& table, const std::vector<Comparison>& comparisons,
    const MatchingConfig& config, LinkIndex* link_index,
    const AttributeWeights* weights = nullptr, ThreadPool* pool = nullptr,
    const CancelContext* cancel = nullptr);

}  // namespace queryer

#endif  // QUERYER_MATCHING_COMPARISON_EXECUTION_H_
