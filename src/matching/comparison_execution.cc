#include "matching/comparison_execution.h"

#include <unordered_map>

#include "common/failpoint.h"

namespace queryer {

namespace {

// Union-find over the Link Index representatives of one chunk's pending
// pairs. It holds only the links the chunk's own matches add, so two
// representatives it joins are linked by an earlier comparison of this
// run — exactly the pairs a loop that links each match as it goes skips.
class InRunLinks {
 public:
  bool Joined(EntityId rep_a, EntityId rep_b) {
    return Find(Slot(rep_a)) == Find(Slot(rep_b));
  }
  void Join(EntityId rep_a, EntityId rep_b) {
    const std::uint32_t root_a = Find(Slot(rep_a));
    const std::uint32_t root_b = Find(Slot(rep_b));
    parent_[root_a] = root_b;
  }

 private:
  // Dense slot of a representative, created on first use.
  std::uint32_t Slot(EntityId rep) {
    const auto [it, inserted] = slots_.try_emplace(
        rep, static_cast<std::uint32_t>(parent_.size()));
    if (inserted) parent_.push_back(it->second);
    return it->second;
  }
  std::uint32_t Find(std::uint32_t slot) {
    while (parent_[slot] != slot) {
      parent_[slot] = parent_[parent_[slot]];
      slot = parent_[slot];
    }
    return slot;
  }

  std::unordered_map<EntityId, std::uint32_t> slots_;
  std::vector<std::uint32_t> parent_;
};

// A comparison that survived the snapshot check, with the representatives
// its endpoints had in that snapshot.
struct PendingComparison {
  Comparison pair;
  EntityId rep_a;
  EntityId rep_b;
};

struct ChunkResult {
  std::vector<Comparison> matched;
  std::size_t executed = 0;
  std::size_t skipped_linked = 0;
};

}  // namespace

Result<ComparisonExecStats> ExecuteComparisons(
    const Table& table, const std::vector<Comparison>& comparisons,
    const MatchingConfig& config, LinkIndex* link_index,
    const AttributeWeights* weights, ThreadPool* pool,
    const CancelContext* cancel) {
  const bool parallel = pool != nullptr && pool->num_threads() >= 2 &&
                        comparisons.size() >= kParallelComparisonThreshold;
  std::vector<ChunkRange> chunks =
      SplitRange(comparisons.size(), parallel ? pool->num_threads() : 1);
  std::vector<ChunkResult> results(chunks.size());

  Status status = ParallelFor(
      parallel ? pool : nullptr, chunks,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        // Injected chunk failures exercise the claim-abandonment path the
        // Deduplicator wraps around this call.
        QUERYER_FAILPOINT("er.comparison_chunk");
        ChunkResult& result = results[chunk];
        // Pass 1, under one shared snapshot: drop pairs that are already
        // linked and note the others' representatives. Separated from the
        // similarity pass so the shared lock covers only cheap forest walks
        // and concurrent publishers are not stalled behind string
        // similarity computation.
        std::vector<PendingComparison> pending;
        {
          LinkIndex::ReadView view = link_index->SharedSnapshot();
          for (std::size_t i = begin; i < end; ++i) {
            const EntityId rep_a = view.Representative(comparisons[i].first);
            const EntityId rep_b = view.Representative(comparisons[i].second);
            if (rep_a == rep_b) {
              ++result.skipped_linked;
            } else {
              pending.push_back({comparisons[i], rep_a, rep_b});
            }
          }
        }
        // Pass 2, lock-free: evaluate the survivors the chunk's own matches
        // have not linked yet, and buffer the matches. The cancel poll
        // lives here because this pass is where a cold-LI resolution
        // spends its seconds.
        InRunLinks in_run;
        std::size_t visited = 0;
        for (const PendingComparison& p : pending) {
          if (cancel != nullptr && visited % CancelContext::kPollInterval == 0) {
            QUERYER_RETURN_NOT_OK(cancel->Check());
          }
          ++visited;
          if (in_run.Joined(p.rep_a, p.rep_b)) {
            ++result.skipped_linked;
            continue;
          }
          ++result.executed;
          if (ProfileSimilarity(table, p.pair.first, p.pair.second, config,
                                weights) >= config.threshold) {
            result.matched.push_back(p.pair);
            in_run.Join(p.rep_a, p.rep_b);
          }
        }
        return Status::OK();
      });
  // First-error-wins (lowest chunk index) from ParallelFor. Nothing was
  // written to the Link Index, so the caller can abandon or retry freely.
  QUERYER_RETURN_NOT_OK(status);

  // Assemble in chunk order: input order, no matter how the chunks were
  // scheduled, so the published merges — and with them the cluster
  // representatives — are the same at every pool width.
  ComparisonExecStats stats;
  std::vector<Comparison> matched;
  for (const ChunkResult& result : results) {
    stats.executed += result.executed;
    stats.skipped_linked += result.skipped_linked;
    matched.insert(matched.end(), result.matched.begin(),
                   result.matched.end());
  }
  QUERYER_ASSIGN_OR_RETURN(stats.matches_found,
                           link_index->PublishLinks(matched));
  return stats;
}

}  // namespace queryer
