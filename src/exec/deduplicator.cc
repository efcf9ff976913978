#include "exec/deduplicator.h"

#include <algorithm>

#include "blocking/block_join.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"

namespace queryer {

std::vector<Comparison> Deduplicator::BuildComparisons(
    const std::vector<EntityId>& unresolved) {
  // (i) Query Blocking: build the QBI with the table's blocking function.
  Stopwatch watch;
  QueryBlockIndex qbi;
  {
    TraceSpan span(trace_, "blocking", "er");
    qbi = QueryBlockIndex::Build(runtime_->table(), unresolved,
                                 runtime_->blocking_options());
  }
  stats_->blocking_seconds += watch.ElapsedSeconds();

  // (ii) Block-Join against the TBI (built once per table).
  const TableBlockIndex& tbi = runtime_->tbi();
  watch.Restart();
  BlockCollection enriched;
  {
    TraceSpan span(trace_, "block-join", "er");
    enriched = BlockJoin(qbi, tbi);
  }
  stats_->block_join_seconds += watch.ElapsedSeconds();
  stats_->blocks_after_join += enriched.size();

  // (iii) Meta-Blocking: BP -> BF -> EP per the table's configuration. The
  // pool parallelizes the size statistics and the edge weighting; answers
  // are identical at every thread count.
  MetaBlockingResult refined =
      RunMetaBlocking(std::move(enriched), runtime_->meta_blocking_config(),
                      pool_, trace_);
  stats_->purging_seconds += refined.purging_seconds;
  stats_->filtering_seconds += refined.filtering_seconds;
  stats_->edge_pruning_seconds += refined.edge_pruning_seconds;
  stats_->comparisons_after_metablocking += refined.comparisons.size();
  if (stats_->collect_comparisons) {
    stats_->collected_comparisons.insert(stats_->collected_comparisons.end(),
                                         refined.comparisons.begin(),
                                         refined.comparisons.end());
  }
  return std::move(refined.comparisons);
}

Result<std::vector<EntityId>> Deduplicator::Resolve(
    const std::vector<EntityId>& query_entities,
    std::vector<EntityId>* group_keys) {
  const Status status = ResolveEntities(query_entities);
  if (!status.ok()) {
    if (status.IsCancelled() || status.IsDeadlineExceeded()) {
      GlobalEngineMetrics().cancelled_in_resolution->Increment();
    }
    return status;
  }

  // DR_E = QE ∪ duplicates(QE), ascending and distinct. Membership and
  // group keys come from ONE consistent snapshot: reading them separately
  // would let a concurrent publish shear the answer.
  std::vector<EntityId> result;
  result.reserve(query_entities.size());  // |DR| >= |QE|; avoids early regrowth.
  {
    LinkIndex::ReadView view = runtime_->link_index().SharedSnapshot();
    for (EntityId e : query_entities) {
      for (EntityId member : view.Cluster(e)) result.push_back(member);
    }
    std::sort(result.begin(), result.end());
    result.erase(std::unique(result.begin(), result.end()), result.end());
    if (group_keys != nullptr) {
      group_keys->clear();
      group_keys->reserve(result.size());
      for (EntityId e : result) group_keys->push_back(view.Representative(e));
    }
  }
  // A resolution may just have appended to the durable link log (if one is
  // attached); compact it when it outgrew the threshold. Outside the Link
  // Index lock by construction, and a compaction failure only defers
  // truncation — the query's answer is unaffected.
  (void)runtime_->MaybeCompactLinkLog();
  return result;
}

Status Deduplicator::EvaluateAndPublish(
    ResolutionCoordinator::ComparisonClaim* pairs) {
  Stopwatch watch;
  TraceSpan span(trace_, "resolution", "er");
  QUERYER_ASSIGN_OR_RETURN(
      ComparisonExecStats counts,
      ExecuteComparisons(runtime_->table(), pairs->owned(),
                         runtime_->matching_config(), &runtime_->link_index(),
                         &runtime_->attribute_weights(), pool_, cancel_));
  stats_->comparisons_executed += counts.executed;
  stats_->comparisons_skipped_linked += counts.skipped_linked;
  stats_->matches_found += counts.matches_found;
  stats_->resolution_seconds += watch.ElapsedSeconds();
  const EngineMetrics& metrics = GlobalEngineMetrics();
  metrics.comparisons_executed->Increment(counts.executed);
  metrics.comparisons_skipped_linked->Increment(counts.skipped_linked);
  metrics.matches_found->Increment(counts.matches_found);
  span.set_args("\"comparisons\":" + std::to_string(counts.executed) +
                ",\"matches\":" + std::to_string(counts.matches_found));
  pairs->Release();
  return Status::OK();
}

Status Deduplicator::ResolveClaimed(ResolutionCoordinator::EntityClaim* claim) {
  ResolutionCoordinator& coordinator = runtime_->coordinator();
  // (iv) staged: claim the pairs, evaluate them read-only, publish the
  // matches in one exclusive section, then release the pair claims.
  QUERYER_ASSIGN_OR_RETURN(
      ResolutionCoordinator::ComparisonClaim pairs,
      coordinator.ClaimComparisons(BuildComparisons(claim->claimed())));
  stats_->comparisons_skipped_inflight += pairs.foreign.size();
  QUERYER_RETURN_NOT_OK(EvaluateAndPublish(&pairs));

  // An entity's link-set is complete only once every in-flight comparison
  // that could still link it has been published. Ours just were; the
  // foreign ones are awaited. Pairs whose owner failed before publishing
  // come back adopted and are evaluated right here, so a resolved mark
  // never rests on a comparison that silently vanished.
  ResolutionCoordinator::ComparisonClaim orphans =
      coordinator.AwaitComparisons(pairs.foreign);
  const std::size_t adopted = orphans.owned().size();
  if (adopted > 0) {
    stats_->comparisons_skipped_inflight -= adopted;
    QUERYER_RETURN_NOT_OK(EvaluateAndPublish(&orphans));
  }
  // Monotonic counter: count only the pairs that stayed skipped (adopted
  // orphans were executed after all).
  GlobalEngineMetrics().comparisons_skipped_inflight->Increment(
      pairs.foreign.size() - adopted);
  QUERYER_RETURN_NOT_OK(runtime_->link_index().MarkResolvedBatch(
      claim->claimed()));
  claim->Release();
  return Status::OK();
}

Status Deduplicator::ResolveEntities(
    const std::vector<EntityId>& query_entities) {
  LinkIndex& li = runtime_->link_index();
  ResolutionCoordinator& coordinator = runtime_->coordinator();
  stats_->query_entities += query_entities.size();

  // One atomic step: count resolved entities, claim the unresolved ones
  // nobody else is resolving, note the rest as foreign. Every early return
  // below drops `claim`, which frees the entities it still holds without
  // resolved marks, so a waiter re-claims and resolves them itself.
  ResolutionCoordinator::EntityClaim claim =
      coordinator.ClaimEntities(query_entities, li);
  stats_->entities_already_resolved += claim.already_resolved;
  stats_->entities_claimed_elsewhere += claim.foreign.size();
  {
    const EngineMetrics& metrics = GlobalEngineMetrics();
    metrics.link_index_hits->Increment(claim.already_resolved);
    metrics.link_index_misses->Increment(query_entities.size() -
                                         claim.already_resolved);
  }

  // Claim loop: resolve what we own, wait for what others own, then
  // re-claim the leftovers — a waited-on entity is only guaranteed
  // *released*, not resolved (its owner may have failed), in which case
  // this session adopts it on the next iteration. Each iteration either
  // finishes every pending entity or adopts from a failed session, so the
  // loop terminates with all query entities resolved (or fails).
  while (!claim.claimed().empty() || !claim.foreign.empty()) {
    // Poll between iterations too: an adopt-and-retry loop must not outlive
    // its session's cancellation.
    if (cancel_ != nullptr) QUERYER_RETURN_NOT_OK(cancel_->Check());
    if (!claim.claimed().empty()) {
      QUERYER_RETURN_NOT_OK(ResolveClaimed(&claim));
    }
    if (claim.foreign.empty()) break;
    coordinator.AwaitEntities(claim.foreign);
    claim = coordinator.ClaimEntities(claim.foreign, li);
  }
  return Status::OK();
}

}  // namespace queryer
