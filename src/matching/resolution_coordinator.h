// Coordination of concurrent resolution transactions over one table.
//
// When several query sessions call QueryEngine::Execute at once, each
// session that meets unresolved entities runs its own Deduplicate pipeline.
// Two sessions with overlapping selections would resolve the same entities
// and execute the same comparisons twice — wasted work, and worse, the
// entity-level interleaving could produce link sets no serial execution of
// the same queries can produce. The coordinator prevents both with two
// claim tables:
//
//  * Entity claims: a session atomically claims the unresolved entities it
//    will resolve. Entities claimed by another in-flight session are left
//    to that session; the claimer later waits for them to be resolved
//    instead of resolving them again. Every entity is therefore resolved by
//    exactly one session, and the resolution order is the claim order — a
//    valid serial schedule.
//
//  * Comparison claims (the comparison-dedup table): sessions resolving
//    different entities can still derive the same comparison pair (each
//    endpoint pulls the pair into its own blocks). A session claims the
//    pairs it will evaluate; pairs already in flight elsewhere are skipped
//    and awaited before the session declares its entities resolved, so a
//    "resolved" mark never precedes the completion of a comparison that
//    could still link the entity.
//
// Deadlock freedom: a session releases all its comparison claims before it
// waits for foreign comparisons, and releases its entity claims before it
// waits for foreign entities. Waits therefore only ever depend on sections
// that complete unconditionally.

#ifndef QUERYER_MATCHING_RESOLUTION_COORDINATOR_H_
#define QUERYER_MATCHING_RESOLUTION_COORDINATOR_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "matching/link_index.h"

namespace queryer {

/// \brief Claim tables for concurrent resolution transactions on one table.
class ResolutionCoordinator {
 public:
  using Link = LinkIndex::Link;

  /// \brief Outcome of an entity claim, and the move-only owner of the
  /// claimed entities. Dropping it releases the entities it still holds
  /// WITHOUT resolved marks: entity state is re-checkable, so a waiter
  /// re-claims the unresolved leftovers by looping ClaimEntities after
  /// AwaitEntities (see Deduplicator::ResolveEntities).
  class EntityClaim {
   public:
    EntityClaim() = default;
    EntityClaim(EntityClaim&& other) noexcept { *this = std::move(other); }
    EntityClaim& operator=(EntityClaim&& other) noexcept;
    ~EntityClaim() { Release(); }

    /// Unresolved entities this session owns and must resolve.
    const std::vector<EntityId>& claimed() const { return claimed_; }
    /// Frees the claimed entities and wakes waiters. The success path
    /// calls it right after marking them resolved in the Link Index, so a
    /// subsequent claimer sees them as resolved rather than unclaimed.
    void Release();

    /// Unresolved entities another in-flight session owns; wait for them
    /// with AwaitEntities before reading their clusters.
    std::vector<EntityId> foreign;
    /// Entities whose link-set was already complete at claim time.
    std::size_t already_resolved = 0;

   private:
    friend class ResolutionCoordinator;
    ResolutionCoordinator* coordinator_ = nullptr;
    std::vector<EntityId> claimed_;
  };

  /// Atomically partitions `query_entities`: entities resolved in `index`
  /// are counted, unclaimed unresolved entities become this session's
  /// (registered in-flight), the rest are foreign. The resolved check and
  /// the claim happen under one lock so a session can never re-resolve an
  /// entity that a concurrent session is completing.
  EntityClaim ClaimEntities(const std::vector<EntityId>& query_entities,
                            const LinkIndex& index);

  /// Blocks until none of `foreign` is claimed by any in-flight session.
  /// Callers must then re-claim: a released entity is not necessarily a
  /// resolved one (its owner may have failed).
  void AwaitEntities(const std::vector<EntityId>& foreign);

  /// \brief Outcome of a comparison claim, and the move-only owner of the
  /// claimed pairs. Dropping it while it still owns pairs ABANDONS them:
  /// their outcomes were never published, so a session awaiting them
  /// adopts and evaluates them itself — a waiter must never declare its
  /// entities resolved on the strength of a comparison nobody ran.
  class ComparisonClaim {
   public:
    ComparisonClaim() = default;
    ComparisonClaim(ComparisonClaim&& other) noexcept {
      *this = std::move(other);
    }
    ComparisonClaim& operator=(ComparisonClaim&& other) noexcept;
    ~ComparisonClaim();

    /// Pairs this session owns and must evaluate + publish.
    const std::vector<Link>& owned() const { return owned_; }
    /// Frees the owned pairs and wakes waiters. Call after the pairs'
    /// outcomes were published to the Link Index.
    void Release();

    /// Pairs another in-flight session is evaluating; wait for them with
    /// AwaitComparisons before marking entities resolved.
    std::vector<Link> foreign;

   private:
    friend class ResolutionCoordinator;
    ResolutionCoordinator* coordinator_ = nullptr;
    std::vector<Link> owned_;
  };

  /// Atomically partitions `comparisons` into owned and foreign pairs.
  /// Fails (injected `coordinator.claim_comparisons` fault) before touching
  /// the claim tables.
  Result<ComparisonClaim> ClaimComparisons(
      const std::vector<Link>& comparisons);

  /// Blocks until every pair of `foreign` is either published (released by
  /// its owner) or abandoned. Abandoned pairs are atomically re-claimed by
  /// this caller and returned as its owned pairs: the caller evaluates,
  /// publishes and releases them like its own claims (or abandons them by
  /// dropping the claim). The common case — no owner failed — owns none.
  ComparisonClaim AwaitComparisons(const std::vector<Link>& foreign);

  /// Inspection for tests and invariant checks: with no resolution in
  /// flight, all three must be zero — a non-zero count after every session
  /// ended means a claim was stranded by a failure path.
  std::size_t num_entities_in_flight();
  std::size_t num_comparisons_in_flight();
  std::size_t num_comparisons_abandoned();

 private:
  static std::uint64_t KeyOf(const Link& link);

  // The owners' hand-back paths: drop the claims and wake waiters.
  void ReleaseEntities(const std::vector<EntityId>& claimed);
  void ReleaseComparisons(const std::vector<Link>& owned);
  void AbandonComparisons(const std::vector<Link>& owned);

  std::mutex mutex_;
  std::condition_variable released_;
  std::unordered_set<EntityId> entities_in_flight_;
  // Claimed pairs, key -> abandoned: in flight under their owner (false),
  // or parked by an owner that failed (true) until a session adopts them.
  // Abandoning only flips the flag, so ~ComparisonClaim cannot fail.
  std::unordered_map<std::uint64_t, bool> comparisons_;
};

}  // namespace queryer

#endif  // QUERYER_MATCHING_RESOLUTION_COORDINATOR_H_
