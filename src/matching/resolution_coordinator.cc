#include "matching/resolution_coordinator.h"

#include <algorithm>
#include <utility>

#include "common/failpoint.h"

namespace queryer {

std::uint64_t ResolutionCoordinator::KeyOf(const Link& link) {
  EntityId lo = std::min(link.first, link.second);
  EntityId hi = std::max(link.first, link.second);
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

ResolutionCoordinator::EntityClaim&
ResolutionCoordinator::EntityClaim::operator=(EntityClaim&& other) noexcept {
  Release();
  std::swap(coordinator_, other.coordinator_);
  claimed_.swap(other.claimed_);
  foreign.swap(other.foreign);
  already_resolved = other.already_resolved;
  return *this;
}

void ResolutionCoordinator::EntityClaim::Release() {
  if (coordinator_ != nullptr) coordinator_->ReleaseEntities(claimed_);
  claimed_.clear();
}

ResolutionCoordinator::ComparisonClaim&
ResolutionCoordinator::ComparisonClaim::operator=(
    ComparisonClaim&& other) noexcept {
  if (coordinator_ != nullptr) coordinator_->AbandonComparisons(owned_);
  owned_.clear();
  std::swap(coordinator_, other.coordinator_);
  owned_.swap(other.owned_);
  foreign.swap(other.foreign);
  return *this;
}

ResolutionCoordinator::ComparisonClaim::~ComparisonClaim() {
  if (coordinator_ != nullptr) coordinator_->AbandonComparisons(owned_);
}

void ResolutionCoordinator::ComparisonClaim::Release() {
  if (coordinator_ != nullptr) coordinator_->ReleaseComparisons(owned_);
  owned_.clear();
}

ResolutionCoordinator::EntityClaim ResolutionCoordinator::ClaimEntities(
    const std::vector<EntityId>& query_entities, const LinkIndex& index) {
  // Reserved up front, so an entity registered in flight is always in
  // claim.claimed_ too and even an unwinding claim frees it.
  EntityClaim claim;
  claim.coordinator_ = this;
  claim.claimed_.reserve(query_entities.size());
  // The resolved reads and the claim must be one atomic step: between a
  // separate "is resolved?" check and a later claim, a concurrent session
  // could finish (mark resolved + release), and the stale check would make
  // this session re-resolve the entity — re-running comparisons no serial
  // schedule executes. Lock order is coordinator mutex, then the index's
  // shared lock; nothing locks in the opposite order.
  std::lock_guard<std::mutex> lock(mutex_);
  LinkIndex::ReadView view = index.SharedSnapshot();
  for (EntityId e : query_entities) {
    if (view.IsResolved(e)) {
      ++claim.already_resolved;
    } else if (entities_in_flight_.insert(e).second) {
      claim.claimed_.push_back(e);
    } else {
      claim.foreign.push_back(e);
    }
  }
  return claim;
}

void ResolutionCoordinator::ReleaseEntities(
    const std::vector<EntityId>& claimed) {
  if (claimed.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (EntityId e : claimed) entities_in_flight_.erase(e);
  }
  released_.notify_all();
}

void ResolutionCoordinator::AwaitEntities(
    const std::vector<EntityId>& foreign) {
  if (foreign.empty()) return;
  std::unique_lock<std::mutex> lock(mutex_);
  released_.wait(lock, [&] {
    for (EntityId e : foreign) {
      if (entities_in_flight_.count(e) > 0) return false;
    }
    return true;
  });
}

Result<ResolutionCoordinator::ComparisonClaim>
ResolutionCoordinator::ClaimComparisons(const std::vector<Link>& comparisons) {
  // Before any claim-table mutation: an injected failure here must leave
  // nothing to clean up (the session fails with zero pairs claimed).
  QUERYER_FAILPOINT("coordinator.claim_comparisons");
  ComparisonClaim claim;
  claim.coordinator_ = this;
  claim.owned_.reserve(comparisons.size());
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Link& pair : comparisons) {
    auto [it, fresh] = comparisons_.try_emplace(KeyOf(pair), false);
    // A claim also adopts a pair a failed session abandoned: the new owner
    // evaluates it, so it must leave the adoption pool.
    if (fresh || it->second) {
      it->second = false;
      claim.owned_.push_back(pair);
    } else {
      claim.foreign.push_back(pair);
    }
  }
  return claim;
}

void ResolutionCoordinator::ReleaseComparisons(const std::vector<Link>& owned) {
  // Inert (release must not fail — the claims would be stranded forever);
  // a delay here widens the publish -> release window chaos tests probe.
  QUERYER_FAILPOINT_INERT("coordinator.release");
  if (owned.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Link& pair : owned) comparisons_.erase(KeyOf(pair));
  }
  released_.notify_all();
}

void ResolutionCoordinator::AbandonComparisons(const std::vector<Link>& owned) {
  if (owned.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Link& pair : owned) {
      auto it = comparisons_.find(KeyOf(pair));
      if (it != comparisons_.end()) it->second = true;
    }
  }
  released_.notify_all();
}

ResolutionCoordinator::ComparisonClaim ResolutionCoordinator::AwaitComparisons(
    const std::vector<Link>& foreign) {
  ComparisonClaim adopted;
  adopted.coordinator_ = this;
  if (foreign.empty()) return adopted;
  adopted.owned_.reserve(foreign.size());
  std::vector<Link> pending = foreign;
  std::unique_lock<std::mutex> lock(mutex_);
  // The predicate adopts abandoned pairs as a side effect: the check and
  // the re-claim must be one atomic step, or two waiters could both judge
  // a pair adoptable and race for it outside the wait. It allocates
  // nothing, so an adopted pair is always in `adopted`.
  released_.wait(lock, [&] {
    auto settled = [&](const Link& pair) {
      auto it = comparisons_.find(KeyOf(pair));
      if (it == comparisons_.end()) return true;  // Published.
      if (!it->second) return false;  // Still in flight under its owner.
      it->second = false;  // Abandoned: adopt it.
      adopted.owned_.push_back(pair);
      return true;
    };
    pending.erase(std::remove_if(pending.begin(), pending.end(), settled),
                  pending.end());
    return pending.empty();
  });
  return adopted;
}

std::size_t ResolutionCoordinator::num_entities_in_flight() {
  std::lock_guard<std::mutex> lock(mutex_);
  return entities_in_flight_.size();
}

std::size_t ResolutionCoordinator::num_comparisons_in_flight() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::count_if(comparisons_.begin(), comparisons_.end(),
                       [](const auto& entry) { return !entry.second; });
}

std::size_t ResolutionCoordinator::num_comparisons_abandoned() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::count_if(comparisons_.begin(), comparisons_.end(),
                       [](const auto& entry) { return entry.second; });
}

}  // namespace queryer
