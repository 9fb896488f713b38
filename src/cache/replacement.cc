#include "cache/replacement.h"

#include <cstdio>
#include <cstdlib>

#include "common/logging.h"

namespace chunkcache::cache {

// ----------------------------------- LRU ------------------------------------

void LruPolicy::OnInsert(uint64_t handle, double /*benefit*/) {
  CHUNKCACHE_DCHECK(map_.find(handle) == map_.end());
  order_.push_front(handle);
  map_[handle] = order_.begin();
}

void LruPolicy::OnAccess(uint64_t handle) {
  auto it = map_.find(handle);
  if (it == map_.end()) return;
  order_.splice(order_.begin(), order_, it->second);
}

void LruPolicy::OnErase(uint64_t handle) {
  auto it = map_.find(handle);
  if (it == map_.end()) return;
  order_.erase(it->second);
  map_.erase(it);
}

std::optional<uint64_t> LruPolicy::PickVictim(double /*incoming_benefit*/) {
  if (order_.empty()) return std::nullopt;
  return order_.back();
}

// --------------------------------- ClockBase --------------------------------

void ClockBase::OnInsert(uint64_t handle, double benefit) {
  CHUNKCACHE_DCHECK(map_.find(handle) == map_.end());
  // Just behind the arm, so the new entry is examined last in the current
  // sweep. With the arm at end() (= begin()) that is the back of the list.
  map_[handle] = ring_.insert(arm_, Slot{handle, benefit, benefit});
}

void ClockBase::OnErase(uint64_t handle) {
  auto it = map_.find(handle);
  if (it == map_.end()) return;
  if (arm_ == it->second) ++arm_;
  ring_.erase(it->second);
  map_.erase(it);
}

ClockBase::Slot* ClockBase::Advance() {
  if (ring_.empty()) return nullptr;
  if (arm_ == ring_.end()) arm_ = ring_.begin();
  Slot* slot = &*arm_;
  ++arm_;
  return slot;
}

// ----------------------------------- CLOCK ----------------------------------

void ClockPolicy::OnInsert(uint64_t handle, double /*benefit*/) {
  ClockBase::OnInsert(handle, /*benefit=*/1.0);  // reference bit set
}

void ClockPolicy::OnAccess(uint64_t handle) {
  auto it = map_.find(handle);
  if (it == map_.end()) return;
  it->second->weight = 1.0;
}

std::optional<uint64_t> ClockPolicy::PickVictim(double /*incoming*/) {
  // Classic second chance: clear reference bits until an unreferenced
  // entry comes under the arm. Bounded by live entries (never reached in
  // practice: one full sweep clears every bit).
  for (size_t steps = 0; steps < 2 * map_.size() + 1; ++steps) {
    Slot* s = Advance();
    if (s == nullptr) return std::nullopt;
    if (s->weight > 0) {
      s->weight = 0;
    } else {
      return s->handle;
    }
  }
  return std::nullopt;  // unreachable with live entries
}

// ------------------------------- Benefit CLOCK -------------------------------

void BenefitClockPolicy::OnAccess(uint64_t handle) {
  auto it = map_.find(handle);
  if (it == map_.end()) return;
  // "The weight is reset to its initial benefit value whenever the chunk is
  // reaccessed."
  it->second->weight = it->second->benefit;
}

std::optional<uint64_t> BenefitClockPolicy::PickVictim(
    double incoming_benefit) {
  if (map_.empty()) return std::nullopt;
  if (incoming_benefit <= 0) incoming_benefit = 1.0;
  // Sweep, decrementing weights by the incoming chunk's benefit; an entry
  // whose weight was already exhausted is the victim. The sweep is bounded:
  // if no weight drains within a few cycles (a stream of tiny chunks
  // hitting a cache of expensive ones), evict the minimum-weight entry seen
  // rather than spinning.
  const size_t max_steps = 4 * map_.size() + 4;
  std::optional<uint64_t> min_handle;
  double min_weight = 0;
  for (size_t steps = 0; steps < max_steps; ++steps) {
    Slot* s = Advance();
    if (s == nullptr) return std::nullopt;
    if (s->weight <= 0) return s->handle;
    if (!min_handle || s->weight < min_weight) {
      min_handle = s->handle;
      min_weight = s->weight;
    }
    s->weight -= incoming_benefit;
  }
  return min_handle;
}

// ---------------------------------- Factory ---------------------------------

const std::vector<std::string>& KnownPolicyNames() {
  static const std::vector<std::string> kNames = {"lru", "clock",
                                                  "benefit-clock"};
  return kNames;
}

std::unique_ptr<ReplacementPolicy> MakePolicy(const std::string& name) {
  if (name == "lru") return std::make_unique<LruPolicy>();
  if (name == "clock") return std::make_unique<ClockPolicy>();
  if (name == "benefit-clock") return std::make_unique<BenefitClockPolicy>();
  std::string known;
  for (const auto& n : KnownPolicyNames()) {
    known += known.empty() ? n : (", " + n);
  }
  std::fprintf(stderr,
               "unknown replacement policy \"%s\"; valid policies: %s\n",
               name.c_str(), known.c_str());
  std::abort();
}

}  // namespace chunkcache::cache
