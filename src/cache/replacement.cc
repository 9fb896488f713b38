#include "cache/replacement.h"

#include <algorithm>
#include <cmath>

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

// ------------------------------------ ARC -----------------------------------

void ArcPolicy::OnInsertKeyed(uint64_t handle, uint64_t key_id,
                              double /*benefit*/) {
  CHUNKCACHE_DCHECK(map_.find(handle) == map_.end());
  auto git = ghosts_.find(key_id);
  if (git != ghosts_.end()) {
    // Ghost hit: the key was evicted recently, so the eviction was a
    // mistake of the current recency/frequency split — adapt p toward the
    // list that remembered it, and admit straight into T2.
    const double b1 = static_cast<double>(b1_.size());
    const double b2 = static_cast<double>(b2_.size());
    if (git->second.first == kT1) {  // remembered by B1 (recency ghost)
      p_ = std::min(static_cast<double>(c_),
                    p_ + std::max(1.0, b2 / std::max(1.0, b1)));
    } else {  // remembered by B2 (frequency ghost)
      p_ = std::max(0.0, p_ - std::max(1.0, b1 / std::max(1.0, b2)));
    }
    EraseGhost(key_id);
    t2_.push_front(handle);
    map_[handle] = Pos{kT2, t2_.begin(), key_id};
  } else {
    t1_.push_front(handle);
    map_[handle] = Pos{kT1, t1_.begin(), key_id};
  }
  c_ = std::max(c_, map_.size());
  TrimGhosts();
}

void ArcPolicy::OnAccess(uint64_t handle) {
  auto it = map_.find(handle);
  if (it == map_.end()) return;
  Pos& pos = it->second;
  if (pos.where == kT1) {
    t1_.erase(pos.it);
    t2_.push_front(handle);
    pos.where = kT2;
    pos.it = t2_.begin();
  } else {
    t2_.splice(t2_.begin(), t2_, pos.it);
  }
}

void ArcPolicy::OnErase(uint64_t handle) {
  auto it = map_.find(handle);
  if (it == map_.end()) return;
  const Pos pos = it->second;
  if (pos.where == kT1) {
    t1_.erase(pos.it);
  } else {
    t2_.erase(pos.it);
  }
  map_.erase(it);
  // Every departure leaves a ghost so a prompt re-fetch is recognized.
  EraseGhost(pos.key_id);
  if (pos.where == kT1) {
    b1_.push_front(pos.key_id);
    ghosts_[pos.key_id] = {kT1, b1_.begin()};
  } else {
    b2_.push_front(pos.key_id);
    ghosts_[pos.key_id] = {kT2, b2_.begin()};
  }
  TrimGhosts();
}

std::optional<uint64_t> ArcPolicy::PickVictim(double /*incoming_benefit*/) {
  if (map_.empty()) return std::nullopt;
  const size_t target = std::max<size_t>(1, static_cast<size_t>(p_));
  if (!t1_.empty() && (t1_.size() > target || t2_.empty())) {
    return t1_.back();
  }
  if (!t2_.empty()) return t2_.back();
  return t1_.back();
}

void ArcPolicy::TrimGhosts() {
  while (b1_.size() > c_) {
    ghosts_.erase(b1_.back());
    b1_.pop_back();
  }
  while (b2_.size() > c_) {
    ghosts_.erase(b2_.back());
    b2_.pop_back();
  }
}

void ArcPolicy::EraseGhost(uint64_t key_id) {
  auto it = ghosts_.find(key_id);
  if (it == ghosts_.end()) return;
  if (it->second.first == kT1) {
    b1_.erase(it->second.second);
  } else {
    b2_.erase(it->second.second);
  }
  ghosts_.erase(it);
}

// -------------------------------- LFU + aging -------------------------------

double LfuAgingPolicy::Effective(const Entry& e) const {
  const uint64_t delta = epoch_ - e.epoch;
  const double freq = delta > 64 ? 0.0 : std::ldexp(e.freq, -static_cast<int>(delta));
  return weight_by_benefit_ ? freq * e.benefit : freq;
}

void LfuAgingPolicy::Tick() {
  ++ops_;
  if (ops_ % age_period_ == 0) ++epoch_;
}

void LfuAgingPolicy::OnInsert(uint64_t handle, double benefit) {
  CHUNKCACHE_DCHECK(map_.find(handle) == map_.end());
  Tick();
  Entry e;
  e.freq = 1.0;
  e.epoch = epoch_;
  e.benefit = benefit > 0 ? benefit : 1.0;
  e.seq = seq_++;
  map_[handle] = e;
}

void LfuAgingPolicy::OnAccess(uint64_t handle) {
  auto it = map_.find(handle);
  if (it == map_.end()) return;
  Tick();
  Entry& e = it->second;
  // Rebase the lazily-aged count to the current epoch, then bump it.
  const uint64_t delta = epoch_ - e.epoch;
  e.freq = (delta > 64 ? 0.0 : std::ldexp(e.freq, -static_cast<int>(delta))) + 1.0;
  e.epoch = epoch_;
}

void LfuAgingPolicy::OnErase(uint64_t handle) { map_.erase(handle); }

std::optional<uint64_t> LfuAgingPolicy::PickVictim(double /*incoming*/) {
  if (map_.empty()) return std::nullopt;
  // O(n) min scan; ties break on the oldest insertion sequence so the
  // victim is independent of hash-map iteration order.
  const Entry* best = nullptr;
  uint64_t best_handle = 0;
  double best_score = 0;
  for (const auto& [handle, e] : map_) {
    const double score = Effective(e);
    if (!best || score < best_score ||
        (score == best_score && e.seq < best->seq)) {
      best = &e;
      best_handle = handle;
      best_score = score;
    }
  }
  return best_handle;
}

// ----------------------------------- SLRU -----------------------------------

void SlruPolicy::OnInsert(uint64_t handle, double /*benefit*/) {
  CHUNKCACHE_DCHECK(map_.find(handle) == map_.end());
  prob_.push_front(handle);
  map_[handle] = Pos{false, prob_.begin()};
}

void SlruPolicy::OnAccess(uint64_t handle) {
  auto it = map_.find(handle);
  if (it == map_.end()) return;
  Pos& pos = it->second;
  if (pos.prot) {
    prot_.splice(prot_.begin(), prot_, pos.it);
  } else {
    prob_.erase(pos.it);
    prot_.push_front(handle);
    pos.prot = true;
    pos.it = prot_.begin();
    EnforceProtectedCap();
  }
}

void SlruPolicy::OnErase(uint64_t handle) {
  auto it = map_.find(handle);
  if (it == map_.end()) return;
  if (it->second.prot) {
    prot_.erase(it->second.it);
  } else {
    prob_.erase(it->second.it);
  }
  map_.erase(it);
  EnforceProtectedCap();
}

std::optional<uint64_t> SlruPolicy::PickVictim(double /*incoming*/) {
  if (!prob_.empty()) return prob_.back();
  if (!prot_.empty()) return prot_.back();
  return std::nullopt;
}

void SlruPolicy::EnforceProtectedCap() {
  const size_t cap = std::max<size_t>(1, (4 * map_.size()) / 5);
  while (prot_.size() > cap) {
    const uint64_t demoted = prot_.back();
    prot_.pop_back();
    prob_.push_front(demoted);
    auto it = map_.find(demoted);
    CHUNKCACHE_DCHECK(it != map_.end());
    it->second.prot = false;
    it->second.it = prob_.begin();
  }
}

// ------------------------------------ 2Q ------------------------------------

void TwoQPolicy::OnInsertKeyed(uint64_t handle, uint64_t key_id,
                               double /*benefit*/) {
  CHUNKCACHE_DCHECK(map_.find(handle) == map_.end());
  auto git = ghosts_.find(key_id);
  if (git != ghosts_.end()) {
    // A1out ghost hit: the key came back after leaving the FIFO, so it is
    // genuinely re-referenced — admit straight into the real LRU (Am).
    a1out_.erase(git->second);
    ghosts_.erase(git);
    am_.push_front(handle);
    map_[handle] = Pos{kAm, am_.begin(), key_id};
  } else {
    a1in_.push_front(handle);
    map_[handle] = Pos{kA1in, a1in_.begin(), key_id};
  }
  c_ = std::max(c_, map_.size());
  TrimGhosts();
}

void TwoQPolicy::OnAccess(uint64_t handle) {
  auto it = map_.find(handle);
  if (it == map_.end()) return;
  // A1in hits deliberately do nothing: a burst of accesses during one scan
  // must not promote a one-shot entry.
  if (it->second.where == kAm) {
    am_.splice(am_.begin(), am_, it->second.it);
  }
}

void TwoQPolicy::OnErase(uint64_t handle) {
  auto it = map_.find(handle);
  if (it == map_.end()) return;
  const Pos pos = it->second;
  map_.erase(it);
  if (pos.where == kA1in) {
    a1in_.erase(pos.it);
    // Only A1in departures are ghosted (classic 2Q): a second miss on the
    // key within the A1out window proves re-reference.
    auto git = ghosts_.find(pos.key_id);
    if (git != ghosts_.end()) a1out_.erase(git->second);
    a1out_.push_front(pos.key_id);
    ghosts_[pos.key_id] = a1out_.begin();
    TrimGhosts();
  } else {
    am_.erase(pos.it);
  }
}

std::optional<uint64_t> TwoQPolicy::PickVictim(double /*incoming*/) {
  if (map_.empty()) return std::nullopt;
  if (a1in_.empty()) return am_.back();
  if (am_.empty()) return a1in_.back();
  const size_t kin = std::max<size_t>(1, c_ / 4);
  if (a1in_.size() > kin) return a1in_.back();
  return am_.back();
}

void TwoQPolicy::TrimGhosts() {
  while (a1out_.size() > c_) {
    ghosts_.erase(a1out_.back());
    a1out_.pop_back();
  }
}

// ---------------------------------- Factory ---------------------------------

const std::vector<std::string>& KnownPolicyNames() {
  static const std::vector<std::string> kNames = {
      "lru",  "clock",     "benefit-clock",     "arc",
      "slru", "2q",        "lfu-aging",         "benefit-lfu-aging",
  };
  return kNames;
}

std::unique_ptr<ReplacementPolicy> MakePolicy(const std::string& name) {
  if (name == "lru") return std::make_unique<LruPolicy>();
  if (name == "clock") return std::make_unique<ClockPolicy>();
  if (name == "benefit-clock") return std::make_unique<BenefitClockPolicy>();
  if (name == "arc") return std::make_unique<ArcPolicy>();
  if (name == "slru") return std::make_unique<SlruPolicy>();
  if (name == "2q") return std::make_unique<TwoQPolicy>();
  if (name == "lfu-aging") {
    return std::make_unique<LfuAgingPolicy>(/*weight_by_benefit=*/false);
  }
  if (name == "benefit-lfu-aging") {
    return std::make_unique<LfuAgingPolicy>(/*weight_by_benefit=*/true);
  }
  return nullptr;
}

std::unique_ptr<ReplacementPolicy> MakePolicyOrDie(const std::string& name) {
  auto policy = MakePolicy(name);
  if (!policy) {
    std::string known;
    for (const auto& n : KnownPolicyNames()) {
      known += known.empty() ? n : (", " + n);
    }
    std::fprintf(stderr,
                 "unknown replacement policy \"%s\"; valid policies: %s\n",
                 name.c_str(), known.c_str());
    std::abort();
  }
  return policy;
}

}  // namespace chunkcache::cache
