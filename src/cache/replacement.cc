#include "cache/replacement.h"

#include <cstdio>
#include <cstdlib>

#include "common/logging.h"

namespace chunkcache::cache {

// ------------------------------- The list ----------------------------------

void ReplacementPolicy::LinkBeforeHead(ReplacementNode* node) {
  if (head_ == nullptr) {
    node->prev = node;
    node->next = node;
    head_ = node;
  } else {
    node->prev = head_->prev;
    node->next = head_;
    head_->prev->next = node;
    head_->prev = node;
  }
  ++size_;
}

void ReplacementPolicy::Unlink(ReplacementNode* node) {
  CHUNKCACHE_DCHECK(size_ != 0 && node->next != nullptr);
  if (node->next == node) {
    head_ = nullptr;
  } else {
    node->prev->next = node->next;
    node->next->prev = node->prev;
    if (head_ == node) head_ = node->next;
  }
  node->prev = nullptr;
  node->next = nullptr;
  --size_;
}

// ----------------------------------- LRU ------------------------------------

void LruPolicy::OnInsert(ReplacementNode* node, double /*benefit*/) {
  LinkBeforeHead(node);
  head_ = node;
}

void LruPolicy::OnAccess(ReplacementNode* node) {
  if (node == head_) return;
  Unlink(node);
  LinkBeforeHead(node);
  head_ = node;
}

ReplacementNode* LruPolicy::PickVictim(double /*incoming_benefit*/) {
  return head_ == nullptr ? nullptr : head_->prev;
}

// --------------------------------- ClockBase --------------------------------

void ClockBase::OnInsert(ReplacementNode* node, double benefit) {
  // Just behind the arm, so the new entry is examined last in the current
  // sweep.
  node->weight = benefit;
  node->benefit = benefit;
  LinkBeforeHead(node);
}

ReplacementNode* ClockBase::Advance() {
  ReplacementNode* node = head_;
  if (node != nullptr) head_ = node->next;
  return node;
}

// ----------------------------------- CLOCK ----------------------------------

void ClockPolicy::OnInsert(ReplacementNode* node, double /*benefit*/) {
  ClockBase::OnInsert(node, /*benefit=*/1.0);  // reference bit set
}

void ClockPolicy::OnAccess(ReplacementNode* node) { node->weight = 1.0; }

ReplacementNode* ClockPolicy::PickVictim(double /*incoming*/) {
  // Classic second chance: clear reference bits until an unreferenced
  // entry comes under the arm. Bounded by live entries (never reached in
  // practice: one full sweep clears every bit).
  for (size_t steps = 0; steps < 2 * size_ + 1; ++steps) {
    ReplacementNode* n = Advance();
    if (n == nullptr) return nullptr;
    if (n->weight > 0) {
      n->weight = 0;
    } else {
      return n;
    }
  }
  return nullptr;  // unreachable with live entries
}

// ------------------------------- Benefit CLOCK -------------------------------

void BenefitClockPolicy::OnAccess(ReplacementNode* node) {
  // "The weight is reset to its initial benefit value whenever the chunk is
  // reaccessed."
  node->weight = node->benefit;
}

ReplacementNode* BenefitClockPolicy::PickVictim(double incoming_benefit) {
  if (size_ == 0) return nullptr;
  if (incoming_benefit <= 0) incoming_benefit = 1.0;
  // Sweep, decrementing weights by the incoming chunk's benefit; an entry
  // whose weight was already exhausted is the victim. The sweep is bounded:
  // if no weight drains within a few cycles (a stream of tiny chunks
  // hitting a cache of expensive ones), evict the minimum-weight entry seen
  // rather than spinning.
  const size_t max_steps = 4 * size_ + 4;
  ReplacementNode* min_node = nullptr;
  double min_weight = 0;
  for (size_t steps = 0; steps < max_steps; ++steps) {
    ReplacementNode* n = Advance();
    if (n->weight <= 0) return n;
    if (min_node == nullptr || n->weight < min_weight) {
      min_node = n;
      min_weight = n->weight;
    }
    n->weight -= incoming_benefit;
  }
  return min_node;
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
