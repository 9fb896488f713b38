#ifndef CHUNKCACHE_CACHE_REPLACEMENT_H_
#define CHUNKCACHE_CACHE_REPLACEMENT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace chunkcache::cache {

/// A cache entry's replacement state, embedded in the entry so a policy
/// keeps no index of its own: the entry's links in the policy's circular
/// list and the CLOCK weights. A node is in at most one policy at a time,
/// and its entry must not move while it is.
struct ReplacementNode {
  ReplacementNode() = default;
  // A linked node is pointed at by its neighbours and the policy.
  ReplacementNode(const ReplacementNode&) = delete;
  ReplacementNode& operator=(const ReplacementNode&) = delete;

  ReplacementNode* prev = nullptr;
  ReplacementNode* next = nullptr;
  double weight = 0;   // reference bit (0/1) for plain CLOCK
  double benefit = 0;  // weight at insert; benefit-CLOCK resets to it
};

/// Victim-selection policy for a cache of variable-benefit entries. The
/// cache hands the policy each entry's embedded node; the policy links
/// the nodes into one circular list, tracks access recency and/or benefit
/// weights in them and nominates eviction victims.
///
/// Implementations provided (the three the paper compares in Fig. 13):
///  - LruPolicy:          exact LRU.
///  - ClockPolicy:        CLOCK, the LRU approximation the paper uses.
///  - BenefitClockPolicy: the paper's benefit-weighted CLOCK (Section 5.4).
class ReplacementPolicy {
 public:
  ReplacementPolicy() = default;
  // The list runs through nodes that point back into it.
  ReplacementPolicy(const ReplacementPolicy&) = delete;
  ReplacementPolicy& operator=(const ReplacementPolicy&) = delete;
  virtual ~ReplacementPolicy() = default;

  /// Registers `node`, a new entry with the given benefit.
  virtual void OnInsert(ReplacementNode* node, double benefit) = 0;

  /// Notes a cache hit on `node`'s entry.
  virtual void OnAccess(ReplacementNode* node) = 0;

  /// Removes `node` from the policy's books (entry evicted or dropped).
  void OnErase(ReplacementNode* node) { Unlink(node); }

  /// Nominates an eviction victim to make room for an incoming entry of
  /// benefit `incoming_benefit`. Returns nullptr only when empty.
  virtual ReplacementNode* PickVictim(double incoming_benefit) = 0;

  virtual std::string name() const = 0;
  size_t size() const { return size_; }

 protected:
  /// Links `node` just before `head_` in the circular list, or as the
  /// whole list (and `head_`) when it is empty.
  void LinkBeforeHead(ReplacementNode* node);
  /// Unlinks `node`; `head_` moves to its successor if it was `node`.
  void Unlink(ReplacementNode* node);

  ReplacementNode* head_ = nullptr;  // LRU: most recent; CLOCK: the arm
  size_t size_ = 0;
};

/// Exact LRU: the list in recency order from `head_`, so the victim is
/// `head_`'s predecessor.
class LruPolicy final : public ReplacementPolicy {
 public:
  void OnInsert(ReplacementNode* node, double benefit) override;
  void OnAccess(ReplacementNode* node) override;
  ReplacementNode* PickVictim(double incoming_benefit) override;
  std::string name() const override { return "lru"; }
};

/// Shared machinery for the two CLOCK variants: the list is the ring and
/// `head_` its sweeping arm. Insert, erase and one arm step are O(1).
///
/// Determinism: a new entry always enters the ring *just behind* the arm,
/// so it is examined last in the current sweep, wherever the arm sits.
/// Erasing the node under the arm moves the arm to its successor, so the
/// circular sweep order of the remaining entries never changes.
class ClockBase : public ReplacementPolicy {
 public:
  void OnInsert(ReplacementNode* node, double benefit) override;

 protected:
  /// The node under the arm, stepping the arm past it; nullptr when the
  /// ring is empty.
  ReplacementNode* Advance();
};

/// Plain CLOCK (second chance): weight is a 0/1 reference bit.
class ClockPolicy final : public ClockBase {
 public:
  void OnInsert(ReplacementNode* node, double benefit) override;
  void OnAccess(ReplacementNode* node) override;
  ReplacementNode* PickVictim(double incoming_benefit) override;
  std::string name() const override { return "clock"; }
};

/// The paper's benefit-weighted CLOCK (Section 5.4).
class BenefitClockPolicy final : public ClockBase {
 public:
  void OnAccess(ReplacementNode* node) override;
  ReplacementNode* PickVictim(double incoming_benefit) override;
  std::string name() const override { return "benefit-clock"; }
};

/// All policy names MakePolicy accepts, in canonical order. Only
/// benefit-clock folds entry benefit into victim selection.
const std::vector<std::string>& KnownPolicyNames();

/// Factory by name. An unknown name aborts with a message naming every
/// valid policy; it never substitutes a default.
std::unique_ptr<ReplacementPolicy> MakePolicy(const std::string& name);

}  // namespace chunkcache::cache

#endif  // CHUNKCACHE_CACHE_REPLACEMENT_H_
