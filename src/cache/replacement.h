#ifndef CHUNKCACHE_CACHE_REPLACEMENT_H_
#define CHUNKCACHE_CACHE_REPLACEMENT_H_

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace chunkcache::cache {

/// Victim-selection policy for a cache of variable-benefit entries. The
/// cache identifies entries by opaque handles; the policy tracks access
/// recency and/or benefit weights and nominates eviction victims.
///
/// Implementations provided (the three the paper compares in Fig. 13):
///  - LruPolicy:          exact LRU (list-based).
///  - ClockPolicy:        CLOCK, the LRU approximation the paper uses.
///  - BenefitClockPolicy: the paper's benefit-weighted CLOCK (Section 5.4).
class ReplacementPolicy {
 public:
  virtual ~ReplacementPolicy() = default;

  /// Registers a new entry with the given benefit.
  virtual void OnInsert(uint64_t handle, double benefit) = 0;

  /// Notes a cache hit on `handle`.
  virtual void OnAccess(uint64_t handle) = 0;

  /// Removes `handle` from the policy's books (entry evicted or dropped).
  virtual void OnErase(uint64_t handle) = 0;

  /// Nominates an eviction victim to make room for an incoming entry of
  /// benefit `incoming_benefit`. Returns nullopt only when empty.
  virtual std::optional<uint64_t> PickVictim(double incoming_benefit) = 0;

  virtual std::string name() const = 0;
  virtual size_t size() const = 0;
};

/// Exact LRU via an intrusive list.
class LruPolicy final : public ReplacementPolicy {
 public:
  void OnInsert(uint64_t handle, double benefit) override;
  void OnAccess(uint64_t handle) override;
  void OnErase(uint64_t handle) override;
  std::optional<uint64_t> PickVictim(double incoming_benefit) override;
  std::string name() const override { return "lru"; }
  size_t size() const override { return map_.size(); }

 private:
  std::list<uint64_t> order_;  // front = most recent
  std::unordered_map<uint64_t, std::list<uint64_t>::iterator> map_;
};

/// Shared machinery for the two CLOCK variants: a circular list of live
/// slots with a sweeping arm. Insert, erase and one arm step are O(1).
///
/// Determinism: a new entry always enters the ring *just behind* the arm,
/// so it is examined last in the current sweep, wherever the arm sits.
/// Erasing the slot under the arm moves the arm to its successor, so the
/// circular sweep order of the remaining entries never changes.
class ClockBase : public ReplacementPolicy {
 public:
  ClockBase() = default;
  // The arm is an iterator into ring_; a copy would point into the source.
  ClockBase(const ClockBase&) = delete;
  ClockBase& operator=(const ClockBase&) = delete;

  void OnInsert(uint64_t handle, double benefit) override;
  void OnErase(uint64_t handle) override;
  size_t size() const override { return map_.size(); }

 protected:
  struct Slot {
    uint64_t handle = 0;
    double weight = 0;   // reference bit (0/1) for plain CLOCK
    double benefit = 0;  // weight at insert; benefit-CLOCK resets to it
  };
  using Ring = std::list<Slot>;

  /// The slot under the arm, stepping the arm past it; nullptr when the
  /// ring is empty. The arm at ring_.end() stands for ring_.begin().
  Slot* Advance();

  Ring ring_;
  std::unordered_map<uint64_t, Ring::iterator> map_;  // handle -> slot
  Ring::iterator arm_ = ring_.end();
};

/// Plain CLOCK (second chance): weight is a 0/1 reference bit.
class ClockPolicy final : public ClockBase {
 public:
  void OnInsert(uint64_t handle, double benefit) override;
  void OnAccess(uint64_t handle) override;
  std::optional<uint64_t> PickVictim(double incoming_benefit) override;
  std::string name() const override { return "clock"; }
};

/// The paper's benefit-weighted CLOCK (Section 5.4).
class BenefitClockPolicy final : public ClockBase {
 public:
  void OnAccess(uint64_t handle) override;
  std::optional<uint64_t> PickVictim(double incoming_benefit) override;
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
