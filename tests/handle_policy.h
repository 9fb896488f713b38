#ifndef CHUNKCACHE_TESTS_HANDLE_POLICY_H_
#define CHUNKCACHE_TESTS_HANDLE_POLICY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>

#include "cache/replacement.h"

namespace chunkcache::cache {

/// Drives a ReplacementPolicy by handle the way a cache does: each live
/// handle's entry embeds its node, and a victim node maps back to its
/// handle through the entry.
class HandlePolicy {
 public:
  explicit HandlePolicy(std::unique_ptr<ReplacementPolicy> policy)
      : policy_(std::move(policy)) {}

  void OnInsert(uint64_t handle, double benefit) {
    Entry& e = entries_[handle];
    e.handle = handle;
    policy_->OnInsert(&e, benefit);
  }
  void OnAccess(uint64_t handle) { policy_->OnAccess(&entries_.at(handle)); }
  void OnErase(uint64_t handle) {
    auto it = entries_.find(handle);
    policy_->OnErase(&it->second);
    entries_.erase(it);
  }
  std::optional<uint64_t> PickVictim(double incoming_benefit) {
    ReplacementNode* victim = policy_->PickVictim(incoming_benefit);
    if (victim == nullptr) return std::nullopt;
    return static_cast<Entry*>(victim)->handle;
  }
  size_t size() const { return policy_->size(); }

 private:
  struct Entry : ReplacementNode {
    uint64_t handle = 0;
  };
  std::unique_ptr<ReplacementPolicy> policy_;
  std::unordered_map<uint64_t, Entry> entries_;
};

}  // namespace chunkcache::cache

#endif  // CHUNKCACHE_TESTS_HANDLE_POLICY_H_
