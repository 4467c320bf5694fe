#include "server/session_registry.h"

#include <algorithm>

namespace rescq {

namespace {

/// entries_ is kept sorted by name so List() is deterministic and
/// lookup is a binary search — session counts are small, but the
/// `sessions` verb and the golden transcript want a stable order.
std::vector<std::shared_ptr<SessionEntry>>::const_iterator LowerBound(
    const std::vector<std::shared_ptr<SessionEntry>>& entries,
    const std::string& name) {
  return std::lower_bound(
      entries.begin(), entries.end(), name,
      [](const std::shared_ptr<SessionEntry>& e, const std::string& n) {
        return e->name < n;
      });
}

}  // namespace

bool SessionRegistry::Open(const std::string& name,
                           std::shared_ptr<SessionEntry>* entry,
                           std::string* error) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = LowerBound(entries_, name);
  if (it != entries_.end() && (*it)->name == name) {
    *error = "session '" + name + "' already exists";
    return false;
  }
  if (max_sessions_ != 0 && entries_.size() >= max_sessions_) {
    *error = "session limit reached (max_sessions=" +
             std::to_string(max_sessions_) + ")";
    return false;
  }
  *entry = std::make_shared<SessionEntry>(name);
  entries_.insert(it, *entry);
  return true;
}

std::shared_ptr<SessionEntry> SessionRegistry::Find(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = LowerBound(entries_, name);
  if (it == entries_.end() || (*it)->name != name) return nullptr;
  return *it;
}

bool SessionRegistry::Close(const std::string& name, std::string* error) {
  std::shared_ptr<SessionEntry> entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = LowerBound(entries_, name);
    if (it == entries_.end() || (*it)->name != name) {
      *error = "no session named '" + name + "'";
      return false;
    }
    entry = *it;
    entries_.erase(it);
  }
  // Mark outside the registry mutex: the exclusive lock waits for
  // in-flight requests on this session without stalling every other
  // registry operation.
  std::unique_lock<std::shared_mutex> lock(entry->mu);
  entry->closed = true;
  entry->session.reset();
  return true;
}

size_t SessionRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::vector<std::shared_ptr<SessionEntry>> SessionRegistry::List() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_;
}

namespace {

/// Drops one session's cold state if it is (still) evictable. The
/// try_lock doubles as the hotness test: a session mid-request holds
/// its own lock, and a busy session is not cold.
bool TryEvictEntry(const std::shared_ptr<SessionEntry>& e) {
  std::unique_lock<std::shared_mutex> lock(e->mu, std::try_to_lock);
  if (!lock.owns_lock()) return false;
  if (e->closed || !e->live() || !e->session->index_resident()) return false;
  e->session->EvictColdState();
  e->resident_bytes.store(e->session->ApproxMemory().TotalBytes(),
                          std::memory_order_relaxed);
  return true;
}

}  // namespace

size_t SessionRegistry::EvictColdSessions(int64_t now_ms, int64_t idle_ms,
                                          uint64_t max_resident_bytes) {
  std::vector<std::shared_ptr<SessionEntry>> snapshot = List();
  size_t evicted = 0;

  // Pass 1: idle eviction, regardless of the byte cap.
  if (idle_ms > 0) {
    for (const auto& e : snapshot) {
      int64_t touched = e->last_touch_ms.load(std::memory_order_relaxed);
      if (now_ms - touched < idle_ms) continue;
      if (TryEvictEntry(e)) ++evicted;
    }
  }

  // Pass 2: byte cap — evict coldest-first until back under.
  if (max_resident_bytes > 0) {
    std::stable_sort(snapshot.begin(), snapshot.end(),
                     [](const std::shared_ptr<SessionEntry>& a,
                        const std::shared_ptr<SessionEntry>& b) {
                       return a->last_touch_ms.load(std::memory_order_relaxed) <
                              b->last_touch_ms.load(std::memory_order_relaxed);
                     });
    uint64_t resident = 0;
    for (const auto& e : snapshot)
      resident += e->resident_bytes.load(std::memory_order_relaxed);
    for (const auto& e : snapshot) {
      if (resident <= max_resident_bytes) break;
      uint64_t before = e->resident_bytes.load(std::memory_order_relaxed);
      if (!TryEvictEntry(e)) continue;
      ++evicted;
      uint64_t after = e->resident_bytes.load(std::memory_order_relaxed);
      resident -= before > after ? before - after : 0;
    }
  }

  return evicted;
}

}  // namespace rescq
