#pragma once
// Deficit-round-robin fair lane: the per-lane request container behind
// AdmissionQueue once tenants exist. Each tenant gets its own FIFO; dequeue
// visits active tenants round-robin and serves up to `weight` requests per
// visit (classic DRR with unit request cost, quantum = weight). One
// tenant's storm therefore cannot starve another's deadline: a tenant with
// weight w is guaranteed w dequeues per full rotation no matter how deep
// its neighbours' backlogs are. With a single tenant the structure
// degenerates to the plain FIFO the two-lane queue always had.
//
// Not thread-safe: AdmissionQueue calls it under its own mutex.

#include <cstddef>
#include <deque>
#include <optional>
#include <vector>

#include "serve/request.hpp"

namespace seneca::serve::tenant {

class DrrLane {
 public:
  /// Enqueue at the tail of the request's tenant FIFO. The request's
  /// `weight` refreshes the tenant's DRR quantum.
  void push_back(Request r);

  /// Re-enqueue at the head of the request's tenant FIFO and make that
  /// tenant the next one visited — used by the batcher's preemption path,
  /// which hands requests back in reverse pop order to restore FIFO.
  void push_front(Request r);

  /// DRR dequeue; nullopt when empty.
  std::optional<Request> pop();

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// The queued request with the latest deadline (no deadline == infinitely
  /// late), or nullptr when empty. Victim probe for kEvictDeadline.
  const Request* slackest() const;

  /// Removes the exact queued request `target` points at (a pointer
  /// previously returned by slackest()). Returns the removed request.
  Request take(const Request* target);

  /// Removes every queued request with r.expired(now); appends them to
  /// `out`. Returns how many were swept.
  std::size_t sweep_expired(Clock::time_point now, std::vector<Request>& out);

 private:
  struct TenantQueue {
    std::deque<Request> fifo;
    std::uint32_t weight = 1;
    std::uint32_t credit = 0;  // remaining serves in the current visit
  };

  TenantQueue& tenant(TenantId id);
  void deactivate(TenantId id);

  // Tenant slots are append-only per lane lifetime (the set of tenants is
  // small and stable); `active_` holds ids with non-empty FIFOs in visit
  // order, front = next visited.
  std::vector<std::pair<TenantId, TenantQueue>> tenants_;
  std::deque<TenantId> active_;
  std::size_t size_ = 0;
};

}  // namespace seneca::serve::tenant
