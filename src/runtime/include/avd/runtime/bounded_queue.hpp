// Bounded multi-producer/multi-consumer queue: the channel between the
// serving runtime's pipeline stages.
//
// Capacity is a hard bound; what happens when a producer outruns the
// consumers is the backpressure policy:
//
//   * Block      — producers wait for space. Lossless; this is the policy of
//                  every control-plane queue (the lighting classifier must
//                  see every frame) and the deterministic-serving default.
//   * DropOldest — evict the oldest queued item to admit the new one. This
//                  is the real-time camera semantics — stale frames are
//                  worthless — and the serving-layer analogue of the paper's
//                  "one missed frame per reconfiguration": when the detect
//                  engine is busy, the frame captured meanwhile is lost.
//
// Dropped items are never silently destroyed when the caller cares: push()
// hands them back so the pipeline can still account for the frame (the
// StreamServer turns them into vehicle_processed=false reports).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>

namespace avd::runtime {

enum class OverflowPolicy : std::uint8_t { Block = 0, DropOldest };

[[nodiscard]] constexpr const char* to_string(OverflowPolicy p) {
  switch (p) {
    case OverflowPolicy::Block: return "block";
    case OverflowPolicy::DropOldest: return "drop-oldest";
  }
  return "?";
}

/// Outcome of one push() call. Exactly one of these is returned per push;
/// the value is enqueued iff the outcome is Accepted or Evicted.
///
/// Closed deserves care: it is returned both when the queue was already
/// closed at push() entry AND when a Block-policy producer was parked in
/// the not-full wait and close() woke it — in either case the pushed value
/// is destroyed (it is NOT handed back through `displaced`, which only ever
/// carries policy-displaced items). Producers racing a shutdown must treat
/// Closed as "this item was dropped", not "retry later"; the StreamServer's
/// stage loops account the frame before giving up on it.
enum class PushOutcome : std::uint8_t {
  Accepted = 0,  ///< enqueued, nothing displaced
  Evicted,       ///< enqueued after evicting the oldest item (DropOldest)
  Closed,        ///< not enqueued, value dropped, queue closed (possibly
                 ///< mid-wait: close() wakes blocked Block-policy pushers)
};

/// Counters maintained under the queue lock; snapshot via stats().
struct QueueStats {
  std::uint64_t pushed = 0;   ///< items accepted into the queue
  std::uint64_t popped = 0;   ///< items handed to consumers
  std::uint64_t dropped = 0;  ///< items evicted by DropOldest
  std::size_t high_water = 0; ///< maximum queue depth ever observed
};

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity,
                        OverflowPolicy policy = OverflowPolicy::Block)
      : capacity_(capacity == 0 ? 1 : capacity), policy_(policy) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Enqueue `value` under the backpressure policy. When DropOldest evicts
  /// the oldest queued item (Evicted), it is handed back through
  /// `displaced` (if non-null) so the caller can still account for the
  /// frame. Returns Closed (and drops the value) if close() was called.
  PushOutcome push(T value, std::optional<T>* displaced = nullptr) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (policy_ == OverflowPolicy::Block) {
      not_full_.wait(lock, [&] { return closed_ || items_.size() < capacity_; });
    }
    if (closed_) return PushOutcome::Closed;

    PushOutcome outcome = PushOutcome::Accepted;
    if (items_.size() >= capacity_) {
      // DropOldest: displace the stalest item to admit the fresh one.
      if (displaced != nullptr) *displaced = std::move(items_.front());
      items_.pop_front();
      ++stats_.dropped;
      outcome = PushOutcome::Evicted;
    }
    items_.push_back(std::move(value));
    ++stats_.pushed;
    if (items_.size() > stats_.high_water) stats_.high_water = items_.size();
    lock.unlock();
    not_empty_.notify_one();
    return outcome;
  }

  /// Dequeue the oldest item, blocking while the queue is empty and open.
  /// Returns nullopt once the queue is closed and drained.
  [[nodiscard]] std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T value = std::move(items_.front());
    items_.pop_front();
    ++stats_.popped;
    lock.unlock();
    not_full_.notify_one();
    return value;
  }

  /// Non-blocking dequeue; false if the queue is currently empty.
  [[nodiscard]] bool try_pop(T& out) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (items_.empty()) return false;
    out = std::move(items_.front());
    items_.pop_front();
    ++stats_.popped;
    lock.unlock();
    not_full_.notify_one();
    return true;
  }

  /// Close the queue: producers are refused, consumers drain what remains
  /// and then see nullopt. Idempotent.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] QueueStats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }

 private:
  const std::size_t capacity_;
  const OverflowPolicy policy_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  QueueStats stats_;
  bool closed_ = false;
};

}  // namespace avd::runtime
