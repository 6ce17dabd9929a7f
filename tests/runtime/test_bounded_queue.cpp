// BoundedQueue: FIFO order, capacity enforcement, each backpressure policy,
// and a concurrent MPMC stress test with a conservation checksum.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "avd/runtime/bounded_queue.hpp"

namespace avd::runtime {
namespace {

TEST(BoundedQueue, FifoOrder) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(q.push(i), PushOutcome::Accepted);
  for (int i = 0; i < 5; ++i) {
    const std::optional<int> v = q.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

TEST(BoundedQueue, CapacityIsEnforced) {
  BoundedQueue<int> q(3, OverflowPolicy::DropOldest);
  EXPECT_EQ(q.capacity(), 3u);
  for (int i = 0; i < 3; ++i) q.push(i);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.push(99), PushOutcome::Evicted);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.stats().high_water, 3u);
}

TEST(BoundedQueue, ZeroCapacityClampsToOne) {
  BoundedQueue<int> q(0);
  EXPECT_EQ(q.capacity(), 1u);
  EXPECT_EQ(q.push(7), PushOutcome::Accepted);
}

TEST(BoundedQueue, DropOldestEvictsAndReturnsStalest) {
  BoundedQueue<int> q(2, OverflowPolicy::DropOldest);
  q.push(1);
  q.push(2);
  std::optional<int> displaced;
  EXPECT_EQ(q.push(3, &displaced), PushOutcome::Evicted);
  ASSERT_TRUE(displaced.has_value());
  EXPECT_EQ(*displaced, 1);  // oldest goes
  EXPECT_EQ(*q.pop(), 2);
  EXPECT_EQ(*q.pop(), 3);
  EXPECT_EQ(q.stats().dropped, 1u);
}

TEST(BoundedQueue, BlockPolicyNeverDrops) {
  BoundedQueue<int> q(2, OverflowPolicy::Block);
  std::thread producer([&] {
    for (int i = 0; i < 100; ++i) q.push(i);
    q.close();
  });
  std::vector<int> got;
  while (std::optional<int> v = q.pop()) got.push_back(*v);
  producer.join();
  ASSERT_EQ(got.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(q.stats().dropped, 0u);
  EXPECT_LE(q.stats().high_water, 2u);
}

TEST(BoundedQueue, CloseWakesConsumersAndRefusesProducers) {
  BoundedQueue<int> q(4);
  q.push(1);
  q.close();
  EXPECT_EQ(q.push(2), PushOutcome::Closed);
  EXPECT_EQ(*q.pop(), 1);          // drains what was queued
  EXPECT_FALSE(q.pop().has_value());  // then signals end-of-stream
}

TEST(BoundedQueue, TryPopNonBlocking) {
  BoundedQueue<int> q(4);
  int out = 0;
  EXPECT_FALSE(q.try_pop(out));
  q.push(42);
  EXPECT_TRUE(q.try_pop(out));
  EXPECT_EQ(out, 42);
}

// MPMC stress: 4 producers push disjoint value ranges through a tiny queue
// while 4 consumers drain it. Blocking policy → conservation: every value
// arrives exactly once (checked by count and by sum).
TEST(BoundedQueue, ConcurrentStressConservesItems) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 2000;
  BoundedQueue<std::uint64_t> q(7, OverflowPolicy::Block);

  std::vector<std::thread> threads;
  std::atomic<int> live_producers{kProducers};
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i)
        q.push(static_cast<std::uint64_t>(p) * kPerProducer +
               static_cast<std::uint64_t>(i));
      if (live_producers.fetch_sub(1) == 1) q.close();
    });
  }

  std::atomic<std::uint64_t> popped{0};
  std::atomic<std::uint64_t> checksum{0};
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (std::optional<std::uint64_t> v = q.pop()) {
        popped.fetch_add(1);
        checksum.fetch_add(*v);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  constexpr std::uint64_t kTotal = kProducers * kPerProducer;
  EXPECT_EQ(popped.load(), kTotal);
  EXPECT_EQ(checksum.load(), kTotal * (kTotal - 1) / 2);  // sum 0..N-1
  const QueueStats stats = q.stats();
  EXPECT_EQ(stats.pushed, kTotal);
  EXPECT_EQ(stats.popped, kTotal);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_LE(stats.high_water, 7u);
}

// close() must wake producers parked in the Block-policy not-full wait, and
// each woken push must report Closed (value dropped, not enqueued). Stress
// it: many producers keep a tiny queue saturated so most are mid-wait when
// close() lands, then check conservation — every push resolved, and
// everything Accepted was either popped before close or still queued after.
TEST(BoundedQueue, CloseWhileProducersBlockedInPush) {
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 500;
  BoundedQueue<int> q(2, OverflowPolicy::Block);

  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> closed{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) {
        switch (q.push(i)) {
          case PushOutcome::Accepted: accepted.fetch_add(1); break;
          case PushOutcome::Closed: closed.fetch_add(1); break;
          default: FAIL() << "Block policy must never evict or reject";
        }
      }
    });
  }

  // Drain a little so producers make progress and repopulate the wait set,
  // then close with the queue saturated and producers blocked.
  std::uint64_t popped = 0;
  for (int i = 0; i < 200; ++i) {
    if (q.pop().has_value()) ++popped;
  }
  q.close();
  for (std::thread& t : producers) t.join();

  // Drain the survivors (pop() keeps returning queued items after close).
  while (q.pop().has_value()) ++popped;

  EXPECT_EQ(accepted.load() + closed.load(),
            static_cast<std::uint64_t>(kProducers) * kPerProducer);
  EXPECT_EQ(accepted.load(), popped);  // no Accepted item vanished
  EXPECT_GT(closed.load(), 0u);        // close really interrupted pushes
  EXPECT_EQ(q.stats().dropped, 0u);    // Closed is not a policy drop
}

// Under DropOldest nothing is lost silently: accepted+displaced accounts
// for every push, and survivors preserve FIFO order.
TEST(BoundedQueue, DropOldestAccountsForEveryItem) {
  BoundedQueue<int> q(4, OverflowPolicy::DropOldest);
  std::uint64_t displaced_count = 0;
  for (int i = 0; i < 100; ++i) {
    std::optional<int> displaced;
    q.push(i, &displaced);
    if (displaced) ++displaced_count;
  }
  std::vector<int> survivors;
  int out = 0;
  while (q.try_pop(out)) survivors.push_back(out);
  EXPECT_EQ(displaced_count + survivors.size(), 100u);
  EXPECT_TRUE(std::is_sorted(survivors.begin(), survivors.end()));
  EXPECT_EQ(survivors.size(), 4u);
  EXPECT_EQ(survivors.back(), 99);  // freshest survives
}

}  // namespace
}  // namespace avd::runtime
