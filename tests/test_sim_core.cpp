// Simulator core tests: event ordering, link serialization/propagation,
// drop-tail queues, utilization EWMA, failure injection, host wiring, and
// the golden-replay determinism gate for the zero-allocation event core.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <memory>
#include <random>
#include <set>
#include <tuple>

#include "compiler/compiler.h"
#include "dataplane/contra_switch.h"
#include "sim/event_queue.h"
#include "sim/host.h"
#include "sim/link.h"
#include "sim/simulator.h"
#include "sim/tracing.h"
#include "sim/transport.h"
#include "topology/abilene.h"
#include "topology/generators.h"
#include "util/alloc_probe.h"
#include "workload/generator.h"

// One TU of the test binary installs the counting allocator so the
// zero-allocation contract of the event core is checked, not assumed.
CONTRA_DEFINE_COUNTING_ALLOC_HOOKS()

namespace contra::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(2.0, [&] { order.push_back(2); });
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(3.0, [&] { order.push_back(3); });
  q.run_until(10.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 10.0);
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  q.run_until(1.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, NestedSchedulingWorks) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1.0, [&] {
    q.schedule_in(1.0, [&] { ++fired; });
  });
  q.run_until(3.0);
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, RunUntilStopsAtBoundary) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(5.0, [&] { ++fired; });
  q.run_until(4.999);
  EXPECT_EQ(fired, 0);
  q.run_until(5.0);
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, PastTimesClampToNow) {
  EventQueue q;
  q.schedule_at(2.0, [] {});
  q.run_until(2.0);
  int fired = 0;
  q.schedule_at(1.0, [&] { ++fired; });  // in the past -> now
  q.run_until(2.0);
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, ClampedEventsAreCounted) {
  EventQueue q;
  q.schedule_at(2.0, [] {});
  q.run_until(2.0);
  EXPECT_EQ(q.events_clamped(), 0u);
  q.schedule_at(1.0, [] {});  // past -> clamped
  q.schedule_at(2.0, [] {});  // exactly now -> not a clamp
  q.schedule_at(3.0, [] {});
  EXPECT_EQ(q.events_clamped(), 1u);
  q.run_until(3.0);
  EXPECT_EQ(q.events_clamped(), 1u);
}

// ---- event order against a reference model --------------------------------

// Drives an EventQueue with a seeded random mix of closures, typed deliveries
// and typed transmit-done events, and checks every pop against a reference
// model: an ordered set keyed by (clamped time, insertion seq). A
// transmit-done on an idle link fires silently, so silent events are checked
// through events_processed(), which must count exactly the model events up
// to each observed pop. The mix keeps well over 64 distinct times pending
// (more than the queue caches, so one time can span several buckets),
// schedules at now() while that time drains, schedules into the past, and
// stops run_before at a boundary that holds events.
class OrderModel {
 public:
  enum class Kind { kClosure, kDeliver, kLinkTx };

  explicit OrderModel(uint64_t seed) : rng_(seed) {
    link_.set_deliver([this](Packet&& p) { fire(static_cast<int64_t>(p.id)); });
  }

  void run(int rounds) {
    for (int round = 0; round < rounds; ++round) {
      // A batch from outside the queue: after run_before, now() is a
      // boundary whose events are still pending.
      for (int i = 0; i < 40; ++i) schedule(pick_time(), pick_kind());
      budget_ += 400;
      max_distinct_times_ = std::max(max_distinct_times_, distinct_pending_times());
      const Time boundary = std::get<0>(*std::next(model_.begin(), model_.size() / 3));
      if (round % 2 == 0) {
        q_.run_before(boundary);
        expect_ran_through(boundary, /*inclusive=*/false);
      } else {
        q_.run_until(boundary);
        expect_ran_through(boundary, /*inclusive=*/true);
      }
      if (::testing::Test::HasFailure()) return;
    }
    budget_ = 0;
    q_.run_until(1e12);
    expect_ran_through(1e12, /*inclusive=*/true);
    EXPECT_TRUE(model_.empty());
    EXPECT_TRUE(q_.empty());
    EXPECT_EQ(q_.pending(), 0u);
  }

  uint64_t fired() const { return fired_; }
  size_t max_distinct_times() const { return max_distinct_times_; }
  uint64_t clamped() const { return q_.events_clamped(); }

 private:
  using Entry = std::tuple<Time, uint64_t, int64_t>;  // (time, seq, id); id -1 = silent
  static constexpr int64_t kSilent = -1;

  void schedule(Time t, Kind kind) {
    const int64_t id = kind == Kind::kLinkTx ? kSilent : next_id_++;
    model_.emplace(std::max(t, q_.now()), seq_++, id);  // past times clamp to now()
    switch (kind) {
      case Kind::kClosure:
        q_.schedule_at(t, [this, id] { fire(id); });
        break;
      case Kind::kDeliver: {
        Packet p;
        p.id = static_cast<uint64_t>(id);
        q_.schedule_deliver(t, &link_, std::move(p));
        break;
      }
      case Kind::kLinkTx:
        q_.schedule_link_tx(t, &link_);  // idle link: a no-op transmit-done
        break;
    }
  }

  void pop_silent_front() {
    while (!model_.empty() && std::get<2>(*model_.begin()) == kSilent) {
      model_.erase(model_.begin());
      ++popped_;
    }
  }

  void fire(int64_t id) {
    if (::testing::Test::HasFailure()) return;
    pop_silent_front();
    ASSERT_FALSE(model_.empty());
    const auto [time, seq, expected] = *model_.begin();
    EXPECT_EQ(id, expected) << "seq " << seq;
    EXPECT_EQ(q_.now(), time) << "seq " << seq;
    model_.erase(model_.begin());
    ++popped_;
    EXPECT_EQ(q_.events_processed(), popped_) << "seq " << seq;
    ++fired_;
    const int children = std::uniform_int_distribution<int>(0, 2)(rng_);
    for (int i = 0; i < children && budget_ > 0; ++i, --budget_) {
      schedule(pick_time(), pick_kind());
    }
  }

  void expect_ran_through(Time end, bool inclusive) {
    while (!model_.empty()) {
      const auto& [time, seq, id] = *model_.begin();
      if (id != kSilent || (inclusive ? time > end : time >= end)) break;
      model_.erase(model_.begin());
      ++popped_;
    }
    if (!model_.empty()) {
      const Time next = std::get<0>(*model_.begin());
      EXPECT_TRUE(inclusive ? next > end : next >= end) << "event at " << next << " missed";
      EXPECT_EQ(q_.next_time(), next);
    }
    EXPECT_EQ(q_.events_processed(), popped_);
    EXPECT_EQ(q_.pending(), model_.size());
    EXPECT_EQ(q_.now(), end);
  }

  // Times are multiples of 1/4, exact in binary, so equal times tie exactly.
  Time pick_time() {
    const int roll = std::uniform_int_distribution<int>(0, 9)(rng_);
    if (roll < 3) return q_.now();                                       // joins the draining time
    if (roll < 4) return q_.now() - 0.25 * (1 + roll_int(8));            // past: clamped
    return q_.now() + 0.25 * (1 + roll_int(150));                        // 150 future times
  }

  Kind pick_kind() {
    const int roll = roll_int(20);
    if (roll < 12) return Kind::kClosure;
    if (roll < 17) return Kind::kDeliver;
    return Kind::kLinkTx;
  }

  int roll_int(int n) { return std::uniform_int_distribution<int>(0, n - 1)(rng_); }

  size_t distinct_pending_times() const {
    size_t n = 0;
    Time last = -1.0;
    for (const Entry& e : model_) {
      if (std::get<0>(e) != last) ++n;
      last = std::get<0>(e);
    }
    return n;
  }

  EventQueue q_;
  Link link_{q_, 1e9, 0.0, 1 << 20, 1e-3};
  std::set<Entry> model_;
  std::mt19937_64 rng_;
  uint64_t seq_ = 0;
  int64_t next_id_ = 0;
  uint64_t popped_ = 0;
  uint64_t fired_ = 0;
  uint64_t budget_ = 0;
  size_t max_distinct_times_ = 0;
};

TEST(EventQueue, RandomizedOrderMatchesTimeThenInsertion) {
  for (const uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    OrderModel model(seed);
    model.run(60);
    EXPECT_GT(model.fired(), 5000u);
    EXPECT_GT(model.max_distinct_times(), 64u);
    EXPECT_GT(model.clamped(), 0u);
  }
}

TEST(EventHandler, SmallCapturesStayInline) {
  int fired = 0;
  struct Small {
    int* counter;
    double pad[4];
  };  // 40 bytes: fits the 48-byte buffer
  static_assert(sizeof(Small) <= EventHandler::kInlineCapacity);
  EventHandler h([s = Small{&fired, {}}] { ++*s.counter; });
  EXPECT_TRUE(h.is_inline());
  h();
  EXPECT_EQ(fired, 1);

  // Moving relocates the inline capture; the source empties.
  EventHandler moved = std::move(h);
  EXPECT_TRUE(moved.is_inline());
  EXPECT_FALSE(static_cast<bool>(h));
  moved();
  EXPECT_EQ(fired, 2);
}

TEST(EventHandler, LargeCapturesFallBackToHeap) {
  int fired = 0;
  struct Big {
    int* counter;
    double pad[8];
  };  // 72 bytes: exceeds the inline buffer
  static_assert(sizeof(Big) > EventHandler::kInlineCapacity);
  const uint64_t allocs_before = util::alloc_count();
  EventHandler h([b = Big{&fired, {}}] { ++*b.counter; });
  EXPECT_FALSE(h.is_inline());
  EXPECT_GT(util::alloc_count(), allocs_before);
  EventHandler moved = std::move(h);  // heap pointer steal, no copy
  moved();
  EXPECT_EQ(fired, 1);
}

TEST(EventHandler, SchedulingSmallLambdasDoesNotAllocatePerEvent) {
  EventQueue q;
  uint64_t fired = 0;
  // Warm up the queue's heap storage, then verify rescheduling a small
  // closure is allocation-free.
  q.schedule_in(1e-6, [&] { ++fired; });
  q.run_until(1.0);
  const uint64_t allocs_before = util::alloc_count();
  for (int i = 0; i < 100; ++i) {
    q.schedule_in(1e-6, [&] { ++fired; });
    q.run_until(q.now() + 1e-6);
  }
  EXPECT_EQ(util::alloc_count(), allocs_before);
  EXPECT_EQ(fired, 101u);
}

TEST(PacketPool, RecyclesReleasedSlots) {
  PacketPool pool;
  Packet* a = pool.acquire();
  a->id = 7;
  a->size_bytes = 1500;
  EXPECT_EQ(pool.allocated(), 1u);
  pool.release(a);
  EXPECT_EQ(pool.free_count(), 1u);
  Packet* b = pool.acquire();  // recycled, not newly created
  EXPECT_EQ(b, a);
  EXPECT_EQ(pool.allocated(), 1u);
  EXPECT_EQ(pool.free_count(), 0u);
  pool.release(b);
}

#ifndef NDEBUG
TEST(PacketPoolDeathTest, DoubleReleaseIsCaught) {
  PacketPool pool;
  Packet* p = pool.acquire();
  pool.release(p);
  EXPECT_DEATH(pool.release(p), "released to the pool twice");
}
#endif

Packet make_packet(uint32_t bytes, PacketKind kind = PacketKind::kData) {
  Packet p;
  p.kind = kind;
  p.size_bytes = bytes;
  return p;
}

TEST(Link, SerializationPlusPropagationDelay) {
  EventQueue q;
  // 1500B at 1Gbps = 12us; propagation 5us -> arrival at 17us.
  Link link(q, 1e9, 5e-6, 1 << 20, 1e-3);
  Time arrival = -1;
  link.set_deliver([&](Packet&&) { arrival = q.now(); });
  ASSERT_TRUE(link.enqueue(make_packet(1500)));
  q.run_until(1.0);
  EXPECT_NEAR(arrival, 17e-6, 1e-9);
}

TEST(Link, BackToBackPacketsSerialize) {
  EventQueue q;
  Link link(q, 1e9, 0.0, 1 << 20, 1e-3);
  std::vector<Time> arrivals;
  link.set_deliver([&](Packet&&) { arrivals.push_back(q.now()); });
  link.enqueue(make_packet(1500));
  link.enqueue(make_packet(1500));
  q.run_until(1.0);
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_NEAR(arrivals[1] - arrivals[0], 12e-6, 1e-9);
}

TEST(Link, DropTailWhenQueueFull) {
  EventQueue q;
  Link link(q, 1e9, 0.0, 3000, 1e-3);  // room for two 1500B packets
  int delivered = 0;
  link.set_deliver([&](Packet&&) { ++delivered; });
  EXPECT_TRUE(link.enqueue(make_packet(1500)));
  EXPECT_TRUE(link.enqueue(make_packet(1500)));
  EXPECT_FALSE(link.enqueue(make_packet(1500)));  // full
  EXPECT_EQ(link.stats().drops, 1u);
  q.run_until(1.0);
  EXPECT_EQ(delivered, 2);
}

TEST(Link, DownLinkDropsEverything) {
  EventQueue q;
  Link link(q, 1e9, 0.0, 1 << 20, 1e-3);
  int delivered = 0;
  link.set_deliver([&](Packet&&) { ++delivered; });
  link.set_down(true);
  EXPECT_FALSE(link.enqueue(make_packet(100)));
  link.set_down(false);
  EXPECT_TRUE(link.enqueue(make_packet(100)));
  q.run_until(1.0);
  EXPECT_EQ(delivered, 1);
}

TEST(Link, UtilizationTracksLoad) {
  EventQueue q;
  const double tau = 100e-6;
  Link link(q, 1e9, 0.0, 1 << 22, tau);
  link.set_deliver([](Packet&&) {});
  // Saturate for 2 tau: utilization should approach 1.
  const int n = static_cast<int>(2 * tau * 1e9 / 8 / 1500);
  for (int i = 0; i < n; ++i) link.enqueue(make_packet(1500));
  q.run_until(2 * tau);
  EXPECT_GT(link.utilization(), 0.6);
  // After 2 tau idle, the estimate decays to zero.
  q.run_until(4 * tau);
  EXPECT_NEAR(link.utilization(), 0.0, 1e-9);
}

TEST(Link, UtilizationReadsAreIdempotent) {
  // Pins the EWMA arithmetic: 1 Gbps link, tau = 100us, one 1500B packet.
  // The transmission completes at 12us (1500B * 8 / 1e9); the decay window
  // holds capacity_bps/8 * tau = 12500 bytes, so utilization right after the
  // transmit is 1500/12500 = 0.12, and 50us later half has decayed away.
  EventQueue q;
  const double tau = 100e-6;
  Link link(q, 1e9, 0.0, 1 << 20, tau);
  link.set_deliver([](Packet&&) {});
  link.enqueue(make_packet(1500));
  q.run_until(12e-6);
  EXPECT_DOUBLE_EQ(link.utilization(), 0.12);
  // Reading must not change the estimate: the historical bug decayed the
  // accumulator on every read, so frequent observers saw smaller values.
  EXPECT_DOUBLE_EQ(link.utilization(), 0.12);
  q.run_until(62e-6);
  EXPECT_DOUBLE_EQ(link.utilization(), 0.06);
  EXPECT_DOUBLE_EQ(link.utilization(), 0.06);
}

TEST(Link, SteadyStateHopAllocatesNothing) {
  // Two links ping-pong one packet forever. After warmup (pool slot created,
  // ring buffers and the event heap grown), a packet hop must not touch the
  // allocator: this is the zero-allocation contract of the event core.
  EventQueue q;
  Link ab(q, 1e9, 5e-6, 1 << 20, 1e-3);
  Link ba(q, 1e9, 5e-6, 1 << 20, 1e-3);
  uint64_t hops = 0;
  ab.set_deliver([&](Packet&& p) { ++hops; ba.enqueue(std::move(p)); });
  ba.set_deliver([&](Packet&& p) { ++hops; ab.enqueue(std::move(p)); });
  ab.enqueue(make_packet(1500));
  q.run_until(1e-3);  // warmup
  ASSERT_GT(hops, 10u);
  const uint64_t hops_before = hops;
  const uint64_t allocs_before = util::alloc_count();
  q.run_until(10e-3);
  EXPECT_GT(hops, hops_before + 100);
  EXPECT_EQ(util::alloc_count() - allocs_before, 0u);
  EXPECT_EQ(q.packet_pool().allocated(), 1u);  // one slot, recycled forever
}

TEST(Link, ForwardedPacketKeepsItsSlot) {
  // Three links in a ring; each receiver edits the delivered packet and
  // forwards that same object. The next enqueue adopts the delivery's slot,
  // so the packet is written once and read in place at every hop: one slot
  // for the whole run, and no allocation once warm.
  EventQueue q;
  Link l0(q, 1e9, 5e-6, 1 << 20, 1e-3);
  Link l1(q, 1e9, 5e-6, 1 << 20, 1e-3);
  Link l2(q, 1e9, 5e-6, 1 << 20, 1e-3);
  uint64_t hops = 0;
  bool intact = true;
  auto forward_to = [&](Link& next) {
    return [&](Packet&& p) {
      ++hops;
      intact = intact && p.id == 42 && p.seq == hops - 1;
      ++p.seq;  // edited in its slot; the next hop must see it
      next.enqueue(std::move(p));
    };
  };
  l0.set_deliver(forward_to(l1));
  l1.set_deliver(forward_to(l2));
  l2.set_deliver(forward_to(l0));
  Packet first = make_packet(1500);
  first.id = 42;
  l0.enqueue(std::move(first));
  q.run_until(1e-3);  // warmup
  ASSERT_GT(hops, 10u);
  const uint64_t hops_before = hops;
  const uint64_t allocs_before = util::alloc_count();
  q.run_until(10e-3);
  EXPECT_GT(hops, hops_before + 100);
  EXPECT_EQ(util::alloc_count() - allocs_before, 0u);
  EXPECT_TRUE(intact);
  EXPECT_EQ(q.packet_pool().allocated(), 1u);
}

TEST(Link, FanOutCopiesAllocateNothing) {
  // One packet ping-pongs on `loop`; every delivery also fans a copy out to
  // each of three links, written straight into pool slots. Once the pool
  // holds the working set of copies, a delivery with its fan-out allocates
  // nothing, and every copy carries its own id.
  EventQueue q;
  Link loop(q, 1e9, 5e-6, 1 << 20, 1e-3);
  std::vector<std::unique_ptr<Link>> outs;
  for (int i = 0; i < 3; ++i) outs.push_back(std::make_unique<Link>(q, 1e9, 5e-6, 1 << 20, 1e-3));
  std::vector<uint64_t> copy_ids;
  copy_ids.reserve(1 << 16);
  for (auto& out : outs) {
    out->set_deliver([&](Packet&& p) { copy_ids.push_back(p.id); });
  }
  uint64_t next_id = 1000;
  uint64_t deliveries = 0;
  loop.set_deliver([&](Packet&& p) {
    ++deliveries;
    for (auto& out : outs) out->enqueue_copy(p, next_id++, [](Packet&) {});
    loop.enqueue(std::move(p));
  });
  Packet first = make_packet(1000, PacketKind::kProbe);
  first.id = 1;
  first.probe = ProbeFields{};
  loop.enqueue(std::move(first));
  q.run_until(1e-3);  // warmup
  ASSERT_GT(deliveries, 10u);
  const uint64_t deliveries_before = deliveries;
  const uint64_t allocs_before = util::alloc_count();
  q.run_until(10e-3);
  EXPECT_GT(deliveries, deliveries_before + 100);
  EXPECT_EQ(util::alloc_count() - allocs_before, 0u);
  ASSERT_LE(copy_ids.size(), copy_ids.capacity());
  EXPECT_EQ(copy_ids.size() + 3, 3 * deliveries);  // the last fan-out is still on the wire
  EXPECT_EQ(std::set<uint64_t>(copy_ids.begin(), copy_ids.end()).size(), copy_ids.size());
  EXPECT_EQ(std::count(copy_ids.begin(), copy_ids.end(), 1u), 0);
}

// Hop-path layout: a pending event is one small slot, and the fields a probe
// hop reads share the first two cache lines of a packet.
static_assert(EventQueue::kSlotBytes <= 32);
static_assert(offsetof(Packet, kind) < 128);
static_assert(offsetof(Packet, size_bytes) + sizeof(Packet::size_bytes) <= 128);
static_assert(offsetof(Packet, id) + sizeof(Packet::id) <= 128);
static_assert(offsetof(Packet, routing) + sizeof(Packet::routing) <= 128);
static_assert(offsetof(Packet, probe) + sizeof(Packet::probe) <= 128);

TEST(Link, SetDownReleasesParkedPackets) {
  // A link parks every queued packet in the event queue's pool. Going down
  // with kQueued packets queued drops the waiting ones and releases their
  // slots, while the head already on the wire keeps its slot until its
  // delivery. Packets enqueued after the restore reuse the released slots,
  // never the in-flight one: every delivery arrives intact.
  EventQueue q;
  Link link(q, 1e9, 5e-6, 1 << 20, 1e-3);  // 1000B: 8us on the wire, then 5us
  std::vector<std::pair<uint64_t, uint32_t>> delivered;
  link.set_deliver([&](Packet&& p) { delivered.emplace_back(p.id, p.size_bytes); });
  constexpr uint64_t kQueued = 8;
  uint64_t dropped_bytes = 0;
  for (uint64_t i = 0; i < kQueued; ++i) {
    Packet p = make_packet(1000 + static_cast<uint32_t>(i));
    p.id = 100 + i;
    if (i > 0) dropped_bytes += p.size_bytes;
    ASSERT_TRUE(link.enqueue(std::move(p)));
  }
  EXPECT_EQ(q.packet_pool().allocated(), kQueued);
  EXPECT_EQ(q.packet_pool().free_count(), 0u);

  // At 10us packet 100 is propagating and 101 is being serialized.
  q.schedule_at(10e-6, [&] { link.set_down(true); });
  q.schedule_at(11e-6, [&] {
    link.set_down(false);
    for (uint64_t i = 0; i + 1 < kQueued; ++i) {
      Packet p = make_packet(500);
      p.id = 200 + i;
      ASSERT_TRUE(link.enqueue(std::move(p)));
    }
  });
  q.run_until(10.5e-6);
  EXPECT_EQ(link.stats().drops, kQueued - 1);
  EXPECT_EQ(link.stats().drop_bytes, dropped_bytes);
  EXPECT_EQ(q.packet_pool().free_count(), kQueued - 1);  // only the in-flight head is parked
  q.run_until(1.0);

  std::vector<std::pair<uint64_t, uint32_t>> expected = {{100, 1000}};
  for (uint64_t i = 0; i + 1 < kQueued; ++i) expected.emplace_back(200 + i, 500);
  EXPECT_EQ(delivered, expected);
  EXPECT_EQ(link.stats().drops, kQueued - 1);
  EXPECT_EQ(link.stats().drop_bytes, dropped_bytes);
  EXPECT_EQ(q.packet_pool().allocated(), kQueued);  // the restore reused released slots
  EXPECT_EQ(q.packet_pool().free_count(), q.packet_pool().allocated());
}

TEST(Link, PerKindByteCounters) {
  EventQueue q;
  Link link(q, 1e9, 0.0, 1 << 20, 1e-3);
  link.set_deliver([](Packet&&) {});
  link.enqueue(make_packet(1000, PacketKind::kData));
  link.enqueue(make_packet(64, PacketKind::kAck));
  link.enqueue(make_packet(80, PacketKind::kProbe));
  q.run_until(1.0);
  EXPECT_EQ(link.stats().tx_data_bytes, 1000u);
  EXPECT_EQ(link.stats().tx_ack_bytes, 64u);
  EXPECT_EQ(link.stats().tx_probe_bytes, 80u);
  EXPECT_EQ(link.stats().tx_bytes, 1144u);
}

TEST(Link, QueueSamplerFires) {
  EventQueue q;
  Link link(q, 1e9, 0.0, 1 << 20, 1e-3);
  link.set_deliver([](Packet&&) {});
  std::vector<uint64_t> samples;
  link.set_queue_sampler([&](Time, uint64_t bytes) { samples.push_back(bytes); });
  link.enqueue(make_packet(1500));
  link.enqueue(make_packet(1500));
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0], 1500u);
  EXPECT_EQ(samples[1], 3000u);
}

// A trivial device that records arrivals and bounces nothing.
class SinkDevice : public Device {
 public:
  void handle_packet(Simulator&, Packet&& packet, topology::LinkId in_link) override {
    arrivals.push_back({packet.id, in_link});
  }
  const char* kind_name() const override { return "sink"; }
  std::vector<std::pair<uint64_t, topology::LinkId>> arrivals;
};

TEST(Simulator, DeliversAcrossTopologyLink) {
  const topology::Topology topo = topology::line(2);
  Simulator sim(topo, SimConfig{});
  auto sink = std::make_unique<SinkDevice>();
  SinkDevice* observer = sink.get();
  sim.install_switch(1, std::move(sink));

  Packet p;
  p.id = 77;
  p.size_bytes = 100;
  const topology::LinkId l01 = topo.link_between(0, 1);
  sim.send_on_link(l01, std::move(p));
  sim.run_until(1e-3);
  ASSERT_EQ(observer->arrivals.size(), 1u);
  EXPECT_EQ(observer->arrivals[0].first, 77u);
  EXPECT_EQ(observer->arrivals[0].second, l01);
}

TEST(Simulator, HostPacketsArriveWithFromHostMarker) {
  const topology::Topology topo = topology::line(2);
  Simulator sim(topo, SimConfig{});
  auto sink = std::make_unique<SinkDevice>();
  SinkDevice* observer = sink.get();
  sim.install_switch(0, std::move(sink));
  const HostId h = sim.add_host(0);

  Packet p;
  p.id = 5;
  p.size_bytes = 100;
  sim.host_send(h, std::move(p));
  sim.run_until(1e-3);
  ASSERT_EQ(observer->arrivals.size(), 1u);
  EXPECT_EQ(observer->arrivals[0].second, kFromHost);
}

TEST(Simulator, HostReceiverGetsDownlinkPackets) {
  const topology::Topology topo = topology::line(2);
  Simulator sim(topo, SimConfig{});
  const HostId h = sim.add_host(0);
  HostId received_at = kInvalidHost;
  sim.set_host_receiver([&](HostId host, Packet&&) { received_at = host; });
  Packet p;
  p.size_bytes = 64;
  sim.send_to_host(h, std::move(p));
  sim.run_until(1e-3);
  EXPECT_EQ(received_at, h);
}

TEST(Simulator, FailCableKillsBothDirections) {
  const topology::Topology topo = topology::line(2);
  Simulator sim(topo, SimConfig{});
  const topology::LinkId l01 = topo.link_between(0, 1);
  sim.fail_cable(l01);
  EXPECT_TRUE(sim.link(l01).down());
  EXPECT_TRUE(sim.link(topo.link(l01).reverse).down());
  sim.restore_cable(l01);
  EXPECT_FALSE(sim.link(l01).down());
}

TEST(Simulator, AggregateFabricStatsSumsLinks) {
  const topology::Topology topo = topology::line(3);
  Simulator sim(topo, SimConfig{});
  Packet p;
  p.size_bytes = 500;
  sim.send_on_link(topo.link_between(0, 1), std::move(p));
  sim.run_until(1e-3);
  EXPECT_EQ(sim.aggregate_fabric_stats().tx_bytes, 500u);
}

// ---- golden-replay determinism gate ---------------------------------------
//
// Same seed + same policy must give bit-identical simulations: identical
// event counts, identical FCT lists, identical link statistics. The digests
// below were captured from the std::function-based event core immediately
// before the SBO/pool rewrite; the rewrite (and any future core change that
// claims to be a pure optimization) must reproduce them exactly.

uint64_t fnv_mix(uint64_t h, uint64_t v) {
  h ^= v;
  return h * 1099511628211ull;
}

struct GoldenRun {
  uint64_t digest = 0;
  uint64_t events = 0;
  size_t completed_flows = 0;
};

GoldenRun run_golden_scenario(const topology::Topology& topo,
                              const compiler::CompileResult& compiled,
                              const pg::PolicyEvaluator& evaluator, bool abilene,
                              uint64_t seed) {
  SimConfig config;
  config.host_link_bps = abilene ? 2e9 : 10e9;
  config.util_tau_s = 512e-6;
  Simulator sim(topo, config);

  std::vector<HostId> senders, receivers;
  if (abilene) {
    senders = attach_hosts(sim, {topo.find("Seattle"), topo.find("Sunnyvale")});
    receivers = attach_hosts(sim, {topo.find("NewYork"), topo.find("Atlanta")});
  } else {
    for (HostId h : attach_hosts_to_fat_tree_edges(sim, 2)) {
      (h % 2 ? receivers : senders).push_back(h);
    }
  }

  dataplane::ContraSwitchOptions options;
  options.probe_period_s = 256e-6;
  dataplane::install_contra_network(sim, compiled, evaluator, options);

  TransportManager transport(sim);
  workload::WorkloadConfig wl;
  wl.load = 0.4;
  wl.sender_capacity_bps = 2e9;
  wl.start = 2e-3;
  wl.duration = 4e-3;
  wl.seed = seed;
  wl.size_scale = 0.05;
  const auto flows = workload::generate_poisson(workload::web_search_flow_sizes(), senders,
                                                receivers, wl);
  workload::submit(transport, flows);

  sim.start();
  sim.run_until(wl.start + wl.duration + 0.05);

  GoldenRun out;
  out.events = sim.events().events_processed();
  out.completed_flows = transport.completed_flows().size();
  uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  h = fnv_mix(h, out.events);
  for (const auto& f : transport.completed_flows()) {
    h = fnv_mix(h, f.flow_id);
    h = fnv_mix(h, std::bit_cast<uint64_t>(f.start));
    h = fnv_mix(h, std::bit_cast<uint64_t>(f.end));
  }
  for (topology::LinkId id = 0; id < topo.num_links(); ++id) {
    const LinkStats& s = sim.link(id).stats();
    h = fnv_mix(h, s.tx_packets);
    h = fnv_mix(h, s.tx_bytes);
    h = fnv_mix(h, s.tx_probe_bytes);
    h = fnv_mix(h, s.drops);
    h = fnv_mix(h, s.data_drops);
  }
  out.digest = h;
  return out;
}

TEST(Determinism, GoldenReplayFatTreeAndAbilene) {
  struct Golden {
    bool abilene;
    uint64_t seed;
    uint64_t digest;
  };
  // Re-pinned when probe delta-suppression landed (it intentionally changes
  // the control-plane packet stream); replay determinism below still proves
  // bit-identical reruns.
  static constexpr Golden kGoldens[] = {
      {false, 1, 0x09ea8daf20e5853full}, {false, 2, 0x069318c39e29c7dcull},
      {false, 3, 0xdab422b8ca48302cull}, {true, 1, 0x837cd0f908bdf4d3ull},
      {true, 2, 0x4c935b6c706c5abbull},  {true, 3, 0xe88e426e5fee28ecull},
  };

  const topology::Topology fat_tree =
      topology::fat_tree(4, topology::LinkParams{10e9, 1e-6});
  const topology::Topology abilene = topology::abilene(2e9, 0.02);
  const compiler::CompileResult fat_compiled =
      compiler::compile("minimize((path.len, path.util))", fat_tree);
  const compiler::CompileResult abi_compiled = compiler::compile("minimize(path.util)", abilene);
  const pg::PolicyEvaluator fat_eval(fat_compiled.graph, fat_compiled.decomposition);
  const pg::PolicyEvaluator abi_eval(abi_compiled.graph, abi_compiled.decomposition);

  for (const Golden& g : kGoldens) {
    const topology::Topology& topo = g.abilene ? abilene : fat_tree;
    const compiler::CompileResult& compiled = g.abilene ? abi_compiled : fat_compiled;
    const pg::PolicyEvaluator& evaluator = g.abilene ? abi_eval : fat_eval;
    const GoldenRun first = run_golden_scenario(topo, compiled, evaluator, g.abilene, g.seed);
    const GoldenRun replay = run_golden_scenario(topo, compiled, evaluator, g.abilene, g.seed);
    // Replay determinism: two fresh simulators, same inputs, same bits.
    EXPECT_EQ(first.digest, replay.digest)
        << (g.abilene ? "abilene" : "fat-tree") << " seed " << g.seed;
    EXPECT_EQ(first.events, replay.events);
    EXPECT_GT(first.completed_flows, 0u);
    // Cross-rewrite golden: pinned against the pre-rewrite core.
    EXPECT_EQ(first.digest, g.digest)
        << (g.abilene ? "abilene" : "fat-tree") << " seed " << g.seed << std::hex
        << " actual digest 0x" << first.digest;
  }
}

TEST(Tracing, ThroughputTimelineBins) {
  ThroughputTimeline timeline(1e-3);
  timeline.add(0.5e-3, 1000);
  timeline.add(0.9e-3, 1000);
  timeline.add(1.1e-3, 500);
  EXPECT_DOUBLE_EQ(timeline.throughput_bps(0), 2000 * 8.0 / 1e-3);
  EXPECT_DOUBLE_EQ(timeline.throughput_bps(1), 500 * 8.0 / 1e-3);
  EXPECT_DOUBLE_EQ(timeline.throughput_bps(9), 0.0);
}

TEST(Tracing, ThroughputTimelineBinBoundary) {
  // An event exactly on a bin edge belongs to the bin it opens (half-open
  // [i*w, (i+1)*w) intervals): floor(t / w) = i at t = i*w.
  ThroughputTimeline timeline(1e-3);
  timeline.add(0.0, 100);
  timeline.add(1e-3, 200);   // exactly on the 0/1 boundary -> bin 1
  timeline.add(2e-3, 400);   // exactly on the 1/2 boundary -> bin 2
  ASSERT_EQ(timeline.num_bins(), 3u);
  EXPECT_DOUBLE_EQ(timeline.throughput_bps(0), 100 * 8.0 / 1e-3);
  EXPECT_DOUBLE_EQ(timeline.throughput_bps(1), 200 * 8.0 / 1e-3);
  EXPECT_DOUBLE_EQ(timeline.throughput_bps(2), 400 * 8.0 / 1e-3);
}

TEST(Tracing, ThroughputTimelineEmptyGapBins) {
  // A quiet period leaves explicit zero bins between active ones; the series
  // must show the gap, not compress it away.
  ThroughputTimeline timeline(1e-3);
  timeline.add(0.2e-3, 1000);
  timeline.add(4.5e-3, 1000);
  ASSERT_EQ(timeline.num_bins(), 5u);
  EXPECT_GT(timeline.throughput_bps(0), 0.0);
  EXPECT_DOUBLE_EQ(timeline.throughput_bps(1), 0.0);
  EXPECT_DOUBLE_EQ(timeline.throughput_bps(2), 0.0);
  EXPECT_DOUBLE_EQ(timeline.throughput_bps(3), 0.0);
  EXPECT_GT(timeline.throughput_bps(4), 0.0);
  // Negative timestamps are ignored, out-of-range reads are zero.
  timeline.add(-1.0, 5000);
  EXPECT_EQ(timeline.num_bins(), 5u);
  EXPECT_DOUBLE_EQ(timeline.throughput_bps(99), 0.0);
}

TEST(Tracing, QueueTracerQuantileEmptyAndSingle) {
  // Empty tracer: every quantile (and CDF) reads 0 rather than faulting.
  QueueLengthTracer empty;
  EXPECT_DOUBLE_EQ(empty.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile(1.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.cdf_at(100.0), 0.0);

  // Single sample: all quantiles collapse to it (interpolation has one point).
  QueueLengthTracer single;
  const topology::Topology topo = topology::line(2);
  Simulator sim(topo, SimConfig{});
  single.attach_fabric(sim, 1500);
  Packet p;
  p.size_bytes = 3000;  // 2 MSS
  sim.send_on_link(topo.link_between(0, 1), std::move(p));
  ASSERT_EQ(single.samples_mss().size(), 1u);
  EXPECT_DOUBLE_EQ(single.quantile(0.0), 2.0);
  EXPECT_DOUBLE_EQ(single.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(single.quantile(1.0), 2.0);
  // Quantile arguments outside [0,1] clamp instead of indexing out of range.
  EXPECT_DOUBLE_EQ(single.quantile(-0.5), 2.0);
  EXPECT_DOUBLE_EQ(single.quantile(1.5), 2.0);
}

TEST(Tracing, QueueTracerQuantiles) {
  QueueLengthTracer tracer;
  // No attach needed: exercise the math directly via a fabricated tracer is
  // not possible (samples_ is private), so attach to a tiny sim instead.
  const topology::Topology topo = topology::line(2);
  Simulator sim(topo, SimConfig{});
  tracer.attach_fabric(sim, 1500);
  for (int i = 0; i < 4; ++i) {
    Packet p;
    p.size_bytes = 1500;
    sim.send_on_link(topo.link_between(0, 1), std::move(p));
  }
  EXPECT_EQ(tracer.samples_mss().size(), 4u);
  EXPECT_DOUBLE_EQ(tracer.quantile(1.0), 4.0);
  EXPECT_GT(tracer.cdf_at(4.0), 0.99);
}

}  // namespace
}  // namespace contra::sim
