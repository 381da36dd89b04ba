#include "sim/event_queue.h"

#include <algorithm>

#include "sim/link.h"

namespace contra::sim {

void EventQueue::reserve_events(size_t n) {
  slots_.reserve(n);
  free_slots_.reserve(n);
  heap_.reserve(n);
  buckets_.reserve(n);
  free_buckets_.reserve(n);
  handlers_.reserve(n);
  free_handlers_.reserve(n);
}

uint32_t EventQueue::acquire_slot() {
  if (free_slots_.empty()) {
    if (slots_.size() == slots_.capacity()) reserve_events(std::max<size_t>(64, 2 * slots_.size()));
    slots_.emplace_back();
    return static_cast<uint32_t>(slots_.size() - 1);
  }
  const uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  return slot;
}

uint32_t EventQueue::acquire_handler() {
  if (free_handlers_.empty()) {
    handlers_.emplace_back();
    return static_cast<uint32_t>(handlers_.size() - 1);
  }
  const uint32_t handler = free_handlers_.back();
  free_handlers_.pop_back();
  return handler;
}

uint32_t EventQueue::acquire_bucket() {
  if (free_buckets_.empty()) {
    buckets_.emplace_back();
    return static_cast<uint32_t>(buckets_.size() - 1);
  }
  const uint32_t bucket = free_buckets_.back();
  free_buckets_.pop_back();
  return bucket;
}

void EventQueue::push(Time time, uint32_t slot) {
  time = clamp(time);
  slots_[slot].next = kNone;
  ++pending_;
  CacheLine& line = cache_[cache_line(time)];
  if (line.bucket != kNone && line.time == time) {
    Bucket& b = buckets_[line.bucket];
    slots_[b.tail].next = slot;
    b.tail = slot;
    return;
  }
  const uint32_t bucket = acquire_bucket();
  buckets_[bucket] = Bucket{slot, slot};
  line = CacheLine{time, bucket};
  heap_.push_back(HeapEntry{time, next_bucket_seq_++, bucket});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void EventQueue::schedule_at(Time time, Handler handler) {
  const uint32_t slot = acquire_slot();
  const uint32_t index = acquire_handler();
  handlers_[index] = std::move(handler);
  Slot& s = slots_[slot];
  s.kind = Kind::kClosure;
  s.handler = index;
  push(time, slot);
}

void EventQueue::schedule_link_tx(Time time, Link* link) {
  const uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.kind = Kind::kLinkTx;
  s.link = link;
  push(time, slot);
}

void EventQueue::schedule_deliver(Time time, Link* link, Packet&& packet) {
  Packet* parked = pool_.acquire();
  *parked = std::move(packet);
  schedule_deliver_parked(time, link, parked);
}

void EventQueue::schedule_deliver_parked(Time time, Link* link, Packet* parked) {
  const uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.kind = Kind::kDeliver;
  s.link = link;
  s.packet = parked;
  push(time, slot);
}

bool EventQueue::step() {
  if (heap_.empty()) return false;
  const HeapEntry& front = heap_.front();
  now_ = front.time;
  Bucket& bucket = buckets_[front.bucket];
  const uint32_t index = bucket.head;
  bucket.head = slots_[index].next;
  if (bucket.head != kNone) {
    // The next events of this time are known: start loading the packet the
    // next one delivers, and the slot after it, while this one runs.
    // In-flight packets far outnumber the cache, so the first touch of a
    // delivered packet is otherwise a miss the dispatch waits on.
    const Slot& next = slots_[bucket.head];
    if (next.next != kNone) __builtin_prefetch(&slots_[next.next]);
    if (next.kind == Kind::kDeliver) {
      const char* p = reinterpret_cast<const char*>(next.packet);
      for (size_t off = 0; off < sizeof(Packet); off += 64) __builtin_prefetch(p + off);
      __builtin_prefetch(p + sizeof(Packet) - 1);
    }
  } else {
    // The bucket is spent: retire it before dispatch, so an event the
    // handler schedules at now() opens a newer bucket instead of joining a
    // recycled one.
    CacheLine& line = cache_[cache_line(front.time)];
    if (line.bucket == front.bucket) line.bucket = kNone;
    free_buckets_.push_back(front.bucket);
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
  --pending_;
  ++processed_;
  // Take what the dispatch needs out of the slot and recycle it before
  // invoking: the handler may schedule (growing slots_ would invalidate a
  // held reference) and may legitimately reuse this very slot.
  Slot& slot = slots_[index];
  switch (slot.kind) {
    case Kind::kClosure: {
      const uint32_t h = slot.handler;
      Handler handler = std::move(handlers_[h]);
      free_handlers_.push_back(h);
      free_slots_.push_back(index);
      handler();
      break;
    }
    case Kind::kLinkTx: {
      Link* link = slot.link;
      free_slots_.push_back(index);
      link->on_transmit_done();
      break;
    }
    case Kind::kDeliver: {
      Link* link = slot.link;
      Packet* packet = slot.packet;
      free_slots_.push_back(index);
      link->complete_delivery(packet);
      break;
    }
  }
  return true;
}

void EventQueue::run_until(Time end) {
  while (!heap_.empty() && heap_.front().time <= end) step();
  now_ = std::max(now_, end);
}

void EventQueue::run_before(Time end) {
  while (!heap_.empty() && heap_.front().time < end) step();
  now_ = std::max(now_, end);
}

}  // namespace contra::sim
