// Exact loop accounting window (simulator-side truth, not a switch table):
// the packet ids a switch has forwarded since the window last restarted, each
// with a flag recording whether its revisit was already counted.
//
// An open-addressed, linearly probed table. It grows by doubling to the
// window's working size and is then reused forever: restarting the window
// bumps a generation stamp instead of touching the slots, so recording a
// transit data packet allocates nothing once warm. The table holds at most
// `max_entries` ids at load <= 1/2, so it never exceeds 2 * max_entries slots.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/hash.h"

namespace contra::dataplane {

class PacketIdWindow {
 public:
  explicit PacketIdWindow(size_t max_entries) : max_entries_(max_entries) {}

  /// Ids recorded since the last clear().
  size_t size() const { return size_; }
  /// The window must be restarted before it records another id.
  bool full() const { return size_ >= max_entries_; }

  /// Restarts the window in O(1).
  void clear() {
    size_ = 0;
    if (++generation_ == 0) {  // stamp wrapped: old stamps could read as live
      for (Slot& s : slots_) s.generation = 0;
      generation_ = 1;
    }
  }

  /// Records `id`. True exactly once per window per id: on its first
  /// revisit. Requires !full().
  bool note_revisit(uint64_t id) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    Slot& slot = find(slots_, id);
    if (slot.generation != generation_) {
      slot = Slot{id, generation_, false};
      ++size_;
      return false;
    }
    if (slot.revisit_counted) return false;
    slot.revisit_counted = true;
    return true;
  }

 private:
  struct Slot {
    uint64_t id = 0;
    uint32_t generation = 0;  ///< live iff equal to the window's generation
    bool revisit_counted = false;
  };

  /// The slot holding `id`, or the empty slot where it belongs. Packet ids
  /// are near-sequential (and shard-namespaced under the parallel engine),
  /// so they go through a full 64-bit mix before bucketing.
  Slot& find(std::vector<Slot>& slots, uint64_t id) const {
    const size_t mask = slots.size() - 1;
    for (size_t i = util::mix64(id) & mask;; i = (i + 1) & mask) {
      Slot& s = slots[i];
      if (s.generation != generation_ || s.id == id) return s;
    }
  }

  void grow() {
    std::vector<Slot> bigger(slots_.empty() ? 64 : 2 * slots_.size());
    for (const Slot& s : slots_) {
      if (s.generation == generation_) find(bigger, s.id) = s;
    }
    slots_ = std::move(bigger);
  }

  size_t max_entries_;
  std::vector<Slot> slots_;  ///< power-of-two size
  size_t size_ = 0;
  uint32_t generation_ = 1;
};

}  // namespace contra::dataplane
