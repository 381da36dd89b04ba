// A growable circular FIFO of movable values.
//
// Replaces std::deque on the simulator hot path (the per-link packet FIFO):
// libstdc++'s deque allocates and frees a chunk every time a steady stream
// crosses a chunk boundary. The ring reuses one flat buffer forever once
// grown, which the zero-allocation contract of the event core depends on.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace contra::util {

template <typename T>
class RingQueue {
 public:
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  void push_back(T&& value) {
    if (size_ == buf_.size()) grow();
    buf_[tail_] = std::move(value);
    tail_ = next(tail_);
    ++size_;
  }

  T& front() { return buf_[head_]; }
  const T& front() const { return buf_[head_]; }

  /// Moves the front element out and advances the queue.
  T pop_front() {
    T out = std::move(buf_[head_]);
    head_ = next(head_);
    --size_;
    return out;
  }

  void clear() {
    // Drop held resources eagerly (queued values may own buffers).
    for (size_t i = 0; i < size_; ++i) buf_[index(i)] = T{};
    head_ = tail_ = size_ = 0;
  }

  /// Visits elements front to back.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (size_t i = 0; i < size_; ++i) fn(buf_[index(i)]);
  }

 private:
  size_t next(size_t i) const { return i + 1 == buf_.size() ? 0 : i + 1; }
  size_t index(size_t offset) const {
    const size_t i = head_ + offset;
    return i >= buf_.size() ? i - buf_.size() : i;
  }

  void grow() {
    const size_t cap = buf_.empty() ? 16 : buf_.size() * 2;
    std::vector<T> bigger(cap);
    for (size_t i = 0; i < size_; ++i) bigger[i] = std::move(buf_[index(i)]);
    buf_ = std::move(bigger);
    head_ = 0;
    tail_ = size_;
  }

  std::vector<T> buf_;
  size_t head_ = 0;
  size_t tail_ = 0;
  size_t size_ = 0;
};

}  // namespace contra::util
