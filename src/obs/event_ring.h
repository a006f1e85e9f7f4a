#ifndef P3GM_OBS_EVENT_RING_H_
#define P3GM_OBS_EVENT_RING_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace p3gm {
namespace obs {

/// Fixed-size ring of fixed-width records, the one buffer behind the
/// flight recorder (one ring per thread) and the CPU profiler (one ring
/// shared by every sampled thread).
///
/// Append claims a slot with one fetch_add on the head, clears the
/// slot's stamp, stores the payload words and last publishes the stamp
/// seq + 1 with a release store. It takes no lock, allocates nothing and
/// makes no syscall, so signal handlers may call it. Writers never wait:
/// once the ring is full each Append overwrites the oldest record.
///
/// A reader walks the records oldest first and checks each stamp before
/// and after copying the payload, seqlock style. A record whose stamp is
/// not its sequence number's is still being written, was lapped by a
/// newer writer, or was abandoned mid-write (a handler interrupted for
/// good); it is skipped and counted, never handed out torn. Payload words
/// are stored with release order (a plain store on x86) so a reader that
/// loads any of them also sees the cleared stamp. The one mix the stamps
/// cannot catch is two writers in the same slot at once, which takes
/// `capacity` other appends during one Append.
template <std::size_t kWords>
class EventRing {
  static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
                "Append must stay async-signal-safe");

 public:
  /// Holds `min_capacity` records, rounded up to a power of two.
  explicit EventRing(std::size_t min_capacity) {
    while (capacity_ < min_capacity) capacity_ <<= 1;
    slots_ = std::make_unique<Slot[]>(capacity_);
  }

  std::size_t capacity() const { return capacity_; }

  /// Appends one record made of `words[0, n)`, n <= kWords; the slot's
  /// other words keep whatever an older record left there.
  void Append(const std::uint64_t* words, std::size_t n) {
    const std::uint64_t seq = head_.fetch_add(1, std::memory_order_relaxed);
    Slot& slot = slots_[seq & (capacity_ - 1)];
    slot.stamp.store(0, std::memory_order_relaxed);
    for (std::size_t i = 0; i < n; ++i) {
      slot.words[i].store(words[i], std::memory_order_release);
    }
    slot.stamp.store(seq + 1, std::memory_order_release);
  }

  /// Records appended since construction or the last Clear.
  std::uint64_t written() const {
    return head_.load(std::memory_order_acquire) -
           tail_.load(std::memory_order_relaxed);
  }

  /// Of those, the records overwritten by later ones.
  std::uint64_t lost() const {
    const std::uint64_t n = written();
    return n > capacity_ ? n - capacity_ : 0;
  }

  /// Forgets every record. Must not race Append or a walk.
  void Clear() {
    tail_.store(head_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
  }

  /// Calls `visit(const std::uint64_t* words)` on a copy of every intact
  /// record still held, oldest first, and returns how many it skipped.
  /// Allocation-free, so a signal handler may walk.
  template <typename Visit>
  std::uint64_t ForEach(Visit&& visit) const {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    std::uint64_t skipped = 0;
    std::uint64_t words[kWords];
    const std::uint64_t oldest =
        head - tail > capacity_ ? head - capacity_ : tail;
    for (std::uint64_t seq = oldest; seq != head; ++seq) {
      const Slot& slot = slots_[seq & (capacity_ - 1)];
      if (slot.stamp.load(std::memory_order_acquire) != seq + 1) {
        ++skipped;
        continue;
      }
      for (std::size_t i = 0; i < kWords; ++i) {
        words[i] = slot.words[i].load(std::memory_order_acquire);
      }
      if (slot.stamp.load(std::memory_order_relaxed) != seq + 1) {
        ++skipped;
        continue;
      }
      visit(static_cast<const std::uint64_t*>(words));
    }
    return skipped;
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> stamp;  // seq + 1 once published.
    std::atomic<std::uint64_t> words[kWords];
  };

  std::size_t capacity_ = 1;  // Power of two.
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> head_{0};  // Records ever claimed.
  std::atomic<std::uint64_t> tail_{0};  // head_ at the last Clear.
};

}  // namespace obs
}  // namespace p3gm

#endif  // P3GM_OBS_EVENT_RING_H_
