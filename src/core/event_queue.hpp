// The HALOTIS event queue.
//
// Events are threshold crossings at specific gate inputs (paper Fig. 3).
// The queue must support, besides the usual push / pop-earliest, *erasure*
// of pending events: the inertial treatment cancels a pending event Ej-1
// whenever the following transition's crossing Ej on the same input does
// not come after it (paper Fig. 4).  The implementation is a d-ary
// min-heap over an event arena with position tracking, giving O(log n)
// push / pop / erase and stable FIFO ordering of simultaneous events.
//
// Hot-path layout: the heap stores its sort keys (time, id) inline, so
// sift operations compare contiguous 16-byte slots instead of chasing the
// event arena (the seed kernel's dominant cost -- 43 % of run time was
// sift_down cache misses).  The id doubles as the FIFO tie-break: ids are
// assigned in creation order, so (time, id) ordering is identical to the
// paper's (time, seq) ordering.
//
// The heap is 4-ary: a shallower tree than a binary heap, and the four
// children of a node share one cache line.  Pop order is the deterministic
// total order on (time, id).
//
// The heap operations (push, create, enqueue, dequeue, pop, pop_replacing,
// cancel, peek, reserve) are defined out of line in event_queue.cpp, so
// the simulator calls them across the translation-unit boundary; only the
// small accessors below are inline.
#pragma once

#include <cstdint>
#include <vector>

#include "src/base/check.hpp"
#include "src/base/ids.hpp"
#include "src/base/units.hpp"
#include "src/netlist/netlist.hpp"

namespace halotis {

/// One threshold-crossing event at a gate input.  Ids are assigned in
/// creation order, so the id doubles as the FIFO tie-break for equal times
/// (the paper's seq ordering) -- no separate sequence field needed.
struct Event {
  TimeNs time = 0.0;
  TransitionId transition;   ///< the transition that produced the event
  PinRef target;             ///< receiving gate input
};

enum class EventState : std::uint8_t { kPending, kFired, kCancelled };

class EventQueue {
 public:
  /// Creates and enqueues an event.  Returns its id.
  EventId push(TimeNs time, TransitionId transition, PinRef target);

  /// Creates an event in the arena *without* scheduling it (pending, not in
  /// the heap).  The simulator's per-input pending lists are time-ordered,
  /// so only each list's head competes in the heap; the rest of the list
  /// never pays heap maintenance (enqueue()d when promoted to head).
  EventId create(TimeNs time, TransitionId transition, PinRef target);

  /// Schedules a created (or previously dequeue()d) pending event into the
  /// heap.  Requires the event is pending and not already scheduled.
  void enqueue(EventId id);

  /// Removes a pending event from the heap without cancelling it -- the
  /// event stopped being its input's earliest (a resurrection displaced it)
  /// and may be enqueue()d again later.
  void dequeue(EventId id);

  /// Pre-sizes the event arena and heap for `expected_events` pushes.
  void reserve(std::size_t expected_events);

  /// Drops every event and resets the counters while keeping the arena and
  /// heap capacity -- the Simulator::reset() re-arm path recycles the queue
  /// instead of reallocating it.
  void clear() {
    nodes_.clear();
    heap_.clear();
    cancelled_ = 0;
    fired_ = 0;
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Earliest event id without removing it.  Requires !empty().
  [[nodiscard]] EventId peek() const;

  /// Removes and returns the earliest event; marks it fired.
  EventId pop();

  /// Pops the earliest event and schedules `next` into the vacated root in
  /// one sift -- the fired head's successor on the same pending list
  /// (usually close to the minimum, so pop + enqueue would pay a full
  /// sift_down plus a sift_up back toward the root).  Equivalent to
  /// `pop(); enqueue(next);`: same heap membership, same pop order.
  EventId pop_replacing(EventId next);

  /// Cancels a pending event, removing it from the heap if scheduled.
  /// Requires state(id) == kPending.
  void cancel(EventId id);

  /// Marks a pending, never-scheduled event fired without touching the
  /// heap -- the partitioned kernel's owner-side replay of a firing that
  /// physically happened in the receiving partition's queue.
  void mark_fired_unscheduled(EventId id) {
    Node& node = nodes_[id.value()];
    debug_ensure(node.state == EventState::kPending && node.heap_pos == 0xFFFFFFFFu,
                 "EventQueue::mark_fired_unscheduled(): event scheduled or not pending");
    node.state = EventState::kFired;
    ++fired_;
  }

  /// Owner-managed intrusive list links stored alongside each event: the
  /// simulator threads its per-input pending lists through these so the
  /// event, its lifecycle state and its links share one ~40-byte record
  /// (one cache line touch, one arena append) instead of three parallel
  /// arrays.  The queue itself never reads or writes them after create().
  struct EventLinks {
    std::uint32_t prev = 0xFFFFFFFFu;
    std::uint32_t next = 0xFFFFFFFFu;
  };
  [[nodiscard]] EventLinks& links(EventId id) { return nodes_[id.value()].links; }
  [[nodiscard]] const EventLinks& links(EventId id) const {
    return nodes_[id.value()].links;
  }

  [[nodiscard]] const Event& event(EventId id) const;
  [[nodiscard]] EventState state(EventId id) const;

  /// Unchecked accessors for the simulation engine's inner loop, where the
  /// id provably came from this queue.  The checked variants above are the
  /// public face.
  [[nodiscard]] const Event& event_unchecked(EventId id) const {
    return nodes_[id.value()].ev;
  }
  [[nodiscard]] EventState state_unchecked(EventId id) const {
    return nodes_[id.value()].state;
  }

  [[nodiscard]] std::uint64_t created_count() const { return nodes_.size(); }
  [[nodiscard]] std::uint64_t cancelled_count() const { return cancelled_; }
  [[nodiscard]] std::uint64_t fired_count() const { return fired_; }

  /// Approximate byte footprint of the event arena and heap.
  [[nodiscard]] std::uint64_t arena_bytes() const {
    return nodes_.capacity() * sizeof(Node) + heap_.capacity() * sizeof(HeapSlot);
  }

 private:
  /// Heap node: the sort key, stored inline so comparisons stay in-cache.
  struct HeapSlot {
    TimeNs time;
    std::uint32_t id;
  };
  /// One event record: POD event + owner links + heap bookkeeping.
  struct Node {
    Event ev;
    EventLinks links;
    std::uint32_t heap_pos = 0xFFFFFFFFu;
    EventState state = EventState::kPending;
  };

  static constexpr std::size_t kArity = 4;

  [[nodiscard]] static bool before(const HeapSlot& a, const HeapSlot& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.id < b.id;  // creation order: identical to seq ordering
  }
  void sift_up(std::size_t index);
  void sift_down(std::size_t index);
  /// Removes the heap entry at `pos` (event already known pending).
  void remove_at(std::size_t pos);
  void place(std::size_t index, HeapSlot slot) {
    heap_[index] = slot;
    nodes_[slot.id].heap_pos = static_cast<std::uint32_t>(index);
  }

  std::vector<Node> nodes_;      // arena, indexed by EventId
  std::vector<HeapSlot> heap_;   // 4-ary min-heap of scheduled pending events
  std::uint64_t cancelled_ = 0;
  std::uint64_t fired_ = 0;
};

}  // namespace halotis
