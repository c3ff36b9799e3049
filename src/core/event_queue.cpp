#include "src/core/event_queue.hpp"

namespace halotis {

namespace {
constexpr std::uint32_t kNoHeapPos = 0xFFFFFFFFu;
}  // namespace

EventId EventQueue::push(TimeNs time, TransitionId transition, PinRef target) {
  const EventId id = create(time, transition, target);
  enqueue(id);
  return id;
}

EventId EventQueue::create(TimeNs time, TransitionId transition, PinRef target) {
  const auto raw = static_cast<EventId::underlying_type>(nodes_.size());
  Node node;
  node.ev.time = time;
  node.ev.transition = transition;
  node.ev.target = target;
  nodes_.push_back(node);
  return EventId{raw};
}

void EventQueue::enqueue(EventId id) {
  const std::uint32_t raw = id.value();
  Node& node = nodes_[raw];
  debug_ensure(node.state == EventState::kPending && node.heap_pos == kNoHeapPos,
               "EventQueue::enqueue(): event not pending or already scheduled");
  heap_.push_back(HeapSlot{node.ev.time, raw});
  node.heap_pos = static_cast<std::uint32_t>(heap_.size() - 1);
  sift_up(heap_.size() - 1);
}

void EventQueue::dequeue(EventId id) {
  const std::uint32_t raw = id.value();
  Node& node = nodes_[raw];
  debug_ensure(node.state == EventState::kPending, "EventQueue::dequeue(): not pending");
  const std::uint32_t pos = node.heap_pos;
  debug_ensure(pos != kNoHeapPos && pos < heap_.size() && heap_[pos].id == raw,
               "EventQueue::dequeue(): event not scheduled");
  node.heap_pos = kNoHeapPos;
  remove_at(pos);
}

void EventQueue::reserve(std::size_t expected_events) {
  nodes_.reserve(expected_events);
  heap_.reserve(expected_events);
}

EventId EventQueue::peek() const {
  require(!heap_.empty(), "EventQueue::peek(): queue is empty");
  return EventId{heap_.front().id};
}

EventId EventQueue::pop() {
  require(!heap_.empty(), "EventQueue::pop(): queue is empty");
  const std::uint32_t raw = heap_.front().id;
  const HeapSlot last = heap_.back();
  heap_.pop_back();
  nodes_[raw].heap_pos = kNoHeapPos;
  if (!heap_.empty()) {
    place(0, last);
    sift_down(0);
  }
  nodes_[raw].state = EventState::kFired;
  ++fired_;
  return EventId{raw};
}

EventId EventQueue::pop_replacing(EventId next) {
  require(!heap_.empty(), "EventQueue::pop_replacing(): queue is empty");
  const std::uint32_t raw = heap_.front().id;
  nodes_[raw].heap_pos = kNoHeapPos;
  nodes_[raw].state = EventState::kFired;
  ++fired_;
  const std::uint32_t nraw = next.value();
  Node& node = nodes_[nraw];
  debug_ensure(node.state == EventState::kPending && node.heap_pos == kNoHeapPos,
               "EventQueue::pop_replacing(): replacement not pending or already scheduled");
  place(0, HeapSlot{node.ev.time, nraw});
  sift_down(0);
  return EventId{raw};
}

void EventQueue::cancel(EventId id) {
  require(id.valid() && id.value() < nodes_.size(), "EventQueue::cancel(): invalid id");
  Node& node = nodes_[id.value()];
  require(node.state == EventState::kPending,
          "EventQueue::cancel(): event is not pending");
  const std::uint32_t pos = node.heap_pos;
  if (pos != kNoHeapPos) {
    // Scheduled (a pending-list head): remove the heap entry too.
    ensure(pos < heap_.size() && heap_[pos].id == id.value(),
           "EventQueue::cancel(): heap position corrupt");
    node.heap_pos = kNoHeapPos;
    remove_at(pos);
  }
  node.state = EventState::kCancelled;
  ++cancelled_;
}

void EventQueue::remove_at(std::size_t pos) {
  const HeapSlot last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) {
    place(pos, last);
    // The replacement may need to move either direction.
    sift_down(pos);
    sift_up(nodes_[last.id].heap_pos);
  }
}

const Event& EventQueue::event(EventId id) const {
  require(id.valid() && id.value() < nodes_.size(), "EventQueue::event(): invalid id");
  return nodes_[id.value()].ev;
}

EventState EventQueue::state(EventId id) const {
  require(id.valid() && id.value() < nodes_.size(), "EventQueue::state(): invalid id");
  return nodes_[id.value()].state;
}

void EventQueue::sift_up(std::size_t index) {
  const HeapSlot moving = heap_[index];
  while (index > 0) {
    const std::size_t parent = (index - 1) / kArity;
    if (!before(moving, heap_[parent])) break;
    place(index, heap_[parent]);
    index = parent;
  }
  place(index, moving);
}

void EventQueue::sift_down(std::size_t index) {
  const std::size_t n = heap_.size();
  const HeapSlot moving = heap_[index];
  while (true) {
    const std::size_t first_child = kArity * index + 1;
    if (first_child >= n) break;
    std::size_t smallest;
    if (first_child + kArity <= n) {
      // Full node: pairwise min tree -- the first two comparisons are
      // independent, halving the dependency chain of a sequential scan.
      const std::size_t a =
          before(heap_[first_child + 1], heap_[first_child]) ? first_child + 1
                                                             : first_child;
      const std::size_t b =
          before(heap_[first_child + 3], heap_[first_child + 2]) ? first_child + 3
                                                                 : first_child + 2;
      smallest = before(heap_[b], heap_[a]) ? b : a;
    } else {
      smallest = first_child;
      for (std::size_t child = first_child + 1; child < n; ++child) {
        if (before(heap_[child], heap_[smallest])) smallest = child;
      }
    }
    if (!before(heap_[smallest], moving)) break;
    place(index, heap_[smallest]);
    index = smallest;
  }
  place(index, moving);
}

}  // namespace halotis
