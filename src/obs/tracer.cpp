#include "obs/tracer.hpp"

#include <algorithm>
#include <unordered_map>

namespace rdp::obs {

// Per-thread event storage. The owning thread appends; the collector reads
// slots [0, head) after an acquire load of head, so every slot it visits was
// release-published. The slot array is allocated on the thread's first
// recorded event — registering or labelling a thread costs no ring — and is
// swapped only by start() (via an atomic pointer; retired arrays stay alive
// until process exit), which makes a capacity change safe even against a
// straggling producer that loaded the old array — its event lands in
// retired storage and is simply not collected.
struct tracer::thread_buffer {
  struct ring {
    explicit ring(std::size_t cap) : capacity(cap), slots(new event[cap]) {}
    const std::size_t capacity;
    std::unique_ptr<event[]> slots;
  };

  explicit thread_buffer(std::int32_t tid_) : tid(tid_) {}

  void push(tracer& owner, const event& e) noexcept {
    ring* r = current.load(std::memory_order_acquire);
    if (r == nullptr) [[unlikely]] {
      owner.allocate_ring(*this);
      r = current.load(std::memory_order_acquire);
    }
    const std::size_t h = head.load(std::memory_order_relaxed);
    if (r == nullptr || h >= r->capacity) {
      dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    r->slots[h] = e;
    head.store(h + 1, std::memory_order_release);
  }

  /// Publish a fresh ring of `cap` slots. Registry lock held.
  void install(std::size_t cap) {
    auto fresh = std::make_unique<ring>(cap);
    current.store(fresh.get(), std::memory_order_release);
    retired.push_back(std::move(fresh));
  }

  /// start()-only (registry lock held, producers quiescent). A thread that
  /// never recorded keeps no ring; its first event allocates one.
  void reset(std::size_t cap) {
    ring* r = current.load(std::memory_order_relaxed);
    if (r != nullptr && r->capacity != cap) install(cap);
    head.store(0, std::memory_order_release);
    dropped.store(0, std::memory_order_relaxed);
  }

  const std::int32_t tid;
  std::atomic<ring*> current{nullptr};
  std::atomic<std::size_t> head{0};
  std::atomic<std::uint64_t> dropped{0};
  std::vector<std::unique_ptr<ring>> retired;
};

thread_local tracer::thread_buffer* tracer::tl_buffer_ = nullptr;

tracer& tracer::instance() {
  static tracer t;
  return t;
}

tracer::tracer() : epoch_(std::chrono::steady_clock::now()) {
  names_.emplace_back();  // id 0 == ""
}

tracer::~tracer() = default;

tracer::thread_buffer* tracer::local_buffer() {
  if (tl_buffer_ != nullptr) return tl_buffer_;
  std::scoped_lock lock(registry_mutex_);
  const auto tid = static_cast<std::int32_t>(buffers_.size());
  buffers_.push_back(std::make_unique<thread_buffer>(tid));
  labels_.emplace_back();
  tl_buffer_ = buffers_.back().get();
  return tl_buffer_;
}

void tracer::allocate_ring(thread_buffer& b) noexcept {
  try {
    std::scoped_lock lock(registry_mutex_);
    b.install(capacity_.load(std::memory_order_relaxed));
  } catch (...) {
    // Out of memory: the event is dropped and counted.
  }
}

void tracer::start(std::size_t per_thread_capacity) {
  if (per_thread_capacity == 0) per_thread_capacity = 1;
  {
    std::scoped_lock lock(registry_mutex_);
    capacity_.store(per_thread_capacity, std::memory_order_relaxed);
    for (auto& b : buffers_) b->reset(per_thread_capacity);
  }
  epoch_ = std::chrono::steady_clock::now();
  detail::g_tracing_enabled.store(true, std::memory_order_release);
}

void tracer::stop() {
  detail::g_tracing_enabled.store(false, std::memory_order_release);
}

std::uint16_t tracer::intern(std::string_view name) {
  std::scoped_lock lock(names_mutex_);
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return static_cast<std::uint16_t>(i);
  if (names_.size() >= 0xFFFF) return 0;  // table full: fall back to anonymous
  names_.emplace_back(name);
  return static_cast<std::uint16_t>(names_.size() - 1);
}

std::string tracer::name(std::uint16_t id) const {
  std::scoped_lock lock(names_mutex_);
  if (id >= names_.size()) return {};
  return names_[id];
}

void tracer::emit(event_kind kind, std::uint16_t name, std::uint64_t arg0,
                  std::uint64_t arg1) noexcept {
  thread_buffer* b = tl_buffer_ != nullptr ? tl_buffer_ : local_buffer();
  event e;
  e.ts_ns = now_ns();
  e.arg0 = arg0;
  e.arg1 = arg1;
  e.name = name;
  e.kind = kind;
  b->push(*this, e);
}

void tracer::begin_phase(std::string_view label) {
  const std::uint16_t id = intern(label);
  emit(event_kind::phase_begin, id);
}

void tracer::set_thread_label(std::string label) {
  thread_buffer* b = local_buffer();
  std::scoped_lock lock(registry_mutex_);
  labels_[static_cast<std::size_t>(b->tid)] = std::move(label);
}

std::vector<event> tracer::collect() const {
  std::vector<event> out;
  {
    std::scoped_lock lock(registry_mutex_);
    for (const auto& b : buffers_) {
      thread_buffer::ring* r = b->current.load(std::memory_order_acquire);
      if (r == nullptr) continue;  // the thread never recorded an event
      const std::size_t h =
          std::min(b->head.load(std::memory_order_acquire), r->capacity);
      for (std::size_t i = 0; i < h; ++i) {
        event e = r->slots[i];
        e.tid = b->tid;
        out.push_back(e);
      }
    }
  }
  // Stable: events of one thread keep their program order on timestamp ties.
  std::stable_sort(out.begin(), out.end(),
                   [](const event& a, const event& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return out;
}

std::vector<std::string> tracer::thread_labels() const {
  std::scoped_lock lock(registry_mutex_);
  return labels_;
}

std::uint64_t tracer::dropped() const {
  std::scoped_lock lock(registry_mutex_);
  std::uint64_t n = 0;
  for (const auto& b : buffers_) n += b->dropped.load(std::memory_order_relaxed);
  return n;
}

}  // namespace rdp::obs
