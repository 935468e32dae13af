#include "obs/trace.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <sstream>

#include "obs/metrics.hpp"
#include "support/strings.hpp"
#include "support/timer.hpp"

namespace gpumip::obs::trace {

namespace {

/// One thread's event storage. Single writer (the owning thread); readers
/// (snapshot/export) run only at quiescence. `head` counts every event
/// ever written through this ring, so the retained window is the last
/// kRingCapacity of them and `head - kRingCapacity` were overwritten.
struct Ring {
  std::vector<TraceEvent> buf;
  std::uint64_t head = 0;
};

/// Process-wide ring pool. Rings are never destroyed; a thread returns its
/// ring to the free list on exit (the handoff mutex orders the old
/// owner's writes before the new owner's) and the retained events stay
/// readable for post-join export. Creation order is stable, so snapshots
/// are deterministic for a deterministic schedule.
struct Store {
  std::mutex mutex;
  std::vector<std::unique_ptr<Ring>> rings;
  std::vector<Ring*> free_rings;
  std::atomic<std::uint32_t> next_tid{1};
  std::atomic<std::uint64_t> next_run{1};
  std::atomic<std::uint64_t> dropped{0};
};

Store& store() {
  static Store instance;
  return instance;
}

/// Wall-clock epoch shared by every unbound thread, so their timestamps
/// live on one comparable timeline.
double wall_seconds() {
  static const WallTimer epoch;
  return epoch.elapsed();
}

struct ThreadState {
  Ring* ring = nullptr;
  std::uint32_t tid = 0;
  int rank = -1;
  const double* sim_clock = nullptr;
  /// Open-span names, so end() can stamp the matching name without the
  /// caller restating it (obs::Span destructors use this form).
  std::vector<std::array<char, TraceEvent::kNameCapacity + 1>> span_stack;

  ~ThreadState() {
    if (ring == nullptr) return;
    Store& s = store();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.free_rings.push_back(ring);
  }
};

ThreadState& tls() {
  thread_local ThreadState state;
  return state;
}

void copy_name(char* dst, std::string_view name) {
  const std::size_t n = std::min(name.size(), TraceEvent::kNameCapacity);
  std::copy_n(name.data(), n, dst);
  dst[n] = '\0';
}

/// Reserves the next slot of the calling thread's ring, acquiring a ring
/// from the pool on first use and counting the overwritten event when the
/// ring has wrapped.
TraceEvent& reserve(ThreadState& t) {
  if (t.ring == nullptr) {
    Store& s = store();
    std::lock_guard<std::mutex> lock(s.mutex);
    if (s.free_rings.empty()) {
      s.rings.push_back(std::make_unique<Ring>());
      t.ring = s.rings.back().get();
      t.ring->buf.resize(kRingCapacity);
    } else {
      t.ring = s.free_rings.back();
      s.free_rings.pop_back();
    }
    t.tid = s.next_tid.fetch_add(1, std::memory_order_relaxed);
  }
  Ring& r = *t.ring;
  if (r.head >= kRingCapacity) {
    store().dropped.fetch_add(1, std::memory_order_relaxed);
#ifdef GPUMIP_OBS_ENABLED
    static Counter& drop_counter = obs::counter("gpumip.obs.trace.dropped");
    drop_counter.add(1);
#endif
  }
  TraceEvent& ev = r.buf[static_cast<std::size_t>(r.head % kRingCapacity)];
  ++r.head;
  return ev;
}

/// Records one event stamped with the thread's binding and current clock
/// (simulated when a rank clock is bound, wall otherwise).
void emit(EventKind kind, std::string_view name, std::uint64_t flow, std::uint64_t arg) {
  ThreadState& t = tls();
  TraceEvent& ev = reserve(t);
  copy_name(ev.name, name);
  ev.kind = kind;
  ev.lane = Lane::kCpu;
  ev.rank = static_cast<std::int16_t>(t.rank);
  ev.tid = t.tid;
  if (t.sim_clock != nullptr) {
    ev.sim_time = true;
    ev.ts = *t.sim_clock;
  } else {
    ev.sim_time = false;
    ev.ts = wall_seconds();
  }
  ev.dur = 0.0;
  ev.flow = flow;
  ev.arg = arg;
}

}  // namespace

void begin(std::string_view name, std::uint64_t arg) {
  ThreadState& t = tls();
  auto& slot = t.span_stack.emplace_back();
  copy_name(slot.data(), name);
  emit(EventKind::kBegin, name, 0, arg);
}

void end() {
  ThreadState& t = tls();
  if (t.span_stack.empty()) {
    emit(EventKind::kEnd, "unbalanced", 0, 0);
    return;
  }
  const auto top = t.span_stack.back();
  t.span_stack.pop_back();
  emit(EventKind::kEnd, std::string_view(top.data()), 0, 0);
}

void end(std::string_view name) {
  ThreadState& t = tls();
  if (!t.span_stack.empty()) t.span_stack.pop_back();
  emit(EventKind::kEnd, name, 0, 0);
}

void instant(std::string_view name, std::uint64_t arg) {
  emit(EventKind::kInstant, name, 0, arg);
}

void complete(std::string_view name, Lane lane, double sim_start, double duration,
              std::uint64_t arg) {
  ThreadState& t = tls();
  TraceEvent& ev = reserve(t);
  copy_name(ev.name, name);
  ev.kind = EventKind::kComplete;
  ev.lane = lane;
  ev.sim_time = true;  // explicit-interval events always live on the sim clock
  ev.rank = static_cast<std::int16_t>(t.rank);
  ev.tid = t.tid;
  ev.ts = sim_start;
  ev.dur = duration;
  ev.flow = 0;
  ev.arg = arg;
}

void flow_begin(std::string_view name, std::uint64_t id) {
  emit(EventKind::kFlowStart, name, id, 0);
}

void flow_end(std::string_view name, std::uint64_t id) {
  emit(EventKind::kFlowEnd, name, id, 0);
}

std::uint64_t flow_key(std::uint64_t run, int source, int dest, std::uint64_t seq) noexcept {
  // splitmix64 over the packed tuple: uniqueness within a run is exact
  // (distinct (source,dest,seq) pack distinctly below 2^40-scale worlds);
  // the mix spreads ids from successive runs apart.
  std::uint64_t z = (run << 32) ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(source))
                                   << 48) ^
                    (static_cast<std::uint64_t>(static_cast<std::uint32_t>(dest)) << 40) ^ seq;
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t next_run_id() noexcept {
  return store().next_run.fetch_add(1, std::memory_order_relaxed);
}

RankBinding::RankBinding(int rank, const double* sim_clock) noexcept
    : prev_rank_(tls().rank), prev_clock_(tls().sim_clock) {
  ThreadState& t = tls();
  t.rank = rank;
  t.sim_clock = sim_clock;
}

RankBinding::~RankBinding() {
  ThreadState& t = tls();
  t.rank = prev_rank_;
  t.sim_clock = prev_clock_;
}

int bound_rank() noexcept { return tls().rank; }

std::vector<TraceEvent> snapshot() {
  Store& s = store();
  std::lock_guard<std::mutex> lock(s.mutex);
  std::vector<TraceEvent> out;
  for (const auto& ring : s.rings) {
    const std::uint64_t first = ring->head > kRingCapacity ? ring->head - kRingCapacity : 0;
    for (std::uint64_t i = first; i < ring->head; ++i) {
      out.push_back(ring->buf[static_cast<std::size_t>(i % kRingCapacity)]);
    }
  }
  return out;
}

std::uint64_t dropped() noexcept { return store().dropped.load(std::memory_order_relaxed); }

void reset() {
  Store& s = store();
  std::lock_guard<std::mutex> lock(s.mutex);
  for (const auto& ring : s.rings) ring->head = 0;
  s.dropped.store(0, std::memory_order_relaxed);
}

namespace {

/// Exported Chrome trace tid. Sim-time events are grouped into one row per
/// (rank, lane) — rank -1 (the device driven from an unbound thread) gets
/// the lane rows 0..3, rank r gets 4(r+1)..4(r+1)+3 — so every rank is a
/// stable labelled track regardless of which OS thread ran it. Wall-time
/// events keep their recording thread id (offset so the two pid spaces
/// cannot collide visually).
long exported_tid(const TraceEvent& ev) {
  if (ev.sim_time) {
    return (static_cast<long>(ev.rank) + 1) * 4 + static_cast<long>(ev.lane);
  }
  return 1000 + static_cast<long>(ev.tid);
}

constexpr int kSimPid = 1;
constexpr int kWallPid = 2;

const char* phase_of(EventKind kind) {
  switch (kind) {
    case EventKind::kBegin: return "B";
    case EventKind::kEnd: return "E";
    case EventKind::kInstant: return "i";
    case EventKind::kComplete: return "X";
    case EventKind::kFlowStart: return "s";
    case EventKind::kFlowEnd: return "f";
  }
  return "i";
}

const char* lane_name(Lane lane) {
  switch (lane) {
    case Lane::kCpu: return "cpu";
    case Lane::kH2D: return "h2d";
    case Lane::kD2H: return "d2h";
    case Lane::kKernel: return "kernel";
  }
  return "cpu";
}

}  // namespace

std::string to_json() {
  std::vector<TraceEvent> events = snapshot();
  // Stable sort: per-thread recording order is preserved within equal
  // timestamps (so nested B/E pairs at the same sim instant stay nested).
  std::stable_sort(events.begin(), events.end(), [](const TraceEvent& a, const TraceEvent& b) {
    const int pa = a.sim_time ? kSimPid : kWallPid;
    const int pb = b.sim_time ? kSimPid : kWallPid;
    if (pa != pb) return pa < pb;
    const long ta = exported_tid(a);
    const long tb = exported_tid(b);
    if (ta != tb) return ta < tb;
    return a.ts < b.ts;
  });

  std::ostringstream out;
  out << "{\n\"schema\": \"gpumip.trace.v1\",\n";
  out << "\"displayTimeUnit\": \"ms\",\n";
  out << "\"otherData\": {\"dropped\": " << dropped() << "},\n";
  out << "\"traceEvents\": [\n";
  bool first = true;
  auto emit_meta = [&](int pid, long tid, const char* key, const std::string& value) {
    out << (first ? "" : ",\n") << R"({"ph":"M","pid":)" << pid << R"(,"tid":)" << tid
        << R"(,"name":")" << key << R"(","args":{"name":")" << json_escape(value) << "\"}}";
    first = false;
  };
  emit_meta(kSimPid, 0, "process_name", "simulated time");
  emit_meta(kWallPid, 0, "process_name", "wall clock");
  // Label every sim track that actually carries events.
  std::vector<long> seen_tids;
  for (const TraceEvent& ev : events) {
    if (!ev.sim_time) continue;
    const long tid = exported_tid(ev);
    if (std::find(seen_tids.begin(), seen_tids.end(), tid) != seen_tids.end()) continue;
    seen_tids.push_back(tid);
    std::string label = ev.rank < 0 ? std::string("device ") + lane_name(ev.lane)
                                    : "rank " + std::to_string(ev.rank) +
                                          (ev.lane == Lane::kCpu
                                               ? std::string()
                                               : std::string(" ") + lane_name(ev.lane));
    emit_meta(kSimPid, tid, "thread_name", label);
  }

  for (const TraceEvent& ev : events) {
    const int pid = ev.sim_time ? kSimPid : kWallPid;
    out << (first ? "" : ",\n");
    first = false;
    out << R"({"name":")" << json_escape(ev.name_view()) << R"(","ph":")" << phase_of(ev.kind)
        << R"(","ts":)" << json_number(ev.ts * 1e6) << R"(,"pid":)" << pid << R"(,"tid":)"
        << exported_tid(ev);
    if (ev.kind == EventKind::kComplete) out << R"(,"dur":)" << json_number(ev.dur * 1e6);
    if (ev.kind == EventKind::kInstant) out << R"(,"s":"t")";
    if (ev.kind == EventKind::kFlowStart || ev.kind == EventKind::kFlowEnd) {
      char idbuf[24];
      std::snprintf(idbuf, sizeof(idbuf), "0x%016llx",
                    static_cast<unsigned long long>(ev.flow));
      out << R"(,"cat":"gpumip.flow","id":")" << idbuf << '"';
      if (ev.kind == EventKind::kFlowEnd) out << R"(,"bp":"e")";
    }
    out << R"(,"args":{"rank":)" << ev.rank << R"(,"lane":")" << lane_name(ev.lane)
        << R"(","arg":)" << ev.arg << "}}";
  }
  out << "\n]\n}\n";
  return out.str();
}

void export_json(const std::string& path) {
  write_export(path, to_json(), "trace export");
}

std::string export_if_requested() {
  const char* path = std::getenv("GPUMIP_TRACE_OUT");  // NOLINT(concurrency-mt-unsafe)
  if (path == nullptr || *path == '\0') return "";
  export_json(path);
  return path;
}

}  // namespace gpumip::obs::trace
