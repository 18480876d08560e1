#include "obs/trace.h"

#include "base/json.h"

namespace ldl {

uint32_t Span::CurrentThreadId() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void Tracer::WriteChromeTrace(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonWriter w;
  w.BeginObject().Key("traceEvents").BeginArray();
  for (const TraceEvent& e : events_) {
    w.BeginObject()
        .Member("name", e.name)
        .Member("cat", e.category)
        .Member("ph", "X")
        .Member("ts", e.start_us)
        .Member("dur", e.duration_us)
        .Member("pid", 1)
        .Member("tid", e.thread_id);
    if (!e.args.empty()) {
      w.Key("args").BeginObject();
      for (const auto& [key, value] : e.args) w.Member(key, value);
      w.EndObject();
    }
    w.EndObject();
  }
  w.EndArray().Member("droppedEvents", dropped_events_).EndObject();
  os << w.str() << "\n";
}

}  // namespace ldl
