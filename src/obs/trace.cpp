#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <ostream>
#include <vector>

namespace stosched::obs::trace {
namespace {

struct TraceEvent {
  const char* cat;
  const char* name;
  std::uint64_t ts_ns;
  std::uint64_t dur_ns;  // complete events only
  double value;          // counter events only
  std::uint32_t tid;
  char ph;  // 'X' complete, 'i' instant, 'C' counter
};

struct Buffer {
  std::vector<TraceEvent> events;
  std::uint32_t tid = 0;
};

// Leaked registry (it must outlive every thread): live per-thread buffers plus
// a retired pile that thread-exit flushes into, so no event is lost when an
// OpenMP worker dies before the trace is written.
struct Registry {
  std::mutex mu;
  std::vector<Buffer*> live;
  std::vector<TraceEvent> retired;
  std::uint32_t next_tid = 0;
  bool atexit_installed = false;
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked, outlives all threads
  return *r;
}

void write_env_trace() {
  const char* path = std::getenv("STOSCHED_TRACE_FILE");
  if (path != nullptr && *path != '\0') write_file(path);
}

struct ThreadBuffer {
  Buffer buf;
  ThreadBuffer() {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    buf.tid = r.next_tid++;
    r.live.push_back(&buf);
    if (!r.atexit_installed) {
      r.atexit_installed = true;
      std::atexit(write_env_trace);
    }
  }
  ~ThreadBuffer() {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.retired.insert(r.retired.end(), buf.events.begin(), buf.events.end());
    r.live.erase(std::remove(r.live.begin(), r.live.end(), &buf),
                 r.live.end());
  }
};

Buffer& local_buffer() {
  thread_local ThreadBuffer tb;
  return tb.buf;
}

// Trace names are string literals chosen by this repo, but keep the writer
// honest about arbitrary bytes anyway (same minimal escape set as
// bench_common's JSON writer).
void write_escaped(std::ostream& os, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\')
      os << '\\' << c;
    else if (static_cast<unsigned char>(c) < 0x20)
      os << "\\u00" << "0123456789abcdef"[(c >> 4) & 0xf]
         << "0123456789abcdef"[c & 0xf];
    else
      os << c;
  }
}

// Chrome's ts/dur unit is microseconds; emit as integer-nanosecond-derived
// fixed-point (µs with 3 decimals) so no precision is lost.
void write_us(std::ostream& os, std::uint64_t ns) {
  os << ns / 1000 << '.' << static_cast<char>('0' + (ns / 100) % 10)
     << static_cast<char>('0' + (ns / 10) % 10)
     << static_cast<char>('0' + ns % 10);
}

void write_event(std::ostream& os, const TraceEvent& e) {
  os << "{\"name\":\"";
  write_escaped(os, e.name);
  os << "\",\"cat\":\"";
  write_escaped(os, e.cat);
  os << "\",\"ph\":\"" << e.ph << "\",\"ts\":";
  write_us(os, e.ts_ns);
  if (e.ph == 'X') {
    os << ",\"dur\":";
    write_us(os, e.dur_ns);
  }
  os << ",\"pid\":1,\"tid\":" << e.tid;
  if (e.ph == 'i') os << ",\"s\":\"t\"";
  if (e.ph == 'C') os << ",\"args\":{\"value\":" << e.value << "}";
  os << "}";
}

std::vector<TraceEvent> gather() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<TraceEvent> all = r.retired;
  for (const Buffer* b : r.live)
    all.insert(all.end(), b->events.begin(), b->events.end());
  std::stable_sort(all.begin(), all.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ns != b.ts_ns ? a.ts_ns < b.ts_ns
                                               : a.tid < b.tid;
                   });
  return all;
}

}  // namespace

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void record_complete(const char* cat, const char* name, std::uint64_t start_ns,
                     std::uint64_t dur_ns) noexcept {
  Buffer& b = local_buffer();
  b.events.push_back({cat, name, start_ns, dur_ns, 0.0, b.tid, 'X'});
}

void record_instant(const char* cat, const char* name) noexcept {
  Buffer& b = local_buffer();
  b.events.push_back({cat, name, now_ns(), 0, 0.0, b.tid, 'i'});
}

void record_counter(const char* cat, const char* name, double value) noexcept {
  Buffer& b = local_buffer();
  b.events.push_back({cat, name, now_ns(), 0, value, b.tid, 'C'});
}

std::size_t event_count() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::size_t n = r.retired.size();
  for (const Buffer* b : r.live) n += b->events.size();
  return n;
}

void clear() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.retired.clear();
  for (Buffer* b : r.live) b->events.clear();
}

void write(std::ostream& os) {
  const std::vector<TraceEvent> all = gather();
  os << "[";
  for (std::size_t i = 0; i < all.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n");
    write_event(os, all[i]);
  }
  os << "\n]\n";
}

bool write_file(const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  write(os);
  return static_cast<bool>(os);
}

}  // namespace stosched::obs::trace
