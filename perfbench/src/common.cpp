#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>

#include "bench.hpp"

namespace perfbench {

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t derive(uint64_t seed, uint64_t tag, uint64_t index) {
  // splitmix64 over a combination of the three words.
  uint64_t z = seed * 0x9E3779B97F4A7C15ull ^ (tag + 0x632BE59BD9B4E019ull) ^
               (index * 0xD6E8FEB86659FD93ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// --- tracing ------------------------------------------------------------------

namespace {

struct SpanRecord {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  int64_t op = -1;
  int thread = 0;
};

std::atomic<bool> g_tracing{false};
std::mutex g_spans_mu;
std::vector<SpanRecord> g_spans;  // guarded by g_spans_mu
std::atomic<int> g_next_thread{0};

struct ThreadState {
  int id = g_next_thread.fetch_add(1);
  std::vector<int64_t> stack;  ///< open span ids, innermost last
};
thread_local ThreadState t_state;

void json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      os << buf;
    } else {
      os << c;
    }
  }
  os << '"';
}

void json_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  os << buf;
}

}  // namespace

void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

int64_t span_begin(const std::string& name, int64_t op) {
  if (!tracing()) return -1;
  ThreadState& ts = t_state;
  const int64_t parent = ts.stack.empty() ? -1 : ts.stack.back();
  int64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(g_spans_mu);
    if (op < 0 && parent >= 0) op = g_spans[static_cast<size_t>(parent)].op;
    id = static_cast<int64_t>(g_spans.size());
    g_spans.push_back(SpanRecord{name, 0, 0, parent, op, ts.id});
  }
  ts.stack.push_back(id);
  const int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(g_spans_mu);
  g_spans[static_cast<size_t>(id)].start_ns = t;
  return id;
}

void span_end(int64_t id) {
  if (id < 0) return;
  const int64_t t = now_ns();
  ThreadState& ts = t_state;
  if (!ts.stack.empty() && ts.stack.back() == id) ts.stack.pop_back();
  std::lock_guard<std::mutex> lock(g_spans_mu);
  g_spans[static_cast<size_t>(id)].end_ns = t;
}

bool write_spans(const std::string& path) {
  std::ofstream out(path);
  std::lock_guard<std::mutex> lock(g_spans_mu);
  for (size_t i = 0; i < g_spans.size(); ++i) {
    const SpanRecord& s = g_spans[i];
    out << "{\"id\":" << i << ",\"name\":";
    json_string(out, s.name);
    out << ",\"start\":" << s.start_ns << ",\"end\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"op\":" << s.op
        << ",\"thread\":" << s.thread << "}\n";
  }
  return static_cast<bool>(out);
}

// --- results --------------------------------------------------------------------

void Results::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (errors.size() < 20) errors.push_back(what);
}

bool write_results(const Results& r, const std::string& path) {
  std::ofstream out(path);
  out << "{\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
      << ",\"errors\":[";
  for (size_t i = 0; i < r.errors.size(); ++i) {
    if (i) out << ',';
    json_string(out, r.errors[i]);
  }
  out << "],\"samples\":{";
  bool first = true;
  for (const auto& [k, v] : r.samples) {
    if (!first) out << ',';
    first = false;
    json_string(out, k);
    out << ":[";
    for (size_t i = 0; i < v.size(); ++i) {
      if (i) out << ',';
      json_number(out, v[i]);
    }
    out << ']';
  }
  out << "},\"values\":{";
  first = true;
  for (const auto& [k, v] : r.values) {
    if (!first) out << ',';
    first = false;
    json_string(out, k);
    out << ':';
    json_number(out, v);
  }
  out << "},\"notes\":{";
  first = true;
  for (const auto& [k, v] : r.notes) {
    if (!first) out << ',';
    first = false;
    json_string(out, k);
    out << ':';
    json_string(out, v);
  }
  out << "}}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
