// Shared pieces of the repository benchmark: clock, seed derivation,
// in-memory span tracer, the raw-results record, and the workload
// interface. The benchmark is a client of the GoldenEye public API only;
// every number it reports is measured from out here.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock (arbitrary epoch).
int64_t now_ns();
inline double seconds_between(int64_t t0, int64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}

/// Deterministic 64-bit mix of (seed, tag, index): every input the
/// workloads generate comes from the single --seed argument through this.
uint64_t derive(uint64_t seed, uint64_t tag, uint64_t index = 0);

// --- tracing ----------------------------------------------------------------
//
// Spans live in memory (name, start, end, parent, op id) and are written
// once, at exit. Parents come from a per-thread stack, so a span opened
// inside another on the same thread nests under it. With tracing off a
// Span costs one relaxed load.

void set_tracing(bool on);
bool tracing();

/// Open a span; returns its id, or -1 when tracing is off. `op` < 0
/// inherits the enclosing span's operation id.
int64_t span_begin(const std::string& name, int64_t op = -1);
/// Close the span `id` (no-op for -1). Spans close in LIFO order per thread.
void span_end(int64_t id);
/// Write every recorded span as JSON lines; false on I/O failure.
bool write_spans(const std::string& path);

class Span {
 public:
  explicit Span(const std::string& name, int64_t op = -1)
      : id_(tracing() ? span_begin(name, op) : -1) {}
  ~Span() { span_end(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int64_t id_;
};

// --- results ------------------------------------------------------------------

/// Raw measurements of one benchmark process. Keys are
/// "<workload>/<phase>.<name>"; run.py turns them into metrics.
struct Results {
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> values;
  std::map<std::string, std::string> notes;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;

  void add(const std::string& key, double v) { samples[key].push_back(v); }
  void set(const std::string& key, double v) { values[key] = v; }
  /// Count one operation and, when `ok` is false, one failure with its reason.
  void check(bool ok, const std::string& what);
};

bool write_results(const Results& r, const std::string& path);

// --- workloads ----------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string cache_dir;  ///< trained-weight cache (filled by --prepare)
  std::string work_dir;   ///< scratch space inside the checkout
  int threads = 1;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build everything the timed loop needs; called once per object.
  /// This is what setup_s measures.
  virtual void setup(Results& r) = 0;
  /// Benchmark-only reference runs the correctness checks compare
  /// against; outside setup_s.
  virtual void reference(Results& r) { (void)r; }
  /// Called when a phase starts; `traced` installs the workload's span hooks.
  virtual void begin_phase(bool traced) { (void)traced; }
  /// One timed operation. Returns its work units (forwards or trials).
  virtual double op(Results& r, const std::string& phase, int64_t index) = 0;
  /// Checks that need the whole phase (run after its timing stops).
  virtual void verify(Results& r, const std::string& phase) {
    (void)r;
    (void)phase;
  }
  /// Layer probes owned by this workload (traced runs only).
  virtual void probes(Results& r) { (void)r; }
};

std::unique_ptr<Workload> make_fig3_forward(const Options& o);
std::unique_ptr<Workload> make_campaign_long(const Options& o);
std::unique_ptr<Workload> make_served_mix(const Options& o);

/// Layer probes that belong to no single workload (tensor kernels,
/// parallel_for overhead).
void common_probes(Results& r, uint64_t seed);

/// Ensure every model the workloads use has trained weights in the cache.
void prepare_models(const std::string& cache_dir);

}  // namespace perfbench
