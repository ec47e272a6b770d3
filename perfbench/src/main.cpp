// perfbench_bin — one benchmark process for one workload.
//
//   perfbench_bin --prepare --cache DIR
//       train any model missing from the weight cache (never timed)
//   perfbench_bin --workload W --seed N --seconds S --trace 0|1
//                 --cache DIR --work DIR --out FILE [--spans FILE]
//       set W up several times, run its reference passes, then time it.
//       --trace 1 splits the time into an untraced and a traced half,
//       briefly runs the other workloads traced too (so every per-layer
//       metric exists in every traced run), runs the layer probes, and
//       writes the in-memory spans to --spans at exit.
//
// The raw samples go to --out as JSON; run.py turns them into metrics.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iterator>
#include <string>

#include "bench.hpp"
#include "obs/profiler.hpp"
#include "obs/telemetry.hpp"
#include "parallel/thread_pool.hpp"

namespace perfbench {
namespace {

// Set-ups per run; setup_s is their median. served_mix's set-up (bind and
// start the server) takes microseconds, so it needs more repetitions.
int setups_for(const std::string& workload) {
  return workload == "served_mix" ? 25 : 3;
}

const char* const kWorkloads[] = {"fig3_forward", "campaign_long", "served_mix"};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Options& o) {
  if (name == "fig3_forward") return make_fig3_forward(o);
  if (name == "campaign_long") return make_campaign_long(o);
  if (name == "served_mix") return make_served_mix(o);
  return nullptr;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// Closed loop: run operations back to back until `seconds` have passed
/// (at least one). Records each operation's latency, the phase's work,
/// wall and CPU time, and (traced) the obs counters it moved.
void run_phase(Workload& w, Results& r, const std::string& key, double seconds,
               bool traced, int threads) {
  set_tracing(traced);
  ge::obs::set_metrics_enabled(traced);
  ge::obs::reset_counters();
  w.begin_phase(traced);
  const double cpu0 = cpu_seconds();
  const int64_t t0 = now_ns();
  double work = 0.0;
  int64_t ops = 0;
  do {
    const int64_t a = now_ns();
    work += w.op(r, key, ops);
    r.add(key + ".latency_s", seconds_between(a, now_ns()));
    ++ops;
  } while (seconds_between(t0, now_ns()) < seconds);
  const double wall = seconds_between(t0, now_ns());
  r.set(key + ".wall_s", wall);
  r.set(key + ".work", work);
  r.set(key + ".ops", static_cast<double>(ops));
  r.set(key + ".cpu_busy_ratio", (cpu_seconds() - cpu0) / (wall * threads));
  if (traced) {
    for (int c = 0; c < static_cast<int>(ge::obs::Counter::kCount); ++c) {
      const auto counter = static_cast<ge::obs::Counter>(c);
      r.set(key + ".counter." + ge::obs::counter_name(counter),
            static_cast<double>(ge::obs::counter_value(counter)));
    }
  }
  w.begin_phase(false);
  w.verify(r, key);
}

int run(const Options& o, int64_t t_start, const std::string& out_path,
        const std::string& spans_path) {
  Results r;
  r.notes["workload"] = o.workload;
  r.notes["seed"] = std::to_string(o.seed);
  r.set("threads", o.threads);
  set_tracing(o.trace);
  ge::obs::set_metrics_enabled(o.trace);

  std::vector<std::string> order{o.workload};
  if (o.trace) {
    for (const char* w : kWorkloads) {
      if (w != o.workload) order.push_back(w);
    }
  }
  for (const std::string& name : order) {
    const bool primary = name == o.workload;
    const std::string k = name + "/";
    std::unique_ptr<Workload> w;
    for (int i = 0; i < (primary ? setups_for(name) : 1); ++i) {
      w.reset();  // the previous set-up's teardown is not timed
      const int64_t t0 = (primary && i == 0) ? t_start : now_ns();
      w = make_workload(name, o);
      w->setup(r);
      r.add(k + "setup_s", seconds_between(t0, now_ns()));
    }
    w->reference(r);
    if (!o.trace) {
      run_phase(*w, r, k + "main", o.seconds, false, o.threads);
    } else if (primary) {
      run_phase(*w, r, k + "untraced", o.seconds / 2, false, o.threads);
      run_phase(*w, r, k + "traced", o.seconds / 2, true, o.threads);
      r.set(k + "arena_peak_mb",
            static_cast<double>(ge::obs::sample_memory().arena_peak_bytes) / 1e6);
    } else {
      // Brief companion runs: enough operations for their layer metrics.
      if (name == "fig3_forward") {
        run_phase(*w, r, k + "untraced", 1.0, false, o.threads);
      }
      run_phase(*w, r, k + "traced", name == "campaign_long" ? 0.0 : 1.5, true,
                o.threads);
    }
    if (o.trace) {
      set_tracing(true);
      ge::obs::set_metrics_enabled(true);
      w->probes(r);
    }
  }
  if (o.trace) common_probes(r, o.seed);

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  r.set(o.workload + "/peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);
  set_tracing(false);
  if (!write_results(r, out_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", out_path.c_str());
    return 1;
  }
  if (o.trace && !write_spans(spans_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", spans_path.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const int64_t t_start = perfbench::now_ns();
  perfbench::Options o;
  std::string out_path, spans_path;
  bool prepare = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--prepare") {
      prepare = true;
    } else if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
    } else if (a == "--trace") {
      o.trace = value() == "1";
    } else if (a == "--cache") {
      o.cache_dir = value();
    } else if (a == "--work") {
      o.work_dir = value();
    } else if (a == "--out") {
      out_path = value();
    } else if (a == "--spans") {
      spans_path = value();
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  if (o.cache_dir.empty()) {
    std::fprintf(stderr, "perfbench: --cache is required\n");
    return 2;
  }
  try {
    if (prepare) {
      perfbench::prepare_models(o.cache_dir);
      return 0;
    }
    const auto& names = perfbench::kWorkloads;
    if (std::find(std::begin(names), std::end(names), o.workload) == std::end(names) ||
        out_path.empty() || o.work_dir.empty() || (o.trace && spans_path.empty())) {
      std::fprintf(stderr, "perfbench: bad workload or missing --out/--work/--spans\n");
      return 2;
    }
    o.threads = ge::parallel::num_threads();
    return perfbench::run(o, t_start, out_path, spans_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
