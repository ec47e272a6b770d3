#!/usr/bin/env python3
"""Repository benchmark for GoldenEye.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Builds the library and perfbench_bin from source into .bench_build/ (the
first run also trains the three models into .bench_build/model_cache; that
is never timed), runs one workload in its own process with
GE_NUM_THREADS = the number of usable cores, checks its outputs and prints
a metric table. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"} with the end-to-end metrics
(--trace 0) or the per-layer metrics (--trace 1). `--workload all` runs
every workload untraced and prints every end-to-end figure by name.

Exit status: 0 when every output was correct, 1 when a check failed,
2 when the benchmark could not build or run.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
CACHE_DIR = os.path.join(ROOT, ".bench_build", "model_cache")
RUN_DIR = os.path.join(ROOT, ".bench_build", "runs")
BINARY = os.path.join(BUILD_DIR, "perfbench_bin")
PROCESS_TIMEOUT_S = 170

WORKLOADS = ("fig3_forward", "campaign_long", "served_mix")
FORMATS = ("fp32", "fp16", "bf16", "fxp", "int8", "bfp", "afp")
WORKLOAD_MODEL = {"fig3_forward": "tiny_deit", "campaign_long": "tiny_resnet",
                  "served_mix": "simple_cnn"}

# End-to-end metrics every workload reports (BENCHMARK.json end_to_end):
# name -> unit.
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "latency_s_p50": "s",
}

DEIT_KINDS = ("Linear", "MultiheadSelfAttention", "GELU", "LayerNorm",
              "PatchEmbed")
RESNET_KINDS = ("Conv2d", "BatchNorm2d", "ReLU")
SITES = ("value", "weight", "metadata")

# Per-layer metrics of a traced run (BENCHMARK.json per_layer):
# (name, unit, better). METRICS.md says how each is measured and which
# end-to-end metric it should move.
LAYER_METRICS = (
    [("formats.quantize_ns_per_elem." + f, "ns", "lower") for f in FORMATS]
    + [("formats.scalar_roundtrip_ns.fp16", "ns", "lower"),
       ("formats.metadata_redecode_us.bfp", "us", "lower"),
       ("tensor.matmul_gflops", "GFLOP/s", "higher"),
       ("tensor.matmul_bt_gflops", "GFLOP/s", "higher"),
       ("tensor.softmax_ns_per_elem", "ns", "lower"),
       ("tensor.arena_peak_mb", "MB", "lower")]
    + [("nn.self_ms." + k, "ms", "lower") for k in DEIT_KINDS + RESNET_KINDS]
    + [("nn.unattributed_share", "ratio", "lower")]
    + [("core.emulator.overhead_x." + f, "x", "lower") for f in FORMATS]
    + [("core.emulator.attach_ms", "ms", "lower")]
    + [("core.injector.arm_us." + s, "us", "lower") for s in SITES]
    + [("core.campaign.fixed_ms.campaign_long", "ms", "lower"),
       ("core.campaign.fixed_ms.served_mix", "ms", "lower"),
       ("core.campaign.trial_ms", "ms", "lower"),
       ("core.campaign.fixed_share.campaign_long", "ratio", "lower"),
       ("core.campaign.fixed_share.served_mix", "ratio", "lower"),
       ("core.campaign.prefix_hit_ratio", "ratio", "higher"),
       ("core.campaign.layers_skipped_per_trial", "count", "higher"),
       ("core.campaign.cow_mb_per_trial", "MB", "lower"),
       ("core.campaign.prefix_cache_mb", "MB", "lower"),
       ("core.campaign.finalize_ms", "ms", "lower"),
       ("parallel.cpu_busy_ratio", "ratio", "higher"),
       ("parallel.jobs_per_op", "count", "lower"),
       ("parallel.chunks_per_op", "count", "lower"),
       ("parallel.for_overhead_us", "us", "lower"),
       ("data.synth_ms", "ms", "lower"),
       ("models.load_ms", "ms", "lower"),
       ("models.make_replica_ms", "ms", "lower"),
       ("net.served_overhead_ms", "ms", "lower"),
       ("net.frames_per_campaign", "count", "lower"),
       ("net.leases_per_campaign", "count", "lower"),
       ("obs.runlog_rows_per_campaign", "count", "lower"),
       ("obs.trace_overhead_ratio", "x", "lower")])
LAYER_UNITS = {name: unit for name, unit, _ in LAYER_METRICS}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def threads():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_quiet(cmd, what, timeout, env=None):
    """Run `cmd`; on failure show the tail of its output and raise."""
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, timeout=timeout, env=env)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"{what} failed: {e}")
    if p.returncode != 0:
        raise BenchError(f"{what} failed (exit {p.returncode}):\n"
                         + "\n".join(p.stdout.splitlines()[-30:]))


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"], "cmake configure", 300)
    run_quiet(["cmake", "--build", BUILD_DIR, "--target", "perfbench_bin",
               "-j", str(threads())], "cmake build", 800)


def child_env():
    env = dict(os.environ)
    env["GE_NUM_THREADS"] = str(threads())
    return env


def prepare_models():
    """Fill the trained-weight cache once; later runs find it warm."""
    stamp = os.path.join(CACHE_DIR, "READY")
    if os.path.exists(stamp):
        return
    run_quiet([BINARY, "--prepare", "--cache", CACHE_DIR], "model training",
              800, child_env())
    with open(stamp, "w") as f:
        f.write("trained\n")


def run_process(workload, seed, seconds, trace):
    os.makedirs(RUN_DIR, exist_ok=True)
    base = os.path.join(RUN_DIR, f"{workload}-{seed}-{trace}")
    out, spans = base + ".json", base + ".spans.jsonl"
    for p in (out, spans):
        if os.path.exists(p):
            os.remove(p)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--cache", CACHE_DIR, "--work", RUN_DIR, "--out", out]
    if trace:
        cmd += ["--spans", spans]
    run_quiet(cmd, f"workload {workload}", PROCESS_TIMEOUT_S, child_env())
    with open(out) as f:
        res = json.load(f)
    span_list = []
    if trace:
        with open(spans) as f:
            span_list = [json.loads(line) for line in f if line.strip()]
    return res, span_list


# --- metrics ------------------------------------------------------------------

class Raw:
    """Lookup helpers over one process's raw results."""

    def __init__(self, res):
        self.samples = res["samples"]
        self.values = res["values"]
        self.notes = res["notes"]

    def s(self, key):
        if key not in self.samples or not self.samples[key]:
            raise BenchError(f"missing samples {key}")
        return self.samples[key]

    def v(self, key):
        if key not in self.values or self.values[key] is None:
            raise BenchError(f"missing value {key}")
        return self.values[key]

    def med(self, key):
        return stats.median(self.s(key))

    def throughput(self, key):
        return self.v(key + ".work") / self.v(key + ".wall_s")


def e2e_metrics(raw, w):
    return {
        "setup_s": raw.med(f"{w}/setup_s"),
        "peak_rss_mb": raw.v(f"{w}/peak_rss_mb"),
        "throughput_per_s": raw.throughput(f"{w}/main"),
        "latency_s_p50": raw.med(f"{w}/main.latency_s"),
    }


def tail(values):
    """(percentile, value) of the highest percentile with ten samples
    beyond it, or (None, None) when there are too few samples."""
    p = stats.tail_percentile(len(values))
    return (p, stats.percentile(values, p)) if p is not None else (None, None)


def detail_rows(raw, w, attempted, failed):
    """The per-workload figures by their descriptive names, as
    (name, value, unit, note) rows."""
    k = f"{w}/main"
    rows = [("setup_s", raw.med(f"{w}/setup_s"), "s",
             f"median of {len(raw.s(w + '/setup_s'))} set-ups"),
            ("peak_rss_mb", raw.v(f"{w}/peak_rss_mb"), "MB", ""),
            ("ops_failed_ratio", failed / attempted, "ratio",
             f"{failed}/{attempted}")]
    if w == "fig3_forward":
        for f in ("native",) + FORMATS:
            xs = raw.s(f"{k}.fwd_ms.{f}")
            rows.append((f"fwd_ms_p50.{f}", stats.median(xs), "ms",
                         f"n={len(xs)}"))
        xs = raw.s(f"{k}.fwd_ms.native")
        p, val = tail(xs)
        if p is not None:
            rows.append(("fwd_ms_tail.native", val, "ms", f"p{p:g} of n={len(xs)}"))
    else:
        rows.append(("trials_per_s", raw.throughput(k), "1/s",
                     f"{raw.v(k + '.work'):.0f} trials"))
    if w == "served_mix":
        xs = raw.s(f"{k}.latency_s")
        rows.append(("campaign_s_p50", stats.median(xs), "s", f"n={len(xs)}"))
        p, val = tail(xs)
        if p is not None:
            rows.append(("campaign_s_tail", val, "s", f"p{p:g} of n={len(xs)}"))
    return rows


def local_leases(status_json):
    """Leases the server's own executor completed, from its /status object."""
    status = json.loads(status_json)
    for entry in status.get("server", {}).get("workers", []):
        if entry.get("name") == "local":
            return entry["leases_completed"]
    raise BenchError("no local executor in the server status")


def layer_metrics(raw, spans, w):
    """Per-layer metrics of a traced run of workload `w`. Figures owned by
    another workload come from that workload's companion run."""
    selves = stats.self_times(spans)
    durs = {}
    for s in spans:
        durs.setdefault(s["name"], []).append(s["end"] - s["start"])

    def med_ns(name):
        if name not in durs:
            raise BenchError(f"no spans named {name}")
        return stats.median(durs[name])

    def med_prefix_ns(prefix):
        xs = [d for n, ds in durs.items() if n.startswith(prefix) for d in ds]
        if not xs:
            raise BenchError(f"no spans named {prefix}*")
        return stats.median(xs)

    m = {}
    numel = raw.v("probe.fc1_numel")
    for f in FORMATS:
        m["formats.quantize_ns_per_elem." + f] = (
            med_ns("formats.quantize_tensor_inplace." + f) / numel)
    m["formats.scalar_roundtrip_ns.fp16"] = (
        med_ns("formats.scalar_roundtrip.fp16") / raw.v("probe.scalar_count"))
    m["formats.metadata_redecode_us.bfp"] = (
        med_ns("formats.metadata_redecode.bfp") / 1e3)
    m["tensor.matmul_gflops"] = raw.v("probe.matmul_flops") / med_ns("tensor.matmul")
    m["tensor.matmul_bt_gflops"] = (
        raw.v("probe.matmul_bt_flops") / med_ns("tensor.matmul_bt"))
    m["tensor.softmax_ns_per_elem"] = (
        med_ns("tensor.softmax_lastdim") / raw.v("probe.softmax_numel"))
    m["tensor.arena_peak_mb"] = raw.v(f"{w}/arena_peak_mb")

    deit = stats.self_per_root(spans, selves, "fig3.forward.native",
                               ["nn." + k for k in DEIT_KINDS] +
                               ["fig3.forward.native", "nn.TinyDeit"])
    for k in DEIT_KINDS:
        m["nn.self_ms." + k] = stats.median(deit["nn." + k]) / 1e6
    fwd = [s["end"] - s["start"] for s in spans if s["name"] == "fig3.forward.native"]
    shares = [(a + b) / d for a, b, d in
              zip(deit["fig3.forward.native"], deit["nn.TinyDeit"], fwd)]
    m["nn.unattributed_share"] = stats.median(shares)
    resnet = stats.self_per_root(spans, selves, "campaign_long.golden_forward",
                                 ["nn." + k for k in RESNET_KINDS])
    for k in RESNET_KINDS:
        m["nn.self_ms." + k] = stats.median(resnet["nn." + k]) / 1e6

    native = raw.med("fig3_forward/untraced.fwd_ms.native")
    for f in FORMATS:
        m["core.emulator.overhead_x." + f] = (
            raw.med(f"fig3_forward/untraced.fwd_ms.{f}") / native)
    m["core.emulator.attach_ms"] = med_prefix_ns("core.emulator.Emulator.") / 1e6
    for site in SITES:
        m["core.injector.arm_us." + site] = med_ns("core.injector.arm." + site) / 1e3

    # core.campaign, from campaign_long's traced campaigns.
    ck = "campaign_long/traced"
    campaign_s = raw.med(ck + ".latency_s")
    fixed_long = med_ns("core.campaign.fixed.campaign_long") / 1e6
    trials = raw.v(ck + ".work")
    per_campaign = trials / raw.v(ck + ".ops")
    m["core.campaign.fixed_ms.campaign_long"] = fixed_long
    m["core.campaign.trial_ms"] = (campaign_s * 1e3 - fixed_long) / per_campaign
    m["core.campaign.fixed_share.campaign_long"] = fixed_long / (campaign_s * 1e3)
    m["core.campaign.prefix_hit_ratio"] = (
        raw.v(ck + ".counter.prefix_cache_hits") / raw.v(ck + ".counter.trials"))
    m["core.campaign.layers_skipped_per_trial"] = (
        raw.v(ck + ".counter.suffix_layers_skipped") / trials)
    m["core.campaign.cow_mb_per_trial"] = raw.v(ck + ".counter.cow_bytes") / trials / 1e6
    m["core.campaign.prefix_cache_mb"] = (
        raw.v(ck + ".counter.prefix_cache_bytes") / raw.v(ck + ".ops") / 1e6)
    m["core.campaign.finalize_ms"] = med_ns("core.campaign.finalize_campaign") / 1e6

    # served_mix: per-campaign fixed cost = prepare + one empty-window
    # run_campaign_trials per executor lease + finalize.
    sk = "served_mix/traced"
    served_s = raw.med(sk + ".latency_s")
    leases = local_leases(raw.notes[sk + ".status"])
    served_ops = sum(raw.v(f"served_mix/{p}.ops") for p in ("untraced", "traced")
                     if f"served_mix/{p}.ops" in raw.values)
    leases_per = leases / served_ops
    fixed_served = med_ns("core.campaign.fixed.served_mix") / 1e6
    served_fixed_total = (med_prefix_ns("net.prepare_campaign.") / 1e6
                          + leases_per * fixed_served
                          + m["core.campaign.finalize_ms"])
    m["core.campaign.fixed_ms.served_mix"] = fixed_served
    m["core.campaign.fixed_share.served_mix"] = served_fixed_total / (served_s * 1e3)
    m["net.served_overhead_ms"] = (
        served_s * 1e3 - med_ns("core.campaign.run_campaign_trials.offline") / 1e6)
    m["net.frames_per_campaign"] = (
        raw.v(sk + ".counter.net_frames_sent") / raw.v(sk + ".ops"))
    m["net.leases_per_campaign"] = leases_per
    m["obs.runlog_rows_per_campaign"] = raw.med(sk + ".runlog_rows")

    fk = "fig3_forward/traced"
    forwards = raw.v(fk + ".work")
    m["parallel.cpu_busy_ratio"] = raw.v(f"{w}/untraced.cpu_busy_ratio")
    m["parallel.jobs_per_op"] = raw.v(fk + ".counter.pool_jobs") / forwards
    m["parallel.chunks_per_op"] = raw.v(fk + ".counter.pool_chunks") / forwards
    m["parallel.for_overhead_us"] = (
        med_ns("parallel.parallel_for.empty") / raw.v("probe.parallel_for_calls") / 1e3)

    model = WORKLOAD_MODEL[w]
    m["data.synth_ms"] = med_ns("data.SyntheticVision") / 1e6
    m["models.load_ms"] = med_ns("models.ensure_trained." + model) / 1e6
    m["models.make_replica_ms"] = med_ns("models.make_model." + model) / 1e6
    m["obs.trace_overhead_ratio"] = (raw.med(f"{w}/traced.latency_s")
                                     / raw.med(f"{w}/untraced.latency_s"))
    missing = set(LAYER_UNITS) - set(m)
    if missing:
        raise BenchError(f"per-layer metrics not computed: {sorted(missing)}")
    return m


# --- output -------------------------------------------------------------------

def print_rows(title, rows):
    print(f"== {title}")
    for name, value, unit, note in rows:
        print(f"  {name:44s} {value:14.6g} {unit:8s} {note}")


def result_line(correct, attempted, failed, metrics, units):
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


def run_one(workload, seed, seconds, trace):
    res, spans = run_process(workload, seed, seconds, trace)
    raw = Raw(res)
    attempted, failed = res["attempted"], res["failed"]
    for e in res["errors"]:
        log(f"check failed: {e}")
    print(f"workload {workload} seed {seed} seconds {seconds} trace {trace} "
          f"threads {raw.v('threads'):.0f}")
    if trace:
        metrics = layer_metrics(raw, spans, workload)
        units = LAYER_UNITS
        print_rows(f"{workload} per-layer ({len(spans)} spans)",
                   [(k, metrics[k], units[k], "") for k in units])
    else:
        metrics = e2e_metrics(raw, workload)
        units = E2E_UNITS
        print_rows(f"{workload} end-to-end",
                   [(k, metrics[k], units[k], "") for k in units])
        print_rows(f"{workload} detail",
                   detail_rows(raw, workload, attempted, failed))
    return attempted, failed, metrics, units


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        build()
        prepare_models()
        if args.workload == "all":
            attempted = failed = 0
            metrics, units = {}, {}
            for w in WORKLOADS:
                a, f, m, u = run_one(w, args.seed, args.seconds, 0)
                attempted, failed = attempted + a, failed + f
                metrics.update({f"{w}.{k}": v for k, v in m.items()})
                units.update({f"{w}.{k}": u[k] for k in m})
        else:
            attempted, failed, metrics, units = run_one(
                args.workload, args.seed, args.seconds, args.trace)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    correct = failed == 0 and attempted > 0
    print(result_line(correct, attempted, failed, metrics, units), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
