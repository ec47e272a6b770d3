"""Arithmetic of the repository benchmark: percentiles, tail selection and
span self time. Kept apart from run.py so test_stats.py can check it."""

# Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0)


def percentile(values, q):
    """The q-th percentile (0..100) by linear interpolation between the
    closest ranks, as numpy's default method computes it."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return percentile(values, 50.0)


def tail_percentile(n, beyond=10):
    """The highest ladder percentile that leaves at least `beyond` of `n`
    samples above it, or None when even the lowest does not."""
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= beyond - 1e-9:
            return p
    return None


def self_times(spans):
    """Map span id -> self time: its duration minus the part of its
    interval covered by its children (overlapping children count once,
    and a child running past its parent's end is clipped)."""
    children = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        covered = 0
        cursor = lo
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            a, b = max(c["start"], cursor), min(c["end"], hi)
            if b > a:
                covered += b - a
                cursor = b
        out[s["id"]] = (hi - lo) - covered
    return out


def self_per_root(spans, selves, root_name, names):
    """For every span named `root_name`, the summed self time of the spans
    in its subtree (itself included) named in `names`, as
    {name: [one total per root span]}."""
    by_id = {s["id"]: s for s in spans}
    root_of = {}

    def find_root(sid):
        path = []
        while sid not in root_of:
            s = by_id[sid]
            if s["name"] == root_name or s["parent"] < 0:
                root_of[sid] = sid if s["name"] == root_name else None
                break
            path.append(sid)
            sid = s["parent"]
        for p in path:
            root_of[p] = root_of[sid]
        return root_of[sid]

    roots = [s["id"] for s in spans if s["name"] == root_name]
    totals = {n: {r: 0 for r in roots} for n in names}
    for s in spans:
        t = totals.get(s["name"])
        if t is None:
            continue
        r = find_root(s["id"])
        if r is not None:
            t[r] += selves[s["id"]]
    return {n: [t[r] for r in roots] for n, t in totals.items()}
