#!/usr/bin/env python3
"""End-to-end benchmark for javer: build, run, check, compare.

Builds bench/e2e (Release) into build-bench/cmake and runs javer_bench,
one (workload, rep) per process. See README.md for the workloads, the
metrics, their bounds, and which layer metric should move which
end-to-end metric.

  run.py --seed 1 --reps 3 [--traced] [--allow-debug]
      Runs every workload --reps times, interleaved round-robin, each rep a
      process measuring for --seconds (default 10); prints `metric workload
      value unit` lines and writes build-bench/result.json (or --out).
      With --traced, also runs each workload once traced and writes
      build-bench/traced/<workload>.{trace.json,layers.txt}.
  run.py --workload W --seed N --seconds S --trace 0|1
      Runs one workload for about S seconds and prints one JSON object as
      the last line: end-to-end metrics with --trace 0, per-layer metrics
      with --trace 1.
  run.py compare A.json B.json
      Same-machine A/B of two result.json files (or comma-separated lists
      of them, whose reps are pooled); exits 1 on a regression.
  run.py --self-test     fixtures for the statistics and classification.
  run.py --smoke         2 designs per workload, 1 rep, checks and a traced
                         run validated by tools/check_trace.py.

Exit status: 0 success, 1 a verdict failed its check or compare found a
regression, 2 usage, build or environment errors.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(ROOT, "build-bench")
BUILD_DIR = os.path.join(OUT_DIR, "cmake")
BENCH_BIN = os.path.join(BUILD_DIR, "javer_bench")

WORKLOADS = ["ja-failing", "ja-alltrue", "sharded-mixed", "warm-rerun"]

# name -> (unit, better, bound). `bound` is the share of A's median by which
# B may get worse before compare calls it a regression; failed_frac allows
# no increase at all. BENCHMARK.json repeats these (the self-test checks).
# The timing bounds are wide because the host's speed drifts; README.md
# records the spread they were set from.
END_TO_END = {
    "props_per_s": ("props/s", "higher", 0.25),
    "design_s_p50": ("s", "lower", 0.25),
    "design_s_p75": ("s", "lower", 0.25),
    "failed_frac": ("ratio", "lower", 0.0),
    "peak_rss_mb": ("MB", "lower", 0.15),
    "setup_s": ("s", "lower", 0.25),
}
SETUP_FLOOR_S = 0.05  # compare ignores set-up changes below this
# failed_frac is 0 on a healthy run, so it is reported through the
# result's "failed"/"attempted" counts rather than as a driver metric.
DRIVER_END_TO_END = [m for m in END_TO_END if m != "failed_frac"]

# Per-layer metrics from the traced run: name -> unit. Which end-to-end
# metric each should move, and on which workload, is in README.md.
LAYER_METRICS = {
    "aig.read_s": "s", "ts.build_s": "s",
    "mp.verify_s": "s", "mp.cpu_s": "s", "mp.cpu_util": "ratio",
    "pool.idle_s": "s",
    "ic3.consecution_s": "s", "ic3.consecution_n": "count",
    "ic3.mic_s": "s", "ic3.mic_n": "count",
    "ic3.push_s": "s", "ic3.push_n": "count",
    "ic3.clauses_added": "count", "ic3.obligations": "count",
    "ic3.bad_query_s": "s", "ic3.bad_query_n": "count",
    "ic3.lift_s": "s", "ic3.lift_n": "count",
    "task.spurious_restarts": "count",
    "ic3.seed_clauses_kept": "count", "ic3.seed_clauses_dropped": "count",
    "seed.keep_ratio": "ratio",
    "sat.propagations": "count", "sat.conflicts": "count",
    "sat.decisions": "count",
    "cnf.replay_s": "s", "cnf.replay_n": "count",
    "cnf.encode_s": "s", "cnf.encode_n": "count",
    "ic3.template_builds": "count", "ic3.template_instantiations": "count",
    "ic3.solver_contexts_created": "count", "ic3.solver_rebuilds": "count",
    "bmc.solve_s": "s", "bmc.solve_n": "count",
    "bmc.sweeps": "count", "bmc.cex_found": "count",
    "sim.seconds": "s", "sim.candidates": "count", "sim.kills": "count",
    "sim.kill_ratio": "ratio", "sim.seeds": "count", "sim.seed_hits": "count",
    "exchange.delivered": "count", "exchange.imported": "count",
    "exchange.rejected": "count", "exchange.redundant": "count",
    "exchange.import_ratio": "ratio", "ic3.lemmas_rejected": "count",
    "sched.rounds": "count", "task.slices": "count",
    "pool.items_stolen": "count", "pool.idle_wakeups": "count",
    "persist.load_s": "s", "persist.load_n": "count",
    "persist.templates_loaded": "count", "persist.dbs_loaded": "count",
    "persist.cubes_loaded": "count",
    "persist.store_s": "s", "persist.store_n": "count",
    "persist.templates_stored": "count", "persist.dbs_stored": "count",
    "check.certify_s": "s", "check.cex_s": "s",
    "check.proofs": "count", "check.cex": "count",
    "mp.unattributed_s": "s", "obs.overhead": "ratio",
}
# Times that are exactly 0 on some workload (the layer is idle there) stay
# in the layer table but are not driver metrics: a constant time is not a
# measurement. Their counts (bmc.solve_n, ...) are. Warm runs seed every
# proof from the cache, so MIC, push and lifting are idle on warm-rerun.
IDLE_TIMES = {"bmc.solve_s", "sim.seconds", "persist.load_s",
              "persist.store_s", "check.cex_s", "cnf.encode_s",
              "ic3.mic_s", "ic3.push_s", "ic3.lift_s"}
DRIVER_PER_LAYER = [m for m in LAYER_METRICS if m not in IDLE_TIMES]
# Per-layer metrics where more is better (useful outcomes, re-use, busy
# share); for the rest (time, work, waste) less is better.
HIGHER_IS_BETTER = {
    "mp.cpu_util", "ic3.seed_clauses_kept", "seed.keep_ratio", "sim.kills",
    "sim.kill_ratio", "sim.seed_hits", "bmc.cex_found", "exchange.imported",
    "exchange.import_ratio", "persist.templates_loaded", "persist.dbs_loaded",
    "persist.cubes_loaded", "check.proofs", "check.cex",
}

# Profiler phase -> per-layer metric prefix.
PHASES = {
    "ic3/consecution": "ic3.consecution", "ic3/mic": "ic3.mic",
    "ic3/push": "ic3.push", "ic3/bad_query": "ic3.bad_query",
    "ic3/lift": "ic3.lift", "cnf/replay": "cnf.replay",
    "cnf/encode": "cnf.encode", "bmc/solve": "bmc.solve",
    "persist/load": "persist.load", "persist/store": "persist.store",
}
# Registry counters copied as they are.
COUNTERS = [
    "ic3.clauses_added", "ic3.obligations", "task.spurious_restarts",
    "ic3.seed_clauses_kept", "ic3.seed_clauses_dropped", "sat.propagations",
    "sat.conflicts", "sat.decisions", "ic3.template_builds",
    "ic3.template_instantiations", "ic3.solver_contexts_created",
    "ic3.solver_rebuilds", "bmc.sweeps", "bmc.cex_found", "sim.seconds",
    "sim.candidates", "sim.kills", "sim.seeds", "sim.seed_hits",
    "exchange.delivered", "exchange.imported", "exchange.rejected",
    "exchange.redundant", "ic3.lemmas_rejected", "sched.rounds",
    "task.slices", "pool.items_stolen", "pool.idle_wakeups",
    "persist.templates_loaded", "persist.dbs_loaded", "persist.cubes_loaded",
]
# Persist stores happen in the cold runs, which are set-up.
SETUP_COUNTERS = ["persist.templates_stored", "persist.dbs_stored"]
# Profiled phase -> the Ic3Stats counter its sample count must equal
# (consecution and push queries share one counter).
PHASE_COUNTERS = [
    (("ic3/consecution", "ic3/push"), "ic3.consecution_queries"),
    (("ic3/mic",), "ic3.mic_queries"),
    (("ic3/bad_query",), "ic3.bad_queries"),
    (("ic3/lift",), "ic3.lift_queries"),
]

# A javer_bench process may overrun its measuring time by set-up, the
# untraced reference pass of a traced run, and the last design.
REP_OVERHEAD_S = 150


class BenchError(Exception):
    pass


# --- statistics ---------------------------------------------------------------

def percentile(values, q):
    """Linear interpolation between closest ranks (q in [0, 100])."""
    xs = sorted(values)
    if not xs:
        raise BenchError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def quartiles(values):
    """(q1, median, q3), as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def design_latencies(samples):
    """{design: (props, latency)} over a run's samples, where a design's
    latency is its fastest pass. The work of a pass is the same every
    time; the host's speed is not (it drifts by up to 2x within minutes),
    and a slow spell only ever adds time."""
    by_design = {}
    for s in samples:
        by_design.setdefault(s["design"], (s["props"], []))[1].append(
            s["verify_s"])
    return {d: (props, min(t)) for d, (props, t) in by_design.items()}


def latency_metrics(samples):
    lat = design_latencies(samples)
    times = [t for _, t in lat.values()]
    return {
        "props_per_s": sum(p for p, _ in lat.values()) / sum(times),
        "design_s_p50": percentile(times, 50),
        "design_s_p75": percentile(times, 75),
    }, len(times)


def rep_metrics(rep):
    """End-to-end metrics of one javer_bench result."""
    m, _ = latency_metrics(rep["samples"])
    m.update(failed_frac=rep["failed"] / rep["attempted"],
             peak_rss_mb=rep["peak_rss_mb"], setup_s=rep["setup_s"])
    return m


def summarize(reps):
    """Headline metrics over reps: medians over reps, except the design
    latency percentiles, which take each design's latency over all reps."""
    per_rep = [rep_metrics(r) for r in reps]
    out = {m: statistics.median(p[m] for p in per_rep) for m in END_TO_END}
    pooled, designs = latency_metrics(
        [s for r in reps for s in r["samples"]])
    out["design_s_p50"] = pooled["design_s_p50"]
    out["design_s_p75"] = pooled["design_s_p75"]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    out["failed_frac"] = failed / attempted
    return out, per_rep, {"n": designs, "attempted": attempted,
                          "failed": failed}


# --- compare ------------------------------------------------------------------

def classify(metric, a, b):
    """Verdict for B against A on one metric, from per-rep values.

    Returns (verdict, change): verdict is "within bound", "improved",
    "regression" or "unresolved" (the spread is wider than the bound and
    not every B run beats every A run); change is how much worse B's
    median is, as a share of A's (failed_frac: the absolute increase of
    the mean, since any increase is a regression)."""
    _, better, bound = END_TO_END[metric]
    sign = 1.0 if better == "lower" else -1.0
    if metric == "failed_frac":
        change = statistics.mean(b) - statistics.mean(a)
        return ("regression" if change > 0 else "within bound"), change
    qa, qb = quartiles(a), quartiles(b)
    worse = sign * (qb[1] - qa[1])  # > 0: B is worse
    allowed = bound * abs(qa[1])
    if metric == "setup_s":
        allowed = max(allowed, SETUP_FLOOR_S)
    change = worse / abs(qa[1]) if qa[1] else 0.0
    pairs = [sign * (y - x) for x in a for y in b]  # < 0: B run is better
    if max(qa[2] - qa[0], qb[2] - qb[0]) > allowed and max(pairs) >= 0:
        if worse > allowed and min(pairs) > 0:
            return "regression", change  # every B run is worse
        return "unresolved", change
    if worse > allowed:
        return "regression", change
    decided = [d for d in pairs if d != 0]
    if (decided and sum(d < 0 for d in decided) >= 0.9 * len(decided)
            and -worse > qa[2] - qa[0]):
        return "improved", change
    return "within bound", change


def load_side(spec):
    """One side of a comparison: result.json files, comma-separated, whose
    reps are pooled (alternate the two sides' invocations, then pool)."""
    side = {"heads": [], "reps": {}}
    for path in spec.split(","):
        try:
            with open(path, encoding="utf-8") as f:
                result = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            raise BenchError(f"cannot load {path}: {e}")
        side["heads"].append(result["provenance"].get("git_head"))
        for w, data in result["workloads"].items():
            side["reps"].setdefault(w, []).extend(data["reps"])
    return side


def compare(spec_a, spec_b, out=sys.stdout):
    a, b = load_side(spec_a), load_side(spec_b)
    regressions = 0
    metrics = list(END_TO_END)
    for name, spec, side in (("A", spec_a, a), ("B", spec_b, b)):
        heads = ", ".join(sorted({str(h) for h in side["heads"]}))
        print(f"{name} = {spec} (HEAD {heads})", file=out)
    print("workload        " + "".join(f"{m:>26}" for m in metrics), file=out)
    details = []
    for w in WORKLOADS:
        if w not in a["reps"] or w not in b["reps"]:
            continue
        ra, rb = a["reps"][w], b["reps"][w]
        cells = []
        for m in metrics:
            va = [r[m] for r in ra]
            vb = [r[m] for r in rb]
            verdict, change = classify(m, va, vb)
            regressions += verdict == "regression"
            qa, qb = quartiles(va), quartiles(vb)
            shown = (f"{change:+.4f}" if m == "failed_frac"
                     else f"{change * 100:+.1f}%")
            cells.append(f"{shown} {verdict}")
            details.append(
                f"  {w:<14} {m:<13} A {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]"
                f" n={len(va)}  B {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]"
                f" n={len(vb)}  {verdict}")
        print(f"{w:<16}" + "".join(f"{c:>26}" for c in cells), file=out)
    print("(change: how much worse B's median is than A's; below, medians "
          "[q1, q3] over reps)", file=out)
    for line in details:
        print(line, file=out)
    return regressions


# --- building and running -----------------------------------------------------

def check_sources():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError(f"no javer sources at {ROOT} (CMakeLists.txt, src/)")


def build():
    check_sources()
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = [["cmake", "--build", BUILD_DIR, "--target", "javer_bench",
              "-j", jobs]]
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise BenchError(f"build step failed: {' '.join(cmd)}")


def provenance(seed, reps, allow_debug):
    proc = subprocess.run([BENCH_BIN, "--provenance"], stdout=subprocess.PIPE,
                          text=True, check=True)
    prov = json.loads(proc.stdout)
    refuse_debug(prov, allow_debug)
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL,
                              text=True).stdout.strip() or None
    except OSError:
        head = None
    prov.update({"seed": seed, "reps": reps, "nproc": os.cpu_count(),
                 "git_head": head, "python": platform.python_version(),
                 "machine": platform.machine()})
    return prov


def refuse_debug(prov, allow_debug):
    bad = []
    if prov.get("build_type") != "Release":
        bad.append(f"build type {prov.get('build_type')!r}")
    if prov.get("asserts"):
        bad.append("asserts enabled")
    if prov.get("sanitizers"):
        bad.append("sanitizers enabled")
    if bad and not allow_debug:
        raise BenchError("refusing to time a non-Release build ("
                         + ", ".join(bad) + "); pass --allow-debug to run "
                         "it anyway")


def run_rep(workload, seed, seconds=0, traced_dir=None, designs=None):
    """One javer_bench process; returns its parsed result."""
    tmp_root = os.path.join(OUT_DIR, "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=tmp_root)
    out = os.path.join(tmp, "result.json")
    cmd = [BENCH_BIN, "--workload", workload, "--seed", str(seed),
           "--out", out, "--tmp", os.path.join(tmp, "designs"),
           "--seconds", str(seconds)]
    if traced_dir:
        cmd += ["--traced", traced_dir]
    if designs:
        cmd += ["--designs", str(designs)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=seconds + REP_OVERHEAD_S)
        if proc.returncode not in (0, 1):
            sys.stderr.write(proc.stderr[-4000:])
            raise BenchError(f"javer_bench exited {proc.returncode} "
                             f"on {workload}")
        with open(out, encoding="utf-8") as f:
            rep = json.load(f)
    except subprocess.TimeoutExpired:
        raise BenchError(f"javer_bench timed out on {workload}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for note in rep["notes"]:
        print(f"check failed: {workload}: {note}", file=sys.stderr)
    return rep


# --- per-layer table ----------------------------------------------------------

def span_table(trace_path):
    """{cat/name: [count, total_s, self_s]} from a Chrome trace. Self time
    is the span's duration minus the part its child spans cover."""
    with open(trace_path, encoding="utf-8") as f:
        events = json.load(f)["traceEvents"]
    by_tid = {}
    for ev in events:
        if ev["ph"] == "X":
            by_tid.setdefault(ev["tid"], []).append(ev)
    table = {}
    for spans in by_tid.values():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # (end, key) of the spans enclosing the current one
        for ev in spans:
            while stack and ev["ts"] >= stack[-1][0]:
                stack.pop()
            key = f"{ev['cat']}/{ev['name']}"
            row = table.setdefault(key, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += ev["dur"] * 1e-6
            row[2] += ev["dur"] * 1e-6
            if stack:  # spans nest, so a child covers only its parent
                table[stack[-1][1]][2] -= ev["dur"] * 1e-6
            stack.append((ev["ts"] + ev["dur"], key))
    return table


def layer_metrics(rep):
    """Per-layer metrics of one traced javer_bench result, per traced pass
    over the designs."""
    passes = rep["passes"]
    counters = rep["counters"]
    phases = rep["phases"]
    threads = rep["threads"]
    wall = rep["verify_s"] / passes
    cpu = rep["cpu_s"] / passes

    def ratio(num, den):
        return num / den if den else 0.0

    m = {"aig.read_s": rep["aig_read_s"], "ts.build_s": rep["ts_build_s"],
         "mp.verify_s": wall, "mp.cpu_s": cpu,
         "mp.cpu_util": ratio(cpu, wall * threads),
         "pool.idle_s": wall * threads - cpu}
    for phase, prefix in PHASES.items():
        src = rep["setup_phases"] if phase == "persist/store" else phases
        entry = src.get(phase, {"n": 0, "s": 0.0})
        m[prefix + "_s"] = entry["s"] / passes
        m[prefix + "_n"] = entry["n"] / passes
    for name in COUNTERS:
        m[name] = counters.get(name, 0) / passes
    for name in SETUP_COUNTERS:
        m[name] = rep["setup_counters"].get(name, 0) / passes
    kept = m["ic3.seed_clauses_kept"]
    m["seed.keep_ratio"] = ratio(kept, kept + m["ic3.seed_clauses_dropped"])
    m["sim.kill_ratio"] = ratio(m["sim.kills"], m["sim.candidates"])
    m["exchange.import_ratio"] = ratio(m["exchange.imported"],
                                       m["exchange.delivered"])
    check = rep["check"]
    m["check.certify_s"] = check["certify_s"] / passes
    m["check.cex_s"] = check["cex_s"] / passes
    m["check.proofs"] = check["proofs"] / passes
    m["check.cex"] = check["cex"] / passes
    profiled = sum(p["s"] for p in phases.values()) / passes
    m["mp.unattributed_s"] = wall * threads - profiled - m["sim.seconds"]
    m["obs.overhead"] = ratio(fastest_pass_s(rep["samples"]),
                              fastest_pass_s(rep["untraced_samples"])) - 1.0
    return m


def fastest_pass_s(samples):
    """A pass made of each design's fastest run."""
    return sum(t for _, t in design_latencies(samples).values())


def phase_count_mismatches(rep):
    """Profiled phase counts that differ from their Ic3Stats counter."""
    bad = []
    for phases, counter in PHASE_COUNTERS:
        n = sum(rep["phases"].get(p, {"n": 0})["n"] for p in phases)
        want = rep["counters"].get(counter, 0)
        if n != want:
            bad.append(f"{'+'.join(phases)} = {n} != {counter} = {want}")
    return bad


def write_layer_table(path, workload, rep, metrics, spans):
    lines = [f"per-layer table: {workload} (seed {rep['seed']}, traced run; "
             "end-to-end numbers never come from this run)", "",
             f"{'span':<28}{'count':>9}{'total_s':>12}{'self_s':>12}"]
    for key in sorted(spans, key=lambda k: -spans[k][2]):
        n, total, self_s = spans[key]
        lines.append(f"{key:<28}{n:>9}{total:>12.4f}{self_s:>12.4f}")
    for title, phases in (("profiler phase (measured)", rep["phases"]),
                          ("profiler phase (set-up)", rep["setup_phases"])):
        if not phases:
            continue
        lines += ["", f"{title:<28}{'count':>9}{'seconds':>12}"]
        for name, p in sorted(phases.items(), key=lambda kv: -kv[1]["s"]):
            lines.append(f"{name:<28}{p['n']:>9}{p['s']:>12.4f}")
    lines += ["", f"{'metric':<28}{'value':>16}  unit"]
    for name, unit in LAYER_METRICS.items():
        lines.append(f"{name:<28}{metrics[name]:>16.6g}  {unit}")
    for title, counters in (("counters (measured)", rep["counters"]),
                            ("counters (set-up)", rep["setup_counters"])):
        if not counters:
            continue
        lines += ["", title]
        for name, value in sorted(counters.items()):
            lines.append(f"  {name:<32}{value:>16.6g}")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def check_trace(trace_path):
    """tools/check_trace.py on one trace; returns its exit status."""
    tool = os.path.join(ROOT, "tools", "check_trace.py")
    proc = subprocess.run([sys.executable, tool, "--expect-span",
                           "bench/verify", trace_path],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    sys.stderr.write(proc.stdout)
    return proc.returncode


def traced_run(workload, seed, seconds=0, designs=None):
    """One traced javer_bench process: writes the trace and the layer
    table; returns (metrics, rep, problems)."""
    traced_dir = os.path.join(OUT_DIR, "traced")
    rep = run_rep(workload, seed, seconds=seconds, traced_dir=traced_dir,
                  designs=designs)
    trace_path = os.path.join(traced_dir, f"{workload}.trace.json")
    metrics = layer_metrics(rep)
    write_layer_table(os.path.join(traced_dir, f"{workload}.layers.txt"),
                      workload, rep, metrics, span_table(trace_path))
    problems = phase_count_mismatches(rep)
    if check_trace(trace_path) != 0:
        problems.append("tools/check_trace.py rejected the trace")
    return metrics, rep, problems


# --- modes --------------------------------------------------------------------

def print_metric(name, workload, value, unit, n=None):
    extra = f"  (n={n})" if n is not None else ""
    print(f"{name} {workload} {value:.6g} {unit}{extra}")


def suite(opts):
    build()
    prov = provenance(opts.seed, opts.reps, opts.allow_debug)
    reps = {w: [] for w in WORKLOADS}
    for i in range(opts.reps):
        # Round-robin, rotating the start so no workload always runs first
        # after a quiet period.
        order = WORKLOADS[i % len(WORKLOADS):] + WORKLOADS[:i % len(WORKLOADS)]
        for w in order:
            reps[w].append(run_rep(w, opts.seed, seconds=opts.seconds))
    result = {"provenance": prov, "workloads": {}}
    failed_total = 0
    for w in WORKLOADS:
        headline, per_rep, counts = summarize(reps[w])
        failed_total += counts["failed"]
        for m, (unit, _, _) in END_TO_END.items():
            n = counts["n"] if m.startswith("design_s") else len(per_rep)
            print_metric(m, w, headline[m], unit, n)
        result["workloads"][w] = {
            "metrics": {m: {"value": headline[m], "unit": END_TO_END[m][0]}
                        for m in END_TO_END},
            "samples_n": counts["n"],
            "attempted": counts["attempted"],
            "failed": counts["failed"],
            "reps": [dict(pm, samples=r["samples"], attempted=r["attempted"],
                          failed=r["failed"], verify_s=r["verify_s"],
                          cpu_s=r["cpu_s"])
                     for pm, r in zip(per_rep, reps[w])],
        }
    problems = 0
    if opts.traced:
        result["traced"] = {}
        for w in WORKLOADS:
            metrics, rep, issues = traced_run(w, opts.seed)
            for line in issues:
                problems += 1
                print(f"traced {w}: {line}", file=sys.stderr)
            failed_total += rep["failed"]
            result["traced"][w] = metrics
            print(f"traced {w}: mp.unattributed_s "
                  f"{metrics['mp.unattributed_s']:.4g} s, obs.overhead "
                  f"{metrics['obs.overhead']:+.3f}; table in "
                  f"build-bench/traced/{w}.layers.txt")
    with open(opts.out, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1)
    print(f"result: {opts.out}")
    if failed_total:
        print(f"FAILED: {failed_total} verdict(s) failed their check",
              file=sys.stderr)
        return 1
    return 1 if problems else 0


def driver(opts):
    """One workload for about opts.seconds; JSON result as the last line."""
    build()
    provenance(opts.seed, None, opts.allow_debug)
    if opts.trace:
        layer, rep, issues = traced_run(opts.workload, opts.seed,
                                        opts.seconds)
        for line in issues:
            print(f"traced {opts.workload}: {line}", file=sys.stderr)
        metrics = {m: {"value": layer[m], "unit": LAYER_METRICS[m]}
                   for m in DRIVER_PER_LAYER}
    else:
        rep = run_rep(opts.workload, opts.seed, seconds=opts.seconds)
        headline, _, _ = summarize([rep])
        metrics = {m: {"value": headline[m], "unit": END_TO_END[m][0]}
                   for m in DRIVER_END_TO_END}
    print(json.dumps({"correct": rep["failed"] == 0,
                      "attempted": rep["attempted"], "failed": rep["failed"],
                      "metrics": metrics}))
    return 0


def smoke(opts):
    started = time.monotonic()
    build()
    provenance(1, 1, opts.allow_debug)
    problems = 0
    for w in WORKLOADS:
        rep = run_rep(w, 1, designs=2)
        headline, _, counts = summarize([rep])
        problems += counts["failed"]
        for m, (unit, _, _) in END_TO_END.items():
            print_metric(m, w, headline[m], unit)
        _, traced_rep, issues = traced_run(w, 1, designs=2)
        problems += traced_rep["failed"] + len(issues)
        for line in issues:
            print(f"traced {w}: {line}", file=sys.stderr)
    print(f"smoke: {'OK' if not problems else 'FAILED'} in "
          f"{time.monotonic() - started:.1f} s")
    return 1 if problems else 0


# --- self-test ----------------------------------------------------------------

def self_test():
    failures = []

    def expect(name, got, want):
        if got != want:
            failures.append(f"{name}: got {got!r}, want {want!r}")

    def close(a, b):
        return abs(a - b) < 1e-9

    expect("p50 even", percentile([4, 1, 3, 2], 50), 2.5)
    expect("p75 interpolates", close(percentile([1, 2, 3, 4], 75), 3.25),
           True)
    expect("p0/p100", (percentile([5, 7], 0), percentile([5, 7], 100)),
           (5, 7))
    expect("quartiles", quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]),
           (2.75, 5.5, 8.25))
    expect("quartiles single", quartiles([3.0]), (3.0, 3.0, 3.0))

    steady = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98]
    expect("same code is within bound",
           classify("design_s_p50", steady, [1.01, 1.00, 0.99, 1.02,
                                             1.00, 0.98])[0],
           "within bound")
    expect("seeded regression",
           classify("design_s_p50", steady, [x * 1.5 for x in steady])[0],
           "regression")
    expect("throughput regression (higher is better)",
           classify("props_per_s", steady, [x * 0.6 for x in steady])[0],
           "regression")
    expect("improvement",
           classify("design_s_p50", steady, [x * 0.9 for x in steady])[0],
           "improved")
    noisy = [1.0, 1.5, 0.7, 1.3, 0.8, 1.2]
    expect("wide spread is unresolved",
           classify("design_s_p50", noisy, [1.1, 1.4, 0.9, 1.2, 1.0,
                                            1.3])[0],
           "unresolved")
    expect("wide spread but every B run worse",
           classify("design_s_p50", noisy, [2.0, 2.2, 2.5])[0],
           "regression")
    expect("wide spread but every B run better",
           classify("design_s_p50", noisy, [0.3, 0.35, 0.4])[0],
           "improved")
    expect("set-up below the floor",
           classify("setup_s", [0.002, 0.002, 0.002],
                    [0.004, 0.004, 0.004])[0],
           "within bound")
    expect("any failure increase regresses",
           classify("failed_frac", [0.0, 0.0, 0.0], [0.0, 0.0, 0.001])[0],
           "regression")

    def sample(design, props, t):
        return {"design": design, "props": props, "verify_s": t}

    reps = [{"samples": [sample("a", 10, 1.0), sample("b", 30, 3.0),
                         sample("a", 10, 3.0)],
             "attempted": 50, "failed": 0, "peak_rss_mb": 10.0,
             "setup_s": 0.1},
            {"samples": [sample("a", 10, 2.0), sample("b", 30, 2.0),
                         sample("b", 30, 4.0)],
             "attempted": 70, "failed": 3, "peak_rss_mb": 12.0,
             "setup_s": 0.3}]
    headline, per_rep, counts = summarize(reps)
    expect("failed_frac pools reps", headline["failed_frac"], 3 / 120)
    expect("failed counts", (counts["attempted"], counts["failed"]),
           (120, 3))
    expect("props_per_s from each design's fastest pass",
           [p["props_per_s"] for p in per_rep], [10.0, 10.0])
    expect("p50 over each design's fastest pass of all reps",
           headline["design_s_p50"], 1.5)
    expect("sample count is designs", counts["n"], 2)
    expect("rss median", headline["peak_rss_mb"], 11.0)

    try:
        refuse_debug({"build_type": "Debug", "asserts": True,
                      "sanitizers": False}, allow_debug=False)
        failures.append("debug build was not refused")
    except BenchError:
        pass
    refuse_debug({"build_type": "Debug", "asserts": True,
                  "sanitizers": False}, allow_debug=True)

    trace = {"traceEvents": [
        {"name": "design", "cat": "bench", "ph": "X", "ts": 0, "dur": 100,
         "pid": 1, "tid": 0},
        {"name": "verify", "cat": "bench", "ph": "X", "ts": 10, "dur": 60,
         "pid": 1, "tid": 0},
        {"name": "slice", "cat": "task", "ph": "X", "ts": 20, "dur": 30,
         "pid": 1, "tid": 0},
        {"name": "certify", "cat": "bench", "ph": "X", "ts": 70, "dur": 20,
         "pid": 1, "tid": 0},
    ]}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(trace, f)
        table = span_table(path)
    expect("self time", {k: round(v[2] * 1e6) for k, v in table.items()},
           {"bench/design": 20, "bench/verify": 30, "task/slice": 30,
            "bench/certify": 20})

    bench_json = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(bench_json):
        with open(bench_json, encoding="utf-8") as f:
            spec = json.load(f)
        expect("BENCHMARK.json workloads",
               [w["name"] for w in spec["workloads"]], WORKLOADS)
        expect("BENCHMARK.json end_to_end",
               {m["name"]: (m["unit"], m["better"], m["bound"])
                for m in spec["end_to_end"]},
               {m: END_TO_END[m] for m in DRIVER_END_TO_END})
        expect("BENCHMARK.json per_layer",
               {m["name"]: (m["unit"], m["better"])
                for m in spec["per_layer"]},
               {m: (LAYER_METRICS[m],
                    "higher" if m in HIGHER_IS_BETTER else "lower")
                for m in DRIVER_PER_LAYER})

    for f in failures:
        print(f"run.py: self-test FAIL: {f}", file=sys.stderr)
    if failures:
        return 1
    print("run.py: self-test OK")
    return 0


def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json[,A2.json...] "
                  "B.json[,B2.json...]", file=sys.stderr)
            return 2
        return 1 if compare(argv[1], argv[2]) else 0
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", default=os.path.join(OUT_DIR, "result.json"),
                        help="suite mode: where to write the result")
    parser.add_argument("--allow-debug", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    opts = parser.parse_args(argv)
    if opts.self_test:
        return self_test()
    if opts.smoke:
        return smoke(opts)
    if opts.reps < 1:
        parser.error("--reps must be at least 1")
    if opts.workload:
        return driver(opts)
    return suite(opts)


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        sys.exit(2)
