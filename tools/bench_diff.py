#!/usr/bin/env python3
"""Diff fresh BENCH_*.json results against committed baselines.

Each bench binary (bench/bench_util.h) writes a BENCH_<table>.json with
rows (per design+config verdict/work counts), shapes (the qualitative
paper claims and whether this run reproduced them), and metrics (named
scalars). This tool compares a fresh run against bench/baselines/ and
exits nonzero on a regression, so CI catches a change that flips a paper
shape or a verdict rather than just archiving the artifact.

What is gated is deliberately machine-speed independent:

  * shapes: a claim reproduced in the baseline must still reproduce
    (new claims and false->true improvements are fine); per-table
    wall-clock shapes (e.g. table14's "does not lose wall-time") are
    skipped;
  * rows: verdict counts (num_false / num_true / num_unsolved /
    debug_set) must match exactly, keyed by (design, config) — but only
    for run-to-completion tables; table02, whose rows all run under a
    wall-clock budget, depends on machine speed and is skipped;
  * metrics: per-metric rules — "exact" for deterministic counts,
    "min" for traffic counters that must stay nonzero; `seconds` /
    rates are never gated.

A baseline row/shape/metric missing from the fresh run is a regression;
anything extra in the fresh run is ignored (benches may grow).

Usage:
  bench_diff.py [--baselines DIR] [--fresh DIR] [--table ID ...]
  bench_diff.py --self-test

Re-baselining: when a legitimate change moves the gated values (e.g. a
new engine changes a deterministic verdict count), re-run the bench
binaries and copy the fresh BENCH_*.json over bench/baselines/ in the
same commit, with the reason in the commit message.
"""

import argparse
import json
import os
import sys
import tempfile

VERDICT_KEYS = ("num_false", "num_true", "num_unsolved", "debug_set")

# Per-table gating policy. Tables not listed gate shapes only (the safe
# default for a new bench until its determinism is understood).
POLICY = {
    "table02": {
        # Every table02 row runs under a wall-clock budget (that is the
        # point of the table), so no row is speed-independent.
        "skip_rows": True,
    },
    "table11": {
        "metrics": {
            "exchange_delivered": {"mode": "min", "value": 1},
        },
    },
    "table14": {
        "skip_shape_claims": ["wall-time"],
        "metrics": {
            "shallow_props": {"mode": "exact"},
            "shallow_kills": {"mode": "exact"},
            "shallow_sat_contexts": {"mode": "exact"},
        },
    },
    "table15": {
        "skip_shape_claims": ["wall-time"],
        # Retry/quarantine rows under a generous per-property budget are
        # deterministic; only the overhead shape is machine-speed bound.
        "metrics": {
            "designs": {"mode": "exact"},
            "targeted_unknowns": {"mode": "exact"},
            "recover_retries": {"mode": "min", "value": 1},
        },
    },
}


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top level is not an object")
    for key, kind in (("rows", list), ("shapes", list), ("metrics", dict)):
        if not isinstance(doc.get(key), kind):
            raise ValueError(f"{path}: missing {kind.__name__} '{key}'")
    return doc


def diff_table(table, baseline, fresh, policy=None):
    """Returns a list of regression descriptions (empty = clean)."""
    policy = POLICY.get(table, {}) if policy is None else policy
    problems = []

    skip_claims = policy.get("skip_shape_claims", [])
    fresh_shapes = {
        s["claim"]: bool(s.get("reproduced")) for s in fresh["shapes"]
    }
    for shape in baseline["shapes"]:
        claim = shape["claim"]
        if any(skip in claim for skip in skip_claims):
            continue
        if not shape.get("reproduced"):
            continue  # never gated green; nothing to hold
        if claim not in fresh_shapes:
            problems.append(f"shape disappeared: {claim!r}")
        elif not fresh_shapes[claim]:
            problems.append(f"shape no longer reproduced: {claim!r}")

    if not policy.get("skip_rows", False):
        fresh_rows = {
            (r["design"], r["config"]): r for r in fresh["rows"]
        }
        for row in baseline["rows"]:
            key = (row["design"], row["config"])
            got = fresh_rows.get(key)
            if got is None:
                problems.append(f"row disappeared: {key[0]}/{key[1]}")
                continue
            for field in VERDICT_KEYS:
                if got.get(field) != row.get(field):
                    problems.append(
                        f"row {key[0]}/{key[1]}: {field} changed "
                        f"{row.get(field)} -> {got.get(field)}"
                    )

    for name, rule in policy.get("metrics", {}).items():
        if name not in baseline["metrics"]:
            continue  # the rule waits until a baseline records the metric
        want = baseline["metrics"][name]
        got = fresh["metrics"].get(name)
        if got is None:
            problems.append(f"metric disappeared: {name}")
        elif rule["mode"] == "exact":
            if got != want:
                problems.append(f"metric {name}: {want} -> {got}")
        elif rule["mode"] == "min":
            if got < rule["value"]:
                problems.append(
                    f"metric {name}: {got} below required minimum "
                    f"{rule['value']}"
                )
    return problems


def run_diff(baseline_dir, fresh_dir, only_tables):
    compared = 0
    regressions = 0
    names = sorted(
        n
        for n in os.listdir(baseline_dir)
        if n.startswith("BENCH_") and n.endswith(".json")
    )
    if not names:
        print(f"bench_diff: FAIL: no BENCH_*.json in {baseline_dir}",
              file=sys.stderr)
        return 1
    for name in names:
        table = name[len("BENCH_"):-len(".json")]
        if only_tables and table not in only_tables:
            continue
        baseline = load(os.path.join(baseline_dir, name))
        fresh_path = os.path.join(fresh_dir, name)
        if not os.path.exists(fresh_path):
            print(f"bench_diff: FAIL: {table}: fresh result {fresh_path} "
                  f"missing", file=sys.stderr)
            regressions += 1
            continue
        fresh = load(fresh_path)
        problems = diff_table(table, baseline, fresh)
        compared += 1
        if problems:
            regressions += 1
            for p in problems:
                print(f"bench_diff: FAIL: {table}: {p}", file=sys.stderr)
        else:
            print(f"bench_diff: OK: {table}")
    if compared == 0:
        print("bench_diff: FAIL: nothing compared", file=sys.stderr)
        return 1
    if regressions:
        print(f"bench_diff: FAIL: {regressions} table(s) regressed",
              file=sys.stderr)
        return 1
    print(f"bench_diff: OK: {compared} table(s) match their baselines")
    return 0


# --- self-test (ctest-invoked) ---------------------------------------------

def _fixture(rows, shapes, metrics):
    return {"table": "t", "scale": 1, "rows": rows, "shapes": shapes,
            "metrics": metrics}


def self_test():
    row = {
        "design": "d1", "config": "ja-reference", "num_false": 1,
        "num_true": 2, "num_unsolved": 0, "debug_set": 1,
        "seconds": 0.5, "max_frames": 7, "sat_propagations": 100,
        "sat_conflicts": 10, "simp_vars_eliminated": 0,
    }
    shape_ok = {"claim": "verdicts agree", "reproduced": True}
    shape_time = {"claim": "no wall-time loss", "reproduced": True}
    baseline = _fixture(
        [row], [shape_ok, shape_time],
        {"exchange_delivered": 100, "ja_total_seconds": 0.5},
    )
    policy = {
        "skip_shape_claims": ["wall-time"],
        "metrics": {"exchange_delivered": {"mode": "min", "value": 1}},
    }

    failures = []

    def expect(name, fresh, want_problems, use_policy=policy):
        problems = diff_table("t", baseline, fresh, policy=use_policy)
        if bool(problems) != want_problems:
            failures.append(f"{name}: problems={problems!r}")

    # Identical run: clean.
    expect("identical", json.loads(json.dumps(baseline)), False)

    # Speed-dependent drift is tolerated: slower seconds, lower (but
    # nonzero) traffic.
    drifted = json.loads(json.dumps(baseline))
    drifted["rows"][0]["seconds"] = 9.9
    drifted["metrics"]["exchange_delivered"] = 3
    drifted["metrics"]["ja_total_seconds"] = 7.0
    expect("tolerated drift", drifted, False)

    # A wall-time shape may flip when the skip rule names it...
    slow = json.loads(json.dumps(baseline))
    slow["shapes"][1]["reproduced"] = False
    expect("skipped wall-time shape", slow, False)
    # ...but a gated shape flipping is a regression.
    broken_shape = json.loads(json.dumps(baseline))
    broken_shape["shapes"][0]["reproduced"] = False
    expect("regressed shape", broken_shape, True)
    gone_shape = json.loads(json.dumps(baseline))
    gone_shape["shapes"] = [shape_time]
    expect("disappeared shape", gone_shape, True)

    # Verdict changes on a run-to-completion config are regressions.
    flipped = json.loads(json.dumps(baseline))
    flipped["rows"][0]["num_true"] = 1
    flipped["rows"][0]["num_unsolved"] = 1
    expect("changed verdict", flipped, True)
    missing_row = json.loads(json.dumps(baseline))
    missing_row["rows"] = []
    expect("disappeared row", missing_row, True)
    # ...unless the table's rows all run under a wall-clock budget.
    expect("skipped budgeted rows", flipped, False,
           use_policy={"skip_rows": True})

    # A min-gated metric at zero is a regression; so is losing it.
    dead_bus = json.loads(json.dumps(baseline))
    dead_bus["metrics"]["exchange_delivered"] = 0
    expect("metric below min", dead_bus, True)
    lost_metric = json.loads(json.dumps(baseline))
    del lost_metric["metrics"]["exchange_delivered"]
    expect("disappeared metric", lost_metric, True)

    # Exact-mode metrics pin deterministic counts.
    exact_policy = {"metrics": {"kills": {"mode": "exact"}}}
    exact_base = _fixture([], [], {"kills": 22})
    ok = diff_table("t", exact_base, _fixture([], [], {"kills": 22}),
                    policy=exact_policy)
    bad = diff_table("t", exact_base, _fixture([], [], {"kills": 21}),
                     policy=exact_policy)
    if ok or not bad:
        failures.append(f"exact metric: ok={ok!r} bad={bad!r}")

    # End-to-end through run_diff: the committed-baseline happy path and
    # a seeded regression must produce the right exit codes.
    with tempfile.TemporaryDirectory() as tmp:
        base_dir = os.path.join(tmp, "base")
        fresh_dir = os.path.join(tmp, "fresh")
        os.mkdir(base_dir)
        os.mkdir(fresh_dir)
        doc = _fixture([row], [shape_ok], {})
        for d in (base_dir, fresh_dir):
            with open(os.path.join(d, "BENCH_tX.json"), "w",
                      encoding="utf-8") as f:
                json.dump(doc, f)
        if run_diff(base_dir, fresh_dir, None) != 0:
            failures.append("run_diff: clean compare exited nonzero")
        bad_doc = json.loads(json.dumps(doc))
        bad_doc["shapes"][0]["reproduced"] = False
        with open(os.path.join(fresh_dir, "BENCH_tX.json"), "w",
                  encoding="utf-8") as f:
            json.dump(bad_doc, f)
        if run_diff(base_dir, fresh_dir, None) == 0:
            failures.append("run_diff: seeded regression exited zero")

    if failures:
        for f in failures:
            print(f"bench_diff: SELF-TEST FAIL: {f}", file=sys.stderr)
        return 1
    print("bench_diff: self-test OK")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baselines", default="bench/baselines",
                        help="directory of committed BENCH_*.json")
    parser.add_argument("--fresh", default=".",
                        help="directory holding the fresh BENCH_*.json")
    parser.add_argument("--table", action="append", default=[],
                        metavar="ID",
                        help="only compare this table id; repeatable")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in fixtures and exit")
    opts = parser.parse_args()
    if opts.self_test:
        sys.exit(self_test())
    sys.exit(run_diff(opts.baselines, opts.fresh, set(opts.table)))


if __name__ == "__main__":
    main()
