"""In-process CLI benchmark for cmshift.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --write-golden

Without `--workload` it runs every workload in turn, each for `--seconds`.

A closed loop with one client: each pass starts a fresh interpreter
(`worker.py`), so lazy tables and caches start cold as they do for a CLI
user, and runs every task of the workload once, in order.  Passes repeat
until `--seconds` have gone by; each metric is the median over passes.

With `--trace 0` the result carries the end-to-end metrics.  With
`--trace 1` passes alternate untraced and traced, and the result carries
the per-layer metrics of the traced passes plus the tracing overhead;
the spans of the last traced pass go to `perfbench/.work/spans-*.json`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A task fails when it
raises, exits with another code than the README contract gives, or
writes output that fails its checks; `correct` is false when any task
that finished wrote wrong output or returned a wrong exit code.
`--write-golden` records the output digests of every workload at the
default seed in `perfbench/golden/`.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
sys.path.insert(0, str(HERE))

from tracer import LAYERS  # noqa: E402
from worker import REFERENCE_NOMINAL_S  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

RUN_LIMIT_S = 170  # no run outlives this, whatever a pass does
TAIL_BEYOND = 10  # the tail percentile keeps at least this many tasks above it

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "task_p50_ms": "ms",
                    "task_tail_ms": "ms", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.calls": "count" for layer in LAYERS},
    "exactval.add_calls": "count", "exactval.add_s": "s", "exactval.log_terms_max": "count",
    "exactval.sign_calls": "count", "exactval.sign_s": "s", "exactval.sign_refinements": "count",
    "exactval.eval_interval_calls": "count", "exactval.eval_interval_s": "s",
    "suspension.birkhoff_calls": "count", "suspension.flow_mass_calls": "count",
    "measures.canonical_tested": "count", "measures.canonical_yielded": "count",
    "measures.canonical_yield_ratio": "ratio", "measures.cylinder_evals": "count",
    "shifts.oracle_calls": "count", "shifts.rows_scanned": "count",
    "shifts.truncated_rows": "count", "asymptotics.trace_cells": "count",
    "asymptotics.terms_generated": "count", "asymptotics.searches_exhausted": "count",
    "cli.bytes_written": "bytes", "trace.wall_s": "s", "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


def run_worker(workload: str, seed: int, traced: bool, spans: Path | None,
               timeout: float = RUN_LIMIT_S) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--work", str(WORK)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, timeout))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_rank(n: int) -> int:
    """Nearest rank of the highest percentile of n values that still has
    TAIL_BEYOND values above it (the minimum for short lists)."""
    return max(1, n - TAIL_BEYOND)


def tail(latencies: list[float]) -> float:
    return sorted(latencies)[tail_rank(len(latencies)) - 1]


def outputs_digest(p: dict) -> str:
    body = json.dumps([[t["id"], t["exit"], t["files"]] for t in p["tasks"]], sort_keys=True)
    return hashlib.sha256(body.encode()).hexdigest()


def scaled(p: dict) -> tuple[float, list[float]]:
    """Set-up time and task latencies of one pass at nominal machine speed.

    Each timed region is scaled by REFERENCE_NOMINAL_S over the mean of
    the two reference-kernel times that bracket it.
    """
    ref = p["reference_s"]  # before set-up, then after set-up and after each task
    speed = [REFERENCE_NOMINAL_S / ((a + b) / 2) for a, b in zip(ref, ref[1:])]
    return speed[0] * p["setup_s"], [f * x for f, x in zip(speed[1:], p["latencies_s"])]


def end_to_end(passes: list[dict], normalized: bool = True) -> dict[str, float]:
    """Medians over passes of each pass's figures."""
    med = statistics.median
    runs = [scaled(p) if normalized else (p["setup_s"], p["latencies_s"]) for p in passes]
    return {
        "setup_s": med(setup for setup, _ in runs),
        "wall_s": med(sum(lat) for _, lat in runs),
        "task_p50_ms": 1000 * med(med(lat) for _, lat in runs),
        "task_tail_ms": 1000 * med(tail(lat) for _, lat in runs),
        "peak_rss_mb": med(p["peak_rss_mb"] for p in passes),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    med = statistics.median
    out = {name: med(p["layers"][name] for p in traced)
           for name in PER_LAYER_UNITS if name in traced[0]["layers"]}
    out["trace.unattributed_s"] = med(
        p["layers"]["trace.wall_s"] - sum(p["layers"][f"{layer}.self_s"] for layer in LAYERS)
        for p in traced)
    out["trace.overhead_s"] = (med(sum(scaled(p)[1]) for p in traced)
                               - med(sum(scaled(p)[1]) for p in untraced))
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Passes until `seconds` have gone by; traced and untraced alternate."""
    spans = WORK / f"spans-{workload}-seed{seed}.json" if trace else None
    passes: list[dict] = []
    start = perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        left = RUN_LIMIT_S - (perf_counter() - start)
        passes.append(run_worker(workload, seed, traced, spans, left))
        if perf_counter() - start >= seconds and len(passes) >= 1 + trace:
            return passes


def report(workload: str, seed: int, trace: bool, passes: list[dict]) -> dict:
    untraced = [p for p in passes if "layers" not in p]
    traced = [p for p in passes if "layers" in p]
    attempted = sum(len(p["tasks"]) for p in passes)
    bad = [(i, t) for i, p in enumerate(passes) for t in p["tasks"] if t["error"] or t["problems"]]
    incorrect = [t for _, t in bad if t["problems"]]
    digests = {outputs_digest(p) for p in passes}
    correct = not incorrect and len(digests) == 1

    if trace:
        values, units = per_layer(traced, untraced), PER_LAYER_UNITS
    else:
        values, units = end_to_end(untraced), END_TO_END_UNITS
    n_tasks = len(passes[0]["tasks"])
    q = 100 * tail_rank(n_tasks) / n_tasks
    print(f"workload {workload}, seed {seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced passes of {n_tasks} tasks, one task in flight")
    raw = {} if trace else end_to_end(untraced, normalized=False)
    for name, value in values.items():
        extra = f"   (unscaled {raw[name]:.6g})" if name in raw else ""
        print(f"  {name:34s} {value:14.6g} {units[name]}{extra}")
    print(f"  {'ops_total':34s} {attempted:14d} count")
    print(f"  {'ops_failed':34s} {len(bad):14d} count")
    print(f"  task_tail_ms is p{q:.1f} of {n_tasks} tasks per pass "
          f"({TAIL_BEYOND} tasks beyond it)")
    print(f"  outputs digest {' '.join(sorted(digests))}")
    for i, t in bad[: 2 * n_tasks]:
        print(f"  pass {i} {t['id']} failed: exit {t['exit']} {t['error'] or ''} "
              f"{'; '.join(t['problems'])}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": len(bad),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def write_golden() -> None:
    (HERE / "golden").mkdir(exist_ok=True)
    for workload in WORKLOADS:
        p = run_worker(workload, DEFAULT_SEED, False, None)
        golden = {t["id"]: t["files"] for t in p["tasks"]}
        path = HERE / "golden" / f"{workload}.json"
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print(f"{path.relative_to(ROOT)}: {len(golden)} tasks")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="cmshift in-process CLI benchmark")
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-golden", action="store_true")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "cmshift" / "cli.py").is_file():
        print(f"no cmshift sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    compileall.compile_dir(ROOT / "src", quiet=1)  # bytecode is a user's steady state
    if args.write_golden:
        write_golden()
        return 0
    for workload in [args.workload] if args.workload else WORKLOADS:
        try:
            passes = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"{workload}: a pass failed: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(report(workload, args.seed, bool(args.trace), passes)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
