"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 --work DIR [--spans FILE]

Set-up (timed as `setup_s`) is importing `cmshift.cli` and building the
seeded task list with its input files.  Then every task runs once, in
order, through `cmshift.cli.main(argv)` in this process: one client, one
task in flight.  Output checks, digests and removing the pass's
directory all happen after the timed loop.  The result is one JSON line
on standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import LayerTracer  # noqa: E402


REFERENCE_NOMINAL_S = 0.0022  # reference_kernel's median on a quiet 2-core x86-64 VM


def reference_kernel() -> float:
    """Time a fixed stdlib-only load (Fractions, big-int gcds, dicts,
    string sorting) of about 2 ms.

    It runs before set-up, after set-up and after every task, so its
    times track how fast the machine runs Python around each timed
    region.  It uses nothing from `cmshift`: no change to the program
    can move it.
    """
    t = perf_counter()
    acc = Fraction(0)
    table: dict[tuple[int, int], int] = {}
    for i in range(1, 300):
        acc += Fraction(i % 7 + 1, i)
        key = (i % 13, i % 17)
        table[key] = table.get(key, 0) + math.gcd(i * 2**61 + 1, 3**40 + i)
    sorted(",".join(map(str, (i, i * i % 97, i % 5))) for i in range(400))
    return perf_counter() - t


def _read_outputs(out_dir: Path) -> dict[str, bytes]:
    if not out_dir.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()}


def run_pass(workload: str, seed: int, trace: bool, work: Path, spans: Path | None) -> dict:
    reference = [reference_kernel()]
    t0 = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import cmshift.cli

    tasks, files = workloads.build(workload, seed)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work))
    for rel, text in files.items():
        path = run_dir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    setup_s = perf_counter() - t0
    reference.append(reference_kernel())

    os.chdir(run_dir)
    tracer = LayerTracer() if trace else None
    if tracer:
        tracer.install()
    main = cmshift.cli.main  # looked up after install, so the traced binding
    sink = io.StringIO()
    codes, errors, latencies = [], {}, []
    for task in tasks:
        if tracer:
            tracer.task = task.id
        argv = task.full_argv()
        t = perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception as exc:  # noqa: BLE001 - a raising task is a failed op
            code = None
            errors[task.id] = f"{type(exc).__name__}: {exc}"
        latencies.append(perf_counter() - t)
        reference.append(reference_kernel())
        codes.append(code)
        sink.seek(0)
        sink.truncate()
    wall_s = sum(latencies)

    golden = None
    if seed == workloads.DEFAULT_SEED:
        golden_file = HERE / "golden" / f"{workload}.json"
        golden = json.loads(golden_file.read_text()) if golden_file.exists() else {}
    results, bytes_written = [], 0
    for task, code in zip(tasks, codes):
        out = _read_outputs(run_dir / task.out_dir)
        bytes_written += sum(len(b) for b in out.values())
        digest = checks.digests(out)
        problems = []  # a task that raised is a failed op with no output to judge
        if code is not None:
            problems = checks.check_task(task, code, out)
            if golden is not None and golden.get(task.id) != digest:
                problems.append("output bytes differ from the golden digests")
        results.append({"id": task.id, "exit": code, "files": digest,
                        "error": errors.get(task.id), "problems": problems})
    os.chdir(ROOT)
    shutil.rmtree(run_dir)

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "latencies_s": latencies,
        "reference_s": reference,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "tasks": results,
    }
    if tracer:
        layer = tracer.metrics()
        layer["cli.bytes_written"] = bytes_written
        layer["trace.wall_s"] = wall_s
        result["layers"] = layer
        if spans is not None:
            spans.write_text(json.dumps(tracer.dump()))
    return result


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--spans", type=Path)
    args = p.parse_args(argv)
    result = run_pass(args.workload, args.seed, bool(args.trace), args.work.resolve(),
                      args.spans.resolve() if args.spans else None)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
