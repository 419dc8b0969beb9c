"""Output checks for one task, independent of the library.

Every task is checked on every seed: its exit code against the README
contract, every JSON and CSV file it wrote for well-formedness, and,
where the generator recorded what to expect, the values themselves,
recomputed here from the known shift structure.  At the default seed
the SHA-256 digest of every output file must also match the golden
file, so a change that alters a single byte shows.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from fractions import Fraction

from workloads import known_row


def digests(files: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(files.items())}


def loop_count(shift: str, a: int, n: int, cap: int) -> int:
    """Words (a, x2, ..., xn) with every edge allowed and xn -> a allowed."""
    vec = {a: 1}
    for _ in range(n - 1):
        nxt: dict[int, int] = {}
        for s, c in vec.items():
            for j in known_row(shift, s, cap):
                nxt[j] = nxt.get(j, 0) + c
        vec = nxt
    return sum(c for s, c in vec.items() if a in known_row(shift, s, max(cap, a)))


def _cyclic_occurrences(cycle: list[int], word: list[int]) -> int:
    ext = cycle * ((len(word) - 1) // len(cycle) + 2)
    return sum(ext[j : j + len(word)] == word for j in range(len(cycle)))


def _value_checks(check: dict, argv: list[str], reports: dict[str, dict]) -> list[str]:
    problems = []

    def arg(flag: str) -> str:
        return argv[argv.index(flag) + 1]

    if "integral" in check:
        integral = reports["flow_integral.json"]["integral"]
        want = sum(
            Fraction(w) / len(cyc) * sum(math.log1p(s) for s in cyc) for w, cyc in check["integral"]
        )
        bases = [int(b) for b in integral["logs"]]
        if any(math.gcd(x, y) > 1 for i, x in enumerate(bases) for y in bases[i + 1 :]):
            problems.append("integral log bases are not pairwise coprime")
        if Fraction(integral["rational"]) != 0 or not math.isclose(
            integral["display"], float(want), rel_tol=1e-9
        ):
            problems.append(f"roof integral {integral['display']} != {float(want)}")
    if "eval" in check:
        combo, word = check["eval"]
        want = sum(Fraction(w) * Fraction(_cyclic_occurrences(c, word), len(c)) for w, c in combo)
        got = reports["measure_eval.json"]
        if Fraction(got["numerator"], got["denominator"]) != want:
            problems.append(f"measure eval {got['numerator']}/{got['denominator']} != {want}")
    if "metric_d" in check:
        got = reports["metric_d.json"]
        N = int(arg("--N"))
        if Fraction(got["upper"]) - Fraction(got["lower"]) != Fraction(1, 2**N):
            problems.append("metric d bracket is not 2^-N wide")
        if len(got["cylinders"]) != N:
            problems.append("metric d lists the wrong number of cylinders")
        if check["metric_d"] is not None and got["cylinders"][-1] != "-".join(["1"] * N):
            problems.append("finite_full:1 canonical cylinders are not the words 1^n")
    if check.get("invariance") and reports["measure_invariance.json"]["max_defect"] != "0":
        problems.append("periodic measures reported a nonzero invariance defect")
    if "entropy" in check:
        shift, hi = check["entropy"]
        rows = reports["entropy.json"]["entropy"]["rows"]
        want = [loop_count(shift, 1, n, n + 1) for n in range(1, hi + 1)]
        if [r["loop_count"] for r in rows] != want:
            problems.append("entropy loop counts differ from the direct count")
    if "enum" in check:
        shift, n, cap = check["enum"]
        symbol_cap = int(arg("--symbol-cap")) if "--symbol-cap" in argv else 100
        want = min(cap, loop_count(shift, 1, n, symbol_cap))
        if reports["orbit_enum.json"]["count"] != want:
            problems.append(f"orbit enum count {reports['orbit_enum.json']['count']} != {want}")
    return problems


def check_task(task, code, files: dict[str, bytes]) -> list[str]:
    """Problems with one finished task's exit code and output files."""
    problems = []
    if code != task.expect:
        problems.append(f"exit {code}, expected {task.expect}")
    reports = {}
    for name, data in files.items():
        try:
            if name.endswith(".json"):
                reports[name] = report = json.loads(data)
                if "version" not in report or "config" not in report:
                    problems.append(f"{name} lacks the version or config echo")
            elif name.endswith(".csv"):
                rows = list(csv.reader(io.StringIO(data.decode())))
                if len({len(r) for r in rows}) > 1:
                    problems.append(f"{name} has ragged rows")
        except (ValueError, UnicodeDecodeError) as exc:
            problems.append(f"{name} does not parse: {exc}")
    if code == 0 and not problems:
        try:
            problems += _value_checks(task.check, list(task.argv), reports)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            problems.append(f"report shape: {exc!r}")
    return problems
