"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

SEEDS = (0, 1, 7, 123)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_argv_lists(workload):
    for seed in SEEDS:
        assert workloads.build(workload, seed) == workloads.build(workload, seed)
    argvs = {tuple(t.argv for t in workloads.build(workload, s)[0]) for s in SEEDS}
    assert len(argvs) == len(SEEDS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_task_list_shape_does_not_depend_on_the_seed(workload):
    shapes = {tuple((t.id, t.expect) for t in workloads.build(workload, s)[0]) for s in SEEDS}
    assert len(shapes) == 1


def _combos(task):
    argv = list(task.argv)
    for flag in ("--combo", "--combo-a", "--combo-b", "--target"):
        if flag in argv:
            yield argv[argv.index(flag) + 1]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_cycles_are_admissible_primitive_orbits(workload):
    from cmshift.measures import parse_combo_text
    from cmshift.shifts import load_shift_text, parse_shift_arg

    for seed in SEEDS:
        tasks, files = workloads.build(workload, seed)
        for task in tasks:
            argv = list(task.argv)
            if task.expect != 0 or not list(_combos(task)):
                continue
            if "--shift-file" in argv:
                spec = load_shift_text(files[argv[argv.index("--shift-file") + 1]])
            else:
                spec = parse_shift_arg(argv[argv.index("--shift") + 1] if "--shift" in argv else "full")
            for text in _combos(task):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")  # a non-primitive cycle warns
                    combo = parse_combo_text(spec, text)
                assert 0 < combo.mass <= 1, (task.id, text)


def test_generator_does_not_import_the_library():
    code = ("import sys, workloads\n"
            "for w in workloads.WORKLOADS: workloads.build(w, 3)\n"
            "assert not [m for m in sys.modules if m.startswith('cmshift')]\n")
    subprocess.run([sys.executable, "-c", code], cwd=HERE, check=True)


@pytest.mark.parametrize("shift,n,want", [
    ("finite_full:3", 4, 27), ("renewal", 6, 31), ("star", 3, 5 + 4), ("full", 2, 5),
])
def test_direct_loop_counts(shift, n, want):
    # at cap 5: renewal loops are the compositions of n with parts <= 5;
    # star loops of length 3 are (1, 1, j) for j <= 5 and (1, k, 1) for 2 <= k <= 5
    assert checks.loop_count(shift, 1, n, 5) == want


def test_traced_pass_keeps_outputs_and_accounts_for_its_wall_time(tmp_path):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", "readme-verbs",
           "--seed", str(workloads.DEFAULT_SEED), "--trace", "1", "--work", str(tmp_path),
           "--spans", str(tmp_path / "spans.json")]
    result = json.loads(subprocess.run(cmd, check=True, capture_output=True, text=True).stdout)
    problems = {t["id"]: t["problems"] for t in result["tasks"] if t["problems"]}
    assert problems == {}  # golden digests hold with the tracer installed
    layers = result["layers"]
    self_total = sum(layers[f"{layer}.self_s"] for layer in ("cli", "suspension", "asymptotics",
                                                              "measures", "shifts", "exactval"))
    assert abs(layers["trace.wall_s"] - self_total) < 0.02 * layers["trace.wall_s"]
    assert layers["cli.calls"] == len(result["tasks"])
    assert max(layers[f"{x}.self_s"] for x in ("suspension", "asymptotics", "measures",
                                               "shifts", "exactval")) < layers["cli.self_s"]
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert spans["spans"] and spans["aggregates"]
    assert [p.name for p in tmp_path.iterdir()] == ["spans.json"]  # pass directory removed
