import argparse
import csv
import io
import json
import math
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmshift import cli, measures, suspension
from cmshift.asymptotics import Classification
from cmshift.cli import EXIT_CONFIG, EXIT_EXHAUSTED, EXIT_OK, main
from cmshift.exactval import Interval, LogLinear, fraction_str
from cmshift.measures import combo_of_cylinder, metric_d, parse_combo_text
from cmshift.shifts import parse_shift_arg
from cmshift.suspension import FlowLimitReport, flow_metric_rho, kac_lift, log1p_roof


def run_cli(tmp_path, *argv):
    out = tmp_path / "out"
    code = main([*argv, "--out-dir", str(out)])
    return code, out


def read_json(out, name):
    return json.loads((out / f"{name}.json").read_text())


def read_csv(out, name):
    with (out / f"{name}.csv").open() as fh:
        return list(csv.reader(fh))


class TestVerbs:
    def test_shift_info_and_check(self, tmp_path):
        code, out = run_cli(tmp_path, "shift", "info", "--shift", "star")
        assert code == EXIT_OK
        payload = read_json(out, "shift_info")
        assert payload["rows"]["5"]["row"] == [1]
        code, out = run_cli(tmp_path, "shift", "check", "--shift", "renewal")
        assert code == EXIT_OK
        assert read_json(out, "shift_check")["check"]["ok_up_to_truncation"]

    def test_orbit_enum_and_connect(self, tmp_path):
        code, out = run_cli(
            tmp_path, "orbit", "enum", "--shift", "finite_full:2", "--a", "1", "--n", "2"
        )
        assert code == EXIT_OK
        rows = read_csv(out, "orbit_enum")
        assert rows[1:] == [["1", "1-1"], ["2", "1-2"]]
        code, out = run_cli(
            tmp_path, "orbit", "connect", "--shift", "star", "--a", "4", "--b", "9"
        )
        assert code == EXIT_OK
        assert read_json(out, "orbit_connect")["word"] == [4, 1, 9]

    def test_connect_absent_is_exhausted(self, tmp_path):
        code, out = run_cli(
            tmp_path, "orbit", "connect", "--shift", "star",
            "--a", "4", "--b", "9", "--max-len", "2",
        )
        assert code == EXIT_EXHAUSTED

    def test_measure_eval_and_invariance(self, tmp_path):
        code, out = run_cli(
            tmp_path, "measure", "eval",
            "--combo", "1/2:(1);1/2:(1,2)", "--cylinder", "1",
        )
        assert code == EXIT_OK
        payload = read_json(out, "measure_eval")
        assert (payload["numerator"], payload["denominator"]) == (3, 4)
        code, out = run_cli(
            tmp_path, "measure", "invariance", "--combo", "1/3:(1,2,3);1/3:(2)",
        )
        assert code == EXIT_OK
        assert read_json(out, "measure_invariance")["max_defect"] == "0"

    def test_metric_verbs(self, tmp_path):
        code, out = run_cli(
            tmp_path, "metric", "d", "--combo-a", "1:(1)", "--combo-b", "1:(2)",
            "--N", "1",
        )
        assert code == EXIT_OK
        payload = read_json(out, "metric_d")
        assert payload["lower"] == "1/2" and payload["upper"] == "1"
        code, out = run_cli(
            tmp_path, "metric", "rho", "--combo-a", "1:(1)", "--combo-b", "1:(1)",
            "--N", "4", "--roof", "log1p",
        )
        assert code == EXIT_OK
        assert read_json(out, "metric_rho")["lower"] == "0"

    def test_nonf_demo_defective(self, tmp_path):
        code, out = run_cli(
            tmp_path, "nonf-demo", "--shift", "full", "--i", "1", "--q", "2",
            "--count", "50",
        )
        assert code == EXIT_OK
        rows = read_csv(out, "nonf_demo")
        assert len(rows) == 51
        assert all(r[2] == "1" and r[3] == "2" for r in rows[1:])
        payload = read_json(out, "nonf_demo")
        assert payload["classification"]["kind"] == "defective"
        assert payload["classification"]["defect_sites"] == [
            {"word": [1], "defect": "1/2"}
        ]

    def test_orbit_connect_at_a_huge_symbol_cap(self, tmp_path):
        # rows are read only up to the target, so the cap costs nothing
        base = ["orbit", "connect", "--shift", "star", "--a", "4", "--b", "9"]
        reports = []
        for name, extra in (("default", []), ("huge", ["--symbol-cap", "100000000"])):
            code, out = run_cli(tmp_path / name, *base, *extra)
            assert code == EXIT_OK
            payload = read_json(out, "orbit_connect")
            reports.append((payload.pop("config"), payload))
        (default_config, default), (huge_config, huge) = reports
        assert huge == default and default["word"] == [4, 1, 9]
        assert huge_config == {**default_config, "symbol_cap": 100_000_000}

    def test_entropy_approaches_log_m(self, tmp_path):
        code, out = run_cli(
            tmp_path, "entropy", "--shift", "finite_full:3", "--a", "1", "--n", "1..12",
        )
        assert code == EXIT_OK
        rows = read_csv(out, "entropy")
        assert rows[-1][1] == str(3**11)

    def test_escape_and_obstruction(self, tmp_path):
        code, out = run_cli(
            tmp_path, "escape", "--shift", "full", "--k", "3", "--target-len", "12",
        )
        assert code == EXIT_OK
        payload = read_json(out, "escape")
        assert payload["found"]
        code, out = run_cli(
            tmp_path, "escape", "--shift", "star", "--k", "1", "--target-len", "60",
        )
        assert code == EXIT_EXHAUSTED
        assert not read_json(out, "escape")["found"]

    def test_flow_verbs(self, tmp_path):
        code, out = run_cli(
            tmp_path, "flow", "integral", "--roof", "log1p", "--combo", "1:(1,2)",
        )
        assert code == EXIT_OK
        payload = read_json(out, "flow_integral")
        assert payload["integral"]["logs"] == {"2": "1/2", "3": "1/2"}
        code, out = run_cli(
            tmp_path, "flow", "limit", "--shift", "full", "--seq", "point-masses",
            "--n-max", "30",
        )
        assert code == EXIT_OK
        assert read_json(out, "flow_limit")["flow_limit"]["verdict"] == "zero flow limit"
        code, out = run_cli(tmp_path, "flow", "classr", "--roof", "const:3")
        assert code == EXIT_OK
        verdict = read_json(out, "flow_classr")["class_r"]["tail_verdict"]
        assert verdict == "fails-constant-at-horizon"

    def test_flow_integral_display_is_a_left_to_right_float_sum(self, tmp_path):
        # builtin sum() of floats is compensated from Python 3.12 on; the
        # display value must not depend on the interpreter version
        code, out = run_cli(
            tmp_path, "flow", "integral", "--roof", "log1p",
            "--combo", "1:(3,17,250,9999,4,77,1000,12,5,6001)",
        )
        assert code == EXIT_OK
        assert read_json(out, "flow_integral")["integral"]["display"] == 4.494391780125285

    @pytest.mark.parametrize("argv, name, display", [
        (["flow", "integral", "--combo", "1:(1,2)"], "flow_integral",
         lambda r: r["integral"]["display"]),
        (["flow", "limit", "--n-max", "5", "--symbol-cap", "10"], "flow_limit",
         lambda r: r["flow_limit"]["integral_trace_display"][-1]),
        (["flow", "classr", "--horizon", "4"], "flow_classr",
         lambda r: r["class_r"]["m_rows"][0]["display"]),
        (["densusp", "--shift", "full", "--target", "1/2:(1);1/2:(2)", "--eps", "1/10"],
         "densusp", lambda r: r["result"]["target_integral_display"]),
    ], ids=["flow-integral", "flow-limit", "flow-classr", "densusp"])
    def test_roof_beyond_float_range_displays_infinity(self, tmp_path, argv, name, display):
        code, out = run_cli(tmp_path, *argv, "--roof", "const:1e400")
        assert code == EXIT_OK
        assert display(read_json(out, name)) == math.inf
        assert "Infinity" in (out / f"{name}.json").read_text()

    def test_densusp_writes_orbit_and_certificates(self, tmp_path):
        code, out = run_cli(
            tmp_path, "densusp", "--shift", "full", "--target", "1/2:(1);1/2:(2)",
            "--roof", "log1p", "--eps", "1e-3",
        )
        assert code == EXIT_OK
        payload = read_json(out, "densusp")["result"]
        orbit = [int(t) for t in (out / "densusp_orbit.txt").read_text().split()]
        assert orbit == payload["cycle"]
        num, den = payload["metric_upper"].split("/")
        assert int(den) >= 1000 * int(num)


class TestDriver:
    def test_outputs_are_byte_identical(self, tmp_path):
        argv = [
            "nonf-demo", "--shift", "full", "--i", "1", "--q", "2", "--count", "20",
        ]
        _, out1 = run_cli(tmp_path / "a", *argv)
        _, out2 = run_cli(tmp_path / "b", *argv)
        for name in ("nonf_demo.json", "nonf_demo.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_reports_embed_config_and_version(self, tmp_path):
        code, out = run_cli(tmp_path, "entropy", "--shift", "full", "--a", "1", "--n", "1..3")
        payload = read_json(out, "entropy")
        assert payload["version"]
        assert payload["config"]["shift"] == "full"
        assert payload["config"]["n"] == "1..3"

    def test_run_config_file(self, tmp_path):
        config = tmp_path / "cfg.json"
        out = tmp_path / "out"
        config.write_text(
            json.dumps(
                {
                    "argv": [
                        "entropy", "--shift", "finite_full:2", "--a", "1",
                        "--n", "1..4", "--out-dir", str(out),
                    ]
                }
            )
        )
        assert main(["run", str(config)]) == EXIT_OK
        assert (out / "entropy.csv").exists()

    def test_bad_config_file(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text("{not json")
        assert main(["run", str(config)]) == EXIT_CONFIG

    @pytest.mark.parametrize("argv", [
        ["shift", "info", "--shift-file"],
        ["flow", "classr", "--roof-file"],
    ])
    def test_missing_input_file_is_config_error(self, tmp_path, capsys, argv):
        missing = tmp_path / "no_such_file.txt"
        code, out = run_cli(tmp_path, *argv, str(missing))
        assert code == EXIT_CONFIG
        assert str(missing) in capsys.readouterr().err
        assert not out.exists()

    def test_metric_beyond_a_finite_language_is_config_error(self, tmp_path, capsys):
        shift = tmp_path / "s.txt"
        shift.write_text("1: 2\n2:\n")
        code, out = run_cli(
            tmp_path, "metric", "d", "--shift-file", str(shift),
            "--combo-a", "", "--combo-b", "", "--N", "4",
        )
        assert code == EXIT_CONFIG
        assert "only 3 admissible cylinders" in capsys.readouterr().err
        code, out = run_cli(
            tmp_path, "metric", "d", "--shift-file", str(shift),
            "--combo-a", "", "--combo-b", "", "--N", "3",
        )
        assert code == EXIT_OK
        assert read_json(out, "metric_d")["cylinders"] == ["1", "2", "1-2"]

    @pytest.mark.parametrize("verb", ["d", "rho"])
    @pytest.mark.parametrize("N", ["0", "-1"])
    def test_nonpositive_N_is_config_error(self, tmp_path, capsys, verb, N):
        code, out = run_cli(
            tmp_path, "metric", verb, "--combo-a", "1:(1)", "--combo-b", "1:(2)", "--N", N,
        )
        assert code == EXIT_CONFIG
        assert "N must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["metric", "d", "--combo-a", "1:(1)", "--combo-b", "1:(1,2)", "--N", "30"],
        ["metric", "rho", "--combo-a", "1:(1)", "--combo-b", "1:(1,2)", "--N", "30"],
        ["densusp", "--shift", "full", "--target", "1/2:(1);1/2:(2)", "--eps", "1/10"],
        ["densusp", "--shift", "full", "--target", "1:(1,2)", "--eps", "1/10"],
    ], ids=["metric-d", "metric-rho", "densusp", "densusp-one-cycle"])
    def test_one_enumeration_per_run(self, tmp_path, monkeypatch, argv):
        # no enumeration outlives its call, so a verb that read its
        # cylinders twice would pay for the enumeration twice
        built = []
        inner = measures.canonical_cylinder_iter

        def counted(spec):
            built.append(spec)
            return inner(spec)

        monkeypatch.setattr(measures, "canonical_cylinder_iter", counted)
        code, _ = run_cli(tmp_path, *argv)
        assert code == EXIT_OK
        assert len(built) == 1

    @pytest.mark.parametrize("verb", ["trace", "classify"])
    @pytest.mark.parametrize("rows", ["1: 1\n", "1: 1\n2: 2\n"])
    def test_inadmissible_sequence_term_is_config_error(self, tmp_path, capsys, verb, rows):
        # the first pair-loop term (1, 2) is no cycle of these shifts
        shift = tmp_path / "s.txt"
        shift.write_text(rows)
        code, _ = run_cli(
            tmp_path, "converge", verb, "--shift-file", str(shift),
            "--seq", "pair-loops", "--n-max", "4",
        )
        assert code == EXIT_CONFIG
        assert "sequence generator failed at index 1" in capsys.readouterr().err

    def test_invalid_rational_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main([
                "densusp", "--target", "1/2:(1);1/2:(2)", "--eps", "potato",
                "--out-dir", str(tmp_path),
            ])
        assert err.value.code == EXIT_CONFIG

    def test_exact_columns_with_display_flagged(self, tmp_path):
        _, out = run_cli(
            tmp_path, "nonf-demo", "--shift", "full", "--i", "1", "--q", "2",
            "--count", "5",
        )
        header = read_csv(out, "nonf_demo")[0]
        assert header == ["n", "cylinder", "numerator", "denominator", "value_display"]


def dense_trace_rows(report) -> list[list]:
    """Oracle: every row of the words x n trace, built in memory."""
    rows = []
    for word in sorted(report.traces):
        sparse = report.traces[word]
        for n in report.sample_indices:
            v = sparse.get(n, Fraction(0))
            rows.append([n, cli._word_str(word), v.numerator, v.denominator, float(v)])
    return rows


def csv_bytes(header, rows) -> bytes:
    """Oracle: the bytes `csv.writer` writes for a header and rows."""
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(header)
    writer.writerows(rows)
    return expected.getvalue().encode()


def recording(monkeypatch, name: str) -> list:
    """Wrap `cli.<name>` so that every value it returns is kept."""
    results = []
    inner = getattr(cli, name)

    def wrapper(*a, **kw):
        results.append(inner(*a, **kw))
        return results[-1]

    monkeypatch.setattr(cli, name, wrapper)
    return results


TRACE_HEADER = ["n", "cylinder", "numerator", "denominator", "value_display"]


class TestStreamedTrace:
    @pytest.mark.parametrize("argv", [
        ["--shift", "full", "--seq", "pair-loops", "--n-max", "200", "--symbol-cap", "200"],
        ["--shift", "full", "--seq", "point-masses", "--n-max", "6", "--symbol-cap", "8"],
    ])
    def test_csv_matches_dense_oracle(self, tmp_path, monkeypatch, argv):
        reports = recording(monkeypatch, "cylinder_limit")
        code, out = run_cli(tmp_path, "converge", "trace", *argv)
        assert code == EXIT_OK
        (report,) = reports
        assert any(len(t) < len(report.sample_indices) for t in report.traces.values())
        expected = csv_bytes(TRACE_HEADER, dense_trace_rows(report))
        assert (out / "converge_trace.csv").read_bytes() == expected

    @given(
        n_max=st.integers(1, 12),
        traces=st.dictionaries(
            st.lists(st.integers(1, 10**6), min_size=1, max_size=3).map(tuple),
            st.dictionaries(
                st.integers(1, 12),
                st.fractions(min_value=0, max_value=1, max_denominator=10**30),
            ),
            max_size=4,
        ),
    )
    def test_blocks_match_dense_oracle(self, n_max, traces):
        # stored samples first, last, adjacent, everywhere or nowhere
        report = argparse.Namespace(
            sample_indices=tuple(range(1, n_max + 1)),
            traces={w: {n: v for n, v in t.items() if n <= n_max} for w, t in traces.items()},
        )
        expected = csv_bytes(TRACE_HEADER, dense_trace_rows(report)).decode()
        assert "".join(cli._trace_rows(report)) == expected.split("\r\n", 1)[1]


class TestCsvBytes:
    """Every CSV verb writes the bytes `csv.writer` would write."""

    @pytest.mark.parametrize("argv", [
        ["--shift", "finite_full:3", "--a", "1", "--n", "4"],
        ["--shift", "star", "--a", "1", "--n", "4", "--symbol-cap", "30"],
        ["--shift", "full", "--a", "2", "--n", "3", "--cap", "7"],
    ])
    def test_orbit_enum(self, tmp_path, monkeypatch, argv):
        results = recording(monkeypatch, "enumerate_loops")
        code, out = run_cli(tmp_path, "orbit", "enum", *argv)
        assert code == EXIT_OK
        ((loops, _),) = results
        rows = [[i + 1, "-".join(map(str, w))] for i, w in enumerate(loops)]
        expected = csv_bytes(["index", "word"], rows)
        assert (out / "orbit_enum.csv").read_bytes() == expected

    @pytest.mark.parametrize("argv", [
        ["--shift", "full", "--i", "1", "--q", "2", "--count", "20"],
        ["--shift", "full", "--i", "2", "--q", "3", "--count", "12", "--symbol-cap", "60"],
    ])
    def test_nonf_demo(self, tmp_path, monkeypatch, argv):
        results = recording(monkeypatch, "non_f_witness_sequence")
        code, out = run_cli(tmp_path, "nonf-demo", *argv)
        assert code == EXIT_OK
        (seq,) = results
        i, count = int(argv[argv.index("--i") + 1]), int(argv[argv.index("--count") + 1])
        rows = []
        for n in range(1, count + 1):
            v = combo_of_cylinder(seq.term(n), (i,))
            rows.append([n, str(i), v.numerator, v.denominator, float(v)])
        assert (out / "nonf_demo.csv").read_bytes() == csv_bytes(TRACE_HEADER, rows)

    @pytest.mark.parametrize("argv", [
        ["--shift", "finite_full:3", "--a", "1", "--n", "1..12"],
        # loops at 2 on the star have even length: odd rows log 0 = -inf
        ["--shift", "star", "--a", "2", "--n", "1..6", "--symbol-cap", "40"],
    ])
    def test_entropy(self, tmp_path, monkeypatch, argv):
        results = recording(monkeypatch, "gurevich_entropy_estimate")
        code, out = run_cli(tmp_path, "entropy", *argv)
        assert code == EXIT_OK
        (report,) = results
        rows = [[r.n, r.loop_count, r.estimate] for r in report.rows]
        assert any(r.estimate == float("-inf") for r in report.rows) == ("star" in argv)
        expected = csv_bytes(["n", "loop_count", "estimate_display"], rows)
        assert (out / "entropy.csv").read_bytes() == expected

    @pytest.mark.parametrize("argv", [
        ["--shift", "full", "--seq", "point-masses", "--n-max", "30"],
        ["--shift", "full", "--seq", "pair-loops", "--n-max", "12", "--roof", "log1p"],
    ])
    def test_flow_limit(self, tmp_path, monkeypatch, argv):
        results = recording(monkeypatch, "flow_limit_analyze")
        code, out = run_cli(tmp_path, "flow", "limit", *argv)
        assert code == EXIT_OK
        (report,) = results
        rows = [[n + 1, float(v)] for n, v in enumerate(report.integral_trace)]
        expected = csv_bytes(["n", "integral_display"], rows)
        assert (out / "flow_limit.csv").read_bytes() == expected


# report labels: cylinder words written as digits joined by "-"
LABELS = st.lists(st.integers(1, 10**12), min_size=1, max_size=5).map(
    lambda w: "-".join(map(str, w))
)
FIELDS = st.one_of(
    st.integers(),
    st.integers(-(10**300), 10**300),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, 1e16]),
    LABELS,
)


class TestCsvLine:
    @given(st.lists(FIELDS, min_size=1, max_size=6))
    def test_matches_csv_writer(self, row):
        expected = io.StringIO(newline="")
        csv.writer(expected).writerow(row)
        assert cli._csv_line(row) == expected.getvalue()

    def test_trace_write_streams(self, tmp_path, monkeypatch):
        # blocks are written one word at a time, never as one string
        reports = recording(monkeypatch, "cylinder_limit")
        argv = ["--shift", "full", "--seq", "pair-loops", "--n-max", "200", "--symbol-cap", "200"]
        code, out = run_cli(tmp_path, "converge", "trace", *argv)
        assert code == EXIT_OK
        size = (out / "converge_trace.csv").stat().st_size
        args = argparse.Namespace(out_dir=str(tmp_path / "again"))
        tracemalloc.start()
        try:
            cli._write_csv(args, "converge_trace", TRACE_HEADER, cli._trace_rows(reports[0]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size > 2_000_000 and peak < size // 4
        assert (tmp_path / "again" / "converge_trace.csv").stat().st_size == size


@pytest.fixture
def fresh_parser():
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


VERBS = [
    ["shift", "info", "--shift", "star"],
    ["orbit", "enum", "--shift", "finite_full:2", "--a", "1", "--n", "3"],
    ["measure", "invariance", "--combo", "1/3:(1,2,3);1/3:(2)"],
    ["metric", "d", "--combo-a", "1:(1)", "--combo-b", "1:(2)", "--N", "3"],
    ["converge", "classify", "--seq", "point-masses", "--n-max", "8"],
    ["entropy", "--shift", "finite_full:2", "--a", "1", "--n", "1..4"],
    ["flow", "classr", "--roof", "const:3"],
]


def outputs(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.usefixtures("fresh_parser")
class TestParserReuse:
    def test_verbs_match_a_fresh_parser(self, tmp_path, monkeypatch):
        shared = [run_cli(tmp_path / f"shared{i}", *argv) for i, argv in enumerate(VERBS)]
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        for i, argv in enumerate(VERBS):
            code, out = run_cli(tmp_path / f"fresh{i}", *argv)
            assert code == shared[i][0] == EXIT_OK
            assert outputs(out) == outputs(shared[i][1])

    def test_rejections_and_run_leak_no_state(self, tmp_path):
        good = ["measure", "invariance", "--combo", "1/3:(1,2,3);1/3:(2)"]
        code, first = run_cli(tmp_path / "first", *good)
        assert code == EXIT_OK
        with pytest.raises(SystemExit) as err:  # --combo is required
            main(["measure", "invariance", "--depth", "5", "--symbol-cap", "7"])
        assert err.value.code == EXIT_CONFIG
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"argv": [
            *good, "--depth", "4", "--out-dir", str(tmp_path / "run"),
        ]}))
        assert main(["run", str(config)]) == EXIT_OK
        assert read_json(tmp_path / "run", "measure_invariance")["config"]["depth"] == 4
        code, second = run_cli(tmp_path / "second", *good)
        assert code == EXIT_OK
        assert outputs(second) == outputs(first)
        echo = read_json(second, "measure_invariance")["config"]
        assert echo == {
            "combo": "1/3:(1,2,3);1/3:(2)", "command": "measure", "depth": 3,
            "seed": 0, "shift": "full", "sub": "invariance", "symbol_cap": 1000,
        }

    def test_parser_is_built_once(self, tmp_path, monkeypatch):
        built = []

        def spy():
            built.append(1)
            return build()

        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", spy)
        for i, argv in enumerate(VERBS * 2):
            assert run_cli(tmp_path / str(i), *argv)[0] == EXIT_OK
        assert len(built) == 1


json_floats = st.one_of(
    st.floats(allow_subnormal=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.2250738585072014e-308]),
)
json_texts = st.one_of(
    st.text(st.characters(exclude_categories=())),  # lone surrogates too
    st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\ud800", "\udfff\ud800", "\u2028", "é€😀"]),
)
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-10**300, 10**300), json_floats, json_texts,
)


def json_dicts(values):
    # the keys of one dict must sort together, as they do in stdlib json
    return st.one_of(
        st.dictionaries(json_texts, values, max_size=5),
        st.dictionaries(
            st.one_of(st.integers(-10**300, 10**300), json_floats, st.booleans()),
            values, max_size=5,
        ),
        st.dictionaries(st.none(), values, max_size=1),
    )


json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(st.one_of(st.integers(-10**300, 10**300), st.booleans())),
        json_dicts(children),
    ),
    max_leaves=40,
)


class TestReportText:
    """The report encoder against stdlib `json` with the report layout."""

    @given(value=json_values)
    # a long int list repeating few values, as a densusp cycle does, and
    # ints mixed with the bools that compare and hash equal to them
    @example(value={"cycle": [3, 1, 4, 1, 5, 9, 2, 6, -5, 10**30] * 2000, "period": 20000})
    @example(value=[1, True, 0, False, 1, 1])
    @example(value=[[True, 1], [1, 1], [False], [0]])
    @settings(max_examples=400, deadline=None)
    def test_walker_matches_stdlib(self, value):
        assert cli._json_text(value) == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize("value", [{"a": object()}, [1, {2, 3}], {(1,): 2}, {1: 2, "a": 3}])
    def test_walker_raises_where_stdlib_does(self, value):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            cli._json_text(value)

    def test_stdlib_is_used_where_it_encodes_indent_in_c(self):
        assert (cli._report_text is cli._json_text) == (sys.version_info < (3, 13))

    @pytest.mark.parametrize("argv", [
        *VERBS,
        ["densusp", "--shift", "full", "--target", "1/2:(1);1/2:(2)", "--eps", "1e-3"],
        ["flow", "limit", "--n-max", "6", "--symbol-cap", "10", "--roof", "const:1e400"],
    ], ids=lambda argv: "-".join(a for a in argv[:2] if not a.startswith("-")))
    def test_reports_round_trip_through_stdlib(self, tmp_path, argv):
        code, out = run_cli(tmp_path, *argv)
        assert code == EXIT_OK
        reports = sorted(out.glob("*.json"))
        assert reports
        for path in reports:
            text = path.read_text()
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


# one small, valid argv per verb; the contract sweep overrides one integer
# option at a time
CONTRACT_BASE = {
    ("shift", "info"): ["--shift", "star", "--horizon", "3"],
    ("shift", "check"): ["--shift", "star", "--horizon", "3", "--symbol-cap", "20"],
    ("orbit", "enum"): ["--shift", "finite_full:2", "--a", "1", "--n", "3"],
    ("orbit", "connect"): ["--shift", "star", "--a", "2", "--b", "3"],
    ("measure", "eval"): ["--combo", "1:(1,2)", "--cylinder", "1"],
    ("measure", "invariance"): ["--combo", "1:(1,2)", "--depth", "2", "--symbol-cap", "5"],
    ("metric", "d"): ["--combo-a", "1:(1)", "--combo-b", "1:(2)", "--N", "3"],
    ("metric", "rho"): ["--combo-a", "1:(1)", "--combo-b", "1:(2)", "--N", "3"],
    ("converge", "trace"): ["--n-max", "5", "--symbol-cap", "10"],
    ("converge", "classify"): ["--n-max", "5", "--symbol-cap", "10", "--K", "5"],
    ("escape",): ["--shift", "full", "--k", "2", "--target-len", "10", "--symbol-cap", "50"],
    ("nonf-demo",): ["--shift", "full", "--count", "6", "--symbol-cap", "30"],
    ("entropy",): ["--shift", "finite_full:2", "--n", "1..3"],
    ("flow", "integral"): ["--combo", "1:(1,2)"],
    ("flow", "limit"): ["--n-max", "5", "--symbol-cap", "10"],
    ("flow", "classr"): ["--horizon", "4"],
    ("densusp",): ["--shift", "full", "--target", "1/2:(1);1/2:(2)", "--eps", "1/10"],
    ("run",): None,  # takes a config file, no integer option
}


def _leaf_parsers(parser, path=()):
    """(command path, parser) for every verb of the CLI tree."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
        return
    for name, child in subs[0].choices.items():
        yield from _leaf_parsers(child, (*path, name))


def _int_option_cases():
    for path, parser in _leaf_parsers(cli.build_parser()):
        for action in parser._actions:
            if action.type is int and action.option_strings:
                for value in ("0", "-1"):
                    yield pytest.param(
                        path, action.option_strings[0], value,
                        id=f"{'-'.join(path)}{action.option_strings[0]}={value}",
                    )


class TestExitCodeContract:
    def test_every_verb_has_a_base_argv(self):
        assert {path for path, _ in _leaf_parsers(cli.build_parser())} == set(CONTRACT_BASE)

    @pytest.mark.parametrize("path, option, value", list(_int_option_cases()))
    def test_zero_and_negative_integers_exit_cleanly(self, tmp_path, path, option, value):
        argv = [*path, *CONTRACT_BASE[path], option, value]
        code, _ = run_cli(tmp_path, *argv)
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_EXHAUSTED), argv

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("path, option", [
        pytest.param(path, option, id=f"{'-'.join(path)}{option}")
        for path, option in [
            (("orbit", "enum"), "--cap"),
            (("nonf-demo",), "--count"),
            (("measure", "invariance"), "--depth"),
            (("converge", "trace"), "--depth"),
            (("converge", "classify"), "--depth"),
            (("nonf-demo",), "--depth"),
            (("flow", "limit"), "--depth"),
            (("shift", "info"), "--horizon"),
            (("shift", "check"), "--horizon"),
            (("flow", "classr"), "--horizon"),
            (("metric", "rho"), "--prec"),
            (("flow", "limit"), "--prec"),
            (("converge", "classify"), "--K"),
            (("nonf-demo",), "--K"),
        ]
    ])
    def test_loop_caps_below_one_are_config_errors(self, tmp_path, capsys, path, option, value):
        code, out = run_cli(tmp_path, *path, *CONTRACT_BASE[path], option, value)
        assert code == EXIT_CONFIG
        assert f"{option[2:]} must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("path, option", [
        pytest.param(path, option, id=f"{'-'.join(path)}{option}")
        for path, parser in _leaf_parsers(cli.build_parser())
        for option in ("--a", "--b", "--i")
        if any(option in a.option_strings for a in parser._actions)
    ])
    def test_symbols_below_one_are_config_errors(self, tmp_path, capsys, path, option, value):
        # `orbit connect --shift full --a 0 --b 5` exited 0 certifying
        # the inadmissible word (0, 5), and `entropy --shift renewal
        # --a 0` exited 2 blaming the hint of row 0
        code, out = run_cli(tmp_path, *path, *CONTRACT_BASE[path], option, value)
        assert code == EXIT_CONFIG
        assert "symbols must be positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("word", ["0", "1,-3", "-2", "2,0,1"])
    def test_cylinder_symbols_below_one_are_config_errors(self, tmp_path, capsys, word):
        # `measure eval --cylinder 0` and `--cylinder 1,-3` exited 0 with
        # mass 0 for a word that is no cylinder of any shift
        code, out = run_cli(
            tmp_path, "measure", "eval", "--combo", "1/2:(1);1/2:(1,2)", "--cylinder", word
        )
        assert code == EXIT_CONFIG
        assert "symbols must be positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("path", [
        path for path, parser in _leaf_parsers(cli.build_parser())
        if any("--roof-file" in a.option_strings for a in parser._actions)
    ], ids="-".join)
    @pytest.mark.parametrize("value", ["-5", "0"])
    def test_nonpositive_roof_table_value_is_config_error(self, tmp_path, capsys, path, value):
        roof = tmp_path / "roof.txt"
        roof.write_text(f"table 1 : {value}\ntail log1p\nc log:2\n")
        code, out = run_cli(tmp_path, *path, *CONTRACT_BASE[path], "--roof-file", str(roof))
        assert code == EXIT_CONFIG
        assert "roof values must be positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("table 0 : 3\ntail none\nc 1\n", "symbol below 1"),
        ("depth 2\ntable 1 -2 : 3\ntail log1p\nc 1\n", "symbol below 1"),
        ("tail none\nc 1\n", "neither a table nor a tail rule"),
        ("tail\nc 1\n", "tail"),
        ("table 1 : 3\ntail const\nc 1\n", "tail"),
    ], ids=["symbol-0", "negative-symbol", "empty-roof", "tail-alone", "tail-const-no-value"])
    def test_impossible_roof_file_is_config_error(self, tmp_path, capsys, text, message):
        # (0,) is no cylinder of any shift, and an empty roof has no value
        roof = tmp_path / "roof.txt"
        roof.write_text(text)
        code, out = run_cli(tmp_path, "flow", "classr", "--roof-file", str(roof))
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()


def exact_fraction(text: str) -> Fraction:
    """Read the `str` form of a Fraction of any size: decimal reads
    integers past the int-to-str digit limit."""
    num, _, den = text.partition("/")
    return Fraction(int(Decimal(num)), int(Decimal(den or "1")))


def int_str_limit():
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


class TestDigitLimit:
    """Brackets and tolerances whose integers pass the int-to-str digit
    limit (4300 digits by default) print exactly, in the `str` form of a
    Fraction, and the process-wide limit is left as it was."""

    COMBOS = ["--combo-a", "1:(1)", "--combo-b", "1:(2)"]

    def _pair(self):
        full = parse_shift_arg("full")
        return full, parse_combo_text(full, "1:(1)"), parse_combo_text(full, "1:(2)")

    def test_metric_d_at_N_15000(self, tmp_path, capsys):
        limit = int_str_limit()
        code, out = run_cli(tmp_path, "metric", "d", *self.COMBOS, "--N", "15000")
        assert code == EXIT_OK, capsys.readouterr().err
        payload = read_json(out, "metric_d")
        full, a, b = self._pair()
        lo, hi = metric_d(a, b, 15000, full)
        assert exact_fraction(payload["lower"]) == lo
        assert exact_fraction(payload["upper"]) == hi
        assert len(payload["upper"]) > 4300
        assert f"[{payload['lower']}, {payload['upper']}]" in capsys.readouterr().out
        assert int_str_limit() == limit

    @pytest.mark.parametrize("N, prec", [("15000", "64"), ("12", "15000")], ids=["N", "prec"])
    def test_metric_rho_at_size(self, tmp_path, capsys, N, prec):
        limit = int_str_limit()
        code, out = run_cli(
            tmp_path, "metric", "rho", "--roof", "log1p", *self.COMBOS,
            "--N", N, "--prec", prec,
        )
        assert code == EXIT_OK, capsys.readouterr().err
        payload = read_json(out, "metric_rho")
        full, a, b = self._pair()
        roof = log1p_roof()
        lo, hi = flow_metric_rho(kac_lift(a, roof), kac_lift(b, roof), int(N), full, int(prec))
        assert exact_fraction(payload["lower"]) == lo
        assert exact_fraction(payload["upper"]) == hi
        assert max(len(payload["lower"]), len(payload["upper"])) > 4300
        assert int_str_limit() == limit

    def test_densusp_tolerance_past_the_limit_is_exhausted(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(suspension, "BLOCK_WORD_CAP", 2**12)  # reach exit 3 sooner
        code, out = run_cli(
            tmp_path, "densusp", "--shift", "full", "--target", "1/2:(1);1/2:(2)",
            "--roof", "log1p", "--eps", "1e-5000",
        )
        assert code == EXIT_EXHAUSTED, capsys.readouterr().err
        payload = read_json(out, "densusp")
        eps = "1/1" + "0" * 5000
        assert payload["config"]["eps"] == eps
        assert f"tolerance {eps} not reached" in payload["error"]
        best = payload["best"]
        assert exact_fraction(best["metric_lower"]) <= exact_fraction(best["metric_upper"])

    # about 5 000 digits above and below the bar
    BIG = Fraction(10**5000 + 1, 3 * 10**5000)

    def test_flow_limit_lambda_past_the_limit(self):
        limit = int_str_limit()
        lam = Interval(self.BIG, self.BIG + Fraction(1, 10**5000))
        report = FlowLimitReport("flow limit with mass lambda", (), {}, lam=lam)
        payload = report.to_jsonable()["lambda"]
        assert (exact_fraction(payload["lo"]), exact_fraction(payload["hi"])) == (lam.lo, lam.hi)
        assert min(len(payload["lo"]), len(payload["hi"])) > 4300
        assert int_str_limit() == limit

    def test_computed_fractions_past_the_limit(self):
        big = self.BIG
        value = LogLinear(big, ((2, big), (3, Fraction(-1, 7))))
        assert value.to_jsonable()["rational"] == fraction_str(big)
        assert value.to_jsonable()["logs"] == {"2": fraction_str(big), "3": "-1/7"}
        cls = Classification("defective", big, (((1,), big),))
        assert cls.to_jsonable()["mass"] == fraction_str(big)
        assert cls.to_jsonable()["defect_sites"][0]["defect"] == fraction_str(big)
        assert exact_fraction(fraction_str(big)) == big

    @pytest.mark.parametrize("q", [Fraction(0), Fraction(-3, 7), Fraction(10**600, 3), 5])
    def test_fraction_str_is_str_below_the_limit(self, q):
        assert fraction_str(q) == str(Fraction(q))

    # reads a report with the digit limit lifted, checks that it is in
    # stdlib json layout, and hands its numerator and denominator back in
    # hex, which no limit applies to
    READ_BACK = """
import json, sys
sys.set_int_max_str_digits(0)
text = open(sys.argv[1], encoding="ascii").read()
report = json.loads(text)
assert text == json.dumps(report, indent=2, sort_keys=True) + "\\n"
print(hex(report["numerator"]), hex(report["denominator"]))
"""

    def test_measure_eval_integers_past_the_limit(self, tmp_path, capsys):
        limit = int_str_limit()
        sieve = bytearray([1]) * 22_000
        for n in range(2, 149):
            sieve[n * n :: n] = bytes(len(sieve[n * n :: n]))
        primes = [p for p in range(10**4, len(sieve)) if sieve[p]][:1200]
        assert len(primes) == 1200
        combo = ";".join(f"1/{p}:(1)" for p in primes)
        code, out = run_cli(tmp_path, "measure", "eval", "--combo", combo, "--cylinder", "1")
        assert code == EXIT_OK, capsys.readouterr().err
        want = sum(Fraction(1, p) for p in primes)
        assert len(fraction_str(want.denominator)) > 4300
        assert f"measure of [1] = {fraction_str(want)}" in capsys.readouterr().out
        read = subprocess.run(
            [sys.executable, "-c", self.READ_BACK, str(out / "measure_eval.json")],
            capture_output=True, text=True, check=True,
        )
        num, den = (int(h, 16) for h in read.stdout.split())
        assert Fraction(num, den) == want and den == want.denominator
        assert int_str_limit() == limit
