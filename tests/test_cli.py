import argparse
import csv
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

from cmshift import cli
from cmshift.cli import EXIT_CONFIG, EXIT_EXHAUSTED, EXIT_OK, main


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

    @pytest.mark.parametrize("verb", ["trace", "classify"])
    @pytest.mark.parametrize("i", ["0", "-1"])
    def test_inadmissible_sequence_term_is_config_error(self, tmp_path, capsys, verb, i):
        # the first pair-loop term (i, 2) has a symbol below 1
        code, _ = run_cli(
            tmp_path, "converge", verb, "--seq", "pair-loops", "--i", i, "--n-max", "4",
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


class TestStreamedTrace:
    @pytest.mark.parametrize("argv", [
        ["--shift", "full", "--seq", "pair-loops", "--n-max", "200", "--symbol-cap", "200"],
        ["--shift", "full", "--seq", "point-masses", "--n-max", "6", "--symbol-cap", "8"],
    ])
    def test_csv_matches_dense_oracle(self, tmp_path, monkeypatch, argv):
        reports = []

        def recording(*a, **kw):
            reports.append(limit(*a, **kw))
            return reports[-1]

        limit = cli.cylinder_limit
        monkeypatch.setattr(cli, "cylinder_limit", recording)
        code, out = run_cli(tmp_path, "converge", "trace", *argv)
        assert code == EXIT_OK
        (report,) = reports
        assert any(len(t) < len(report.sample_indices) for t in report.traces.values())
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["n", "cylinder", "numerator", "denominator", "value_display"])
        writer.writerows(dense_trace_rows(report))
        assert (out / "converge_trace.csv").read_bytes() == expected.getvalue().encode()


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
