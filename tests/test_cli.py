import csv
import json
from pathlib import Path

import pytest

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
