"""Tests for the command-line interface.

Most tests invoke ``replicalc.cli.run`` in process for speed and capture
stdout/stderr through pytest; a single subprocess test checks the
installed entry points end to end.
"""

import json
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from replicalc import cli
from replicalc.cli import run


def invoke(capsys, argv):
    """Run the CLI in process and return (exit_code, stdout, stderr)."""
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_json(capsys, argv):
    code, out, err = invoke(capsys, argv)
    assert code == 0, err
    return json.loads(out)


class TestPosteriorCommand:
    def test_summary_payload(self, capsys):
        payload = invoke_json(capsys, ["posterior", "--successes", "50",
                                       "--trials", "99"])
        assert payload["command"] == "posterior"
        assert payload["grid_points"] == 10001
        assert payload["prior_per_point"] == 0.0001
        assert_allclose(payload["likelihood_sum"], 100.0, rtol=0, atol=0.01)
        assert_allclose(payload["mode_p"], 0.5051, rtol=0, atol=1e-12)

    def test_range_query(self, capsys):
        payload = invoke_json(capsys, ["posterior", "--successes", "50",
                                       "--trials", "99", "--range", "0.45:1"])
        block = payload["range"]
        assert block["lower"] == 0.45
        assert block["upper"] == 1.0
        assert block["lower_inclusive"] is True
        assert block["upper_inclusive"] is False
        assert_allclose(block["probability"], 0.86564, rtol=0, atol=5e-5)

    def test_range_open_lower(self, capsys):
        closed = invoke_json(capsys, ["posterior", "--successes", "50",
                                      "--trials", "99", "--range", "0.45:1"])
        opened = invoke_json(capsys, ["posterior", "--successes", "50",
                                      "--trials", "99", "--range", "0.45:1",
                                      "--range-open-lower"])
        assert opened["range"]["lower_inclusive"] is False
        assert opened["range"]["probability"] <= closed["range"]["probability"]

    def test_point_queries(self, capsys):
        payload = invoke_json(capsys, ["posterior", "--successes", "50",
                                       "--trials", "99",
                                       "--at", "0.43", "--at", "0.5"])
        points = payload["points"]
        assert [entry["p"] for entry in points] == [0.43, 0.5]
        assert_allclose(points[0]["mass"], 0.0002595, rtol=0, atol=5e-7)

    def test_csv_output(self, capsys):
        code, out, _ = invoke(capsys, ["posterior", "--successes", "50",
                                       "--trials", "99", "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "p,posterior"
        assert len(lines) == 10002
        masses = np.array([float(line.split(",")[1]) for line in lines[1:]])
        assert_allclose(masses.sum(), 1.0, rtol=0, atol=1e-9)


class TestCompareCommand:
    def test_headline_numbers(self, capsys):
        payload = invoke_json(capsys, ["compare", "--successes", "50",
                                       "--trials", "99", "--null", "0.404"])
        assert_allclose(payload["p_value_gaussian"], 0.0222, rtol=0, atol=5e-4)
        assert_allclose(payload["p_value_exact_binomial"], 0.0266,
                        rtol=0, atol=5e-4)
        assert_allclose(payload["posterior_null_tail"], 0.0206,
                        rtol=0, atol=5e-4)
        assert payload["absolute_gap"] < 0.005
        assert_allclose(payload["p_value_gaussian_two_sided"],
                        2 * payload["p_value_gaussian"], rtol=1e-12)

    def test_sd_convention_switch(self, capsys):
        at_null = invoke_json(capsys, ["compare", "--successes", "50",
                                       "--trials", "99", "--null", "0.404",
                                       "--sd-convention", "at_null"])
        assert at_null["p_value_gaussian"] == at_null["p_value_gaussian_at_null"]
        assert (at_null["p_value_gaussian_at_null"]
                < at_null["p_value_gaussian_at_observed"])


class TestCombineCommand:
    def test_pooled_matches_single_study(self, capsys, tmp_path):
        """22/46 then 28/53 pools to exactly the 50/99 posterior."""
        studies = tmp_path / "studies.txt"
        studies.write_text("# demo studies\nfirst,22,46\n\nsecond,28,53\n")
        combined = invoke_json(capsys, ["combine", "--studies", str(studies)])
        single = invoke_json(capsys, ["posterior", "--successes", "50",
                                      "--trials", "99"])
        assert combined["pooled"] == {"successes": 50, "trials": 99}
        assert combined["mode_p"] == single["mode_p"]
        assert_allclose(combined["mode_mass"], single["mode_mass"], rtol=1e-10)
        assert [s["label"] for s in combined["studies"]] == ["first", "second"]

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, ["combine", "--studies",
                                       "/nonexistent/studies.txt"])
        assert code == 2
        assert "--studies" in err

    def test_malformed_line_reports_position(self, capsys, tmp_path):
        studies = tmp_path / "studies.txt"
        studies.write_text("first,22,46\nbogus line\n")
        code, _, err = invoke(capsys, ["combine", "--studies", str(studies)])
        assert code == 2
        assert "studies.txt:2" in err


class TestReplicateCommand:
    def test_given_idealistic(self, capsys):
        payload = invoke_json(capsys, ["replicate", "--idealistic", "0.95",
                                       "--q", "0.9"])
        assert payload["idealistic_source"] == "given"
        assert payload["realistic_lower"] == 0.855
        assert payload["realistic_upper"] == 0.95
        assert payload["ir_index_lower"] == 0.9

    def test_ir_index_from_realistic(self, capsys):
        payload = invoke_json(capsys, ["replicate", "--idealistic", "0.95",
                                       "--q", "0.9", "--realistic", "0.47"])
        assert_allclose(payload["ir_index"], 0.4947, rtol=0, atol=1e-4)
        assert payload["ir_display"] == "0.49"

    def test_posterior_sourced_range(self, capsys):
        payload = invoke_json(capsys, ["replicate", "--q", "0.9",
                                       "--successes", "50", "--trials", "99",
                                       "--range", "0.45:1"])
        assert payload["idealistic_source"] == "posterior"
        assert_allclose(payload["idealistic"], 0.86564, rtol=0, atol=5e-5)
        assert_allclose(payload["realistic_lower"],
                        0.9 * payload["idealistic"], rtol=1e-12)
        assert payload["realistic_upper"] == payload["idealistic"]

    def test_posterior_sourced_mass(self, capsys):
        payload = invoke_json(capsys, ["replicate", "--q", "0.9",
                                       "--successes", "50", "--trials", "99",
                                       "--mass", "0.95"])
        interval = payload["interval"]
        assert interval["lower"] == 0.408
        assert interval["upper"] == 0.6017
        assert payload["idealistic"] == interval["probability"]
        assert interval["probability"] >= 0.95

    def test_range_conflicts_with_mass(self, capsys):
        code, _, err = invoke(capsys, ["replicate", "--q", "0.9",
                                       "--successes", "50", "--trials", "99",
                                       "--range", "0.45:1", "--mass", "0.95"])
        assert code == 2
        assert "--range" in err and "--mass" in err

    def test_needs_a_source(self, capsys):
        code, _, err = invoke(capsys, ["replicate", "--q", "0.9"])
        assert code == 2
        assert "--idealistic" in err


class TestIntervalCommand:
    def test_equal_tail_interval(self, capsys):
        payload = invoke_json(capsys, ["interval", "--successes", "50",
                                       "--trials", "99", "--mass", "0.95"])
        assert payload["lower"] == 0.408
        assert payload["upper"] == 0.6017
        assert payload["lower_inclusive"] is True
        assert payload["upper_inclusive"] is True
        assert_allclose(payload["coverage"], 0.95019, rtol=0, atol=5e-5)


class TestSimulateCommand:
    def test_calibration_payload(self, capsys):
        payload = invoke_json(capsys, ["simulate", "--num-trials", "500",
                                       "--seed", "9"])
        assert payload["min_cell_count"] == 1000
        assert payload["qualifying_cells"] == 0
        assert payload["max_abs_deviation"] is None
        assert payload["populated_cells"] == len(payload["cells"])
        counts = sum(cell["count"] for cell in payload["cells"])
        assert counts == 500

    def test_instability_locate_boundary(self, capsys):
        payload = invoke_json(capsys, ["simulate", "--mode", "instability",
                                       "--num-trials", "1000", "--seed", "42",
                                       "--significance-null", "0.404",
                                       "--significance-alpha", "0.05",
                                       "--locate-boundary"])
        boundary = payload["boundary"]
        assert boundary["boundary_count"] == 49
        assert_allclose(boundary["boundary_true_p"], 0.48993, rtol=0, atol=5e-5)
        assert payload["true_p"] == boundary["boundary_true_p"]
        assert_allclose(payload["fraction_non_significant"], 0.5,
                        rtol=0, atol=0.06)

    def test_instability_explicit_true_p(self, capsys):
        payload = invoke_json(capsys, ["simulate", "--mode", "instability",
                                       "--num-trials", "1000", "--seed", "42",
                                       "--significance-null", "0.404",
                                       "--significance-alpha", "0.05",
                                       "--true-p", "0.7"])
        assert payload["true_p"] == 0.7
        assert payload["fraction_non_significant"] < 0.01
        assert "boundary" not in payload

    def test_instability_requires_significance_flags(self, capsys):
        code, _, err = invoke(capsys, ["simulate", "--mode", "instability",
                                       "--num-trials", "10", "--seed", "1"])
        assert code == 2
        assert "--significance-null" in err

    def test_true_p_conflicts_with_locate_boundary(self, capsys):
        code, _, err = invoke(capsys, ["simulate", "--mode", "instability",
                                       "--num-trials", "10", "--seed", "1",
                                       "--significance-null", "0.404",
                                       "--significance-alpha", "0.05",
                                       "--true-p", "0.5", "--locate-boundary"])
        assert code == 2
        assert "--true-p" in err


class TestFigureCommand:
    def test_csv_output(self, capsys):
        code, out, _ = invoke(capsys, ["figure", "--id", "fig2",
                                       "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "p,normalized_likelihood_50_99,binomial_pmf_k_over_99"
        assert len(lines) == 102

    def test_json_output(self, capsys):
        payload = invoke_json(capsys, ["figure", "--id", "fig3"])
        assert payload["columns"] == ["p", "prior_22_46",
                                      "normalized_likelihood_28_53",
                                      "posterior"]
        assert len(payload["rows"]) == 10001

    def test_unknown_id(self, capsys):
        code, _, _ = invoke(capsys, ["figure", "--id", "fig9"])
        assert code == 2


class TestOutputHandling:
    def test_out_writes_stdout_bytes(self, capsys, tmp_path):
        """--out writes exactly what stdout would have received."""
        code, out, _ = invoke(capsys, ["interval", "--successes", "50",
                                       "--trials", "99", "--mass", "0.95"])
        assert code == 0
        dest = tmp_path / "result.json"
        code, silenced, _ = invoke(capsys, ["interval", "--successes", "50",
                                            "--trials", "99", "--mass", "0.95",
                                            "--out", str(dest)])
        assert code == 0
        assert silenced == ""
        assert dest.read_text() == out

    def test_unwritable_out_is_runtime_error(self, capsys, tmp_path):
        dest = tmp_path / "missing" / "result.json"
        code, _, err = invoke(capsys, ["posterior", "--successes", "50",
                                       "--trials", "99", "--out", str(dest)])
        assert code == 1
        assert "--out" in err

    def test_invalid_observation_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, ["posterior", "--successes", "100",
                                       "--trials", "99"])
        assert code == 2
        assert "successes" in err

    def test_missing_command_is_usage_error(self, capsys):
        code, _, _ = invoke(capsys, [])
        assert code == 2

    def test_memory_error_is_runtime_error(self, capsys, monkeypatch):
        """Running out of memory exits 1 with a one-line message, no traceback."""
        def exhausted(args):
            raise MemoryError()

        monkeypatch.setitem(cli._HANDLERS, "posterior", exhausted)
        code, out, err = invoke(capsys, ["posterior", "--successes", "50",
                                         "--trials", "99"])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "memory" in err
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_repeat_runs_identical(self, capsys):
        """The same invocation renders byte-identical output."""
        argv = ["compare", "--successes", "50", "--trials", "99",
                "--null", "0.404"]
        _, first, _ = invoke(capsys, argv)
        _, second, _ = invoke(capsys, argv)
        assert first == second

    def test_installed_entry_points(self):
        """Both the console script and python -m invocation work."""
        expected = subprocess.run(
            [sys.executable, "-m", "replicalc.cli", "replicate",
             "--idealistic", "0.95", "--q", "0.9"],
            capture_output=True, text=True)
        assert expected.returncode == 0
        script = subprocess.run(
            ["replicalc", "replicate", "--idealistic", "0.95", "--q", "0.9"],
            capture_output=True, text=True)
        assert script.returncode == 0
        assert script.stdout == expected.stdout
