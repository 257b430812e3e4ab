"""Tests for the command-line interface.

Most tests invoke ``replicalc.cli.run`` in process for speed and capture
stdout/stderr through pytest; subprocess tests run the module as a
script and check the installed entry points end to end.
"""

import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

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

    def test_range_check_precedes_the_posterior(self, capsys, monkeypatch):
        """A bad --range is reported before any grid is built."""
        def no_curve(*args):
            raise AssertionError("likelihood_curve called before the --range check")

        monkeypatch.setattr(cli, "likelihood_curve", no_curve)
        code, _, err = invoke(capsys, ["posterior", "--successes", "50",
                                       "--trials", "99", "--range", "0.45"])
        assert code == 2
        assert "--range" in err

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

    def test_range_check_precedes_pooling(self, capsys, monkeypatch):
        """A bad --range is reported before the studies are read or pooled."""
        def no_pool(*args):
            raise AssertionError("pool_studies called before the --range check")

        monkeypatch.setattr(cli, "pool_studies", no_pool)
        code, _, err = invoke(capsys, ["combine", "--studies", "f", "--range", "a:b"])
        assert code == 2
        assert "--range" in err

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

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP Direction 9: range_probability sums to 1.0000000000000002 here, "
        "ReplicationAssessment rejects it, and a program fault exits 2 as a usage error"))
    def test_range_holding_all_mass(self, capsys):
        """1200/3000 puts all its posterior mass on [0.2, 0.7], so idealistic is 1."""
        payload = invoke_json(capsys, ["replicate", "--successes", "1200", "--trials", "3000",
                                       "--range", "0.2:0.7", "--q", "0.9"])
        assert payload["idealistic"] == 1.0

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

    def test_flag_checks_precede_the_posterior(self, capsys, monkeypatch):
        """A missing or conflicting range is reported before any grid is built."""
        def no_curve(*args):
            raise AssertionError("likelihood_curve called before the flag checks")

        monkeypatch.setattr(cli, "likelihood_curve", no_curve)
        code, _, err = invoke(capsys, ["replicate", "--successes", "50",
                                       "--trials", "99", "--q", "0.9"])
        assert code == 2
        assert "--range" in err
        code, _, err = invoke(capsys, ["replicate", "--successes", "50",
                                       "--trials", "99", "--q", "0.9",
                                       "--range", "0.45:1", "--mass", "0.95"])
        assert code == 2
        assert err == "error: --range conflicts with --mass\n"


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

    def test_calibration_checks_significance_alpha(self, capsys):
        """Calibration ignores the test flags but still rejects a bad alpha."""
        code, out, err = invoke(capsys, ["simulate", "--num-trials", "10", "--seed", "1",
                                         "--significance-alpha", "1.5"])
        assert code == 2
        assert out == ""
        assert err == "error: significance_alpha must lie in (0, 1)\n"

    def test_calibration_with_unreachable_counts_is_silent(self, capsys):
        """Most counts are unreachable on a 5-point grid at 10^4 trials; the
        run writes nothing to stderr (a numpy warning would be an error here)."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke(capsys, ["simulate", "--num-trials", "1000", "--seed", "1",
                                             "--grid-points", "5", "--trials-n", "10000"])
        assert code == 0
        assert err == ""
        assert json.loads(out)["populated_cells"] > 0

    def test_negative_zero_null_acts_as_zero(self, capsys):
        """--significance-null -0.0 passes the [0, 1] check and locates the
        same boundary as 0.0."""
        argv = ["simulate", "--mode", "instability", "--num-trials", "50",
                "--seed", "1", "--significance-alpha", "0.05", "--locate-boundary",
                "--significance-null"]
        negative = invoke_json(capsys, argv + ["-0.0"])
        positive = invoke_json(capsys, argv + ["0.0"])
        del negative["inputs"], positive["inputs"]
        assert negative == positive
        assert negative["boundary"]["boundary_count"] == 1

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

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_instability_rejects_out_of_range_seed(self, capsys, seed):
        """Exit 2 with the calibration's message, not an OverflowError traceback."""
        code, out, err = invoke(capsys, ["simulate", "--mode", "instability",
                                         "--num-trials", "1000", "--seed", seed,
                                         "--significance-null", "0.4",
                                         "--significance-alpha", "0.05", "--true-p", "0.5"])
        assert (code, out) == (2, "")
        assert err == "error: seed must be a 64-bit unsigned integer\n"
        assert "Traceback" not in err

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

    def test_module_runs_as_script(self, capsys):
        """``python -m replicalc`` and ``python -m replicalc.cli`` print what ``run`` prints."""
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        argv = ["interval", "--successes", "50", "--trials", "99", "--mass", "0.95"]
        expected = invoke(capsys, argv)[1]
        for module in ("replicalc", "replicalc.cli"):
            script = subprocess.run([sys.executable, "-m", module, *argv],
                                    capture_output=True, text=True, env=env)
            assert (script.returncode, script.stderr, script.stdout) == (0, "", expected), module
            bad = subprocess.run([sys.executable, "-m", module, "interval", "--bogus"],
                                 capture_output=True, text=True, env=env)
            assert bad.returncode == 2, module
            assert "Traceback" not in bad.stderr, module

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


OBS = "--successes 50 --trials 99"
INST = ("simulate --mode instability --num-trials 1000 --seed 42 "
        "--significance-null 0.404 --significance-alpha 0.05")
GOLDEN_STUDIES = {
    "studies.txt": "# demo studies\nfirst,22,46\n\nsecond,28,53\n",
    "empty.txt": "# no studies here\n",
    "bad.txt": "first,22,46\nbogus line\n",
    "contra.txt": "none,0,1\nall,1,1\n",
}
# argv (split on spaces) -> sha256 of repr((exit code, stdout, stderr)), run in
# a directory holding GOLDEN_STUDIES with COLUMNS=80.  The values were recorded
# before the CLI was rebuilt around its command table and pin every byte of
# it: JSON key order, CSV float text, argparse usage and help, error lines.
# Like perfbench/reference_digests.json they assume the float bits and the
# argparse formatting of the machine they were recorded on.
GOLDEN = {
    "":
        "d4504a21be92b7b8c411ef744e084303bf31d4f626101e321667cfd4019dcee7",
    "--help":
        "4d10e785ffc4b37bb825a5e700c7ea85123cdcd5dc7f64f4c339466070a83cb8",
    "bogus":
        "03c47ab65ff861957e8514a36c84774449bc6bb9ea87b2c971669fdf4e6a97e0",
    f"posterior {OBS}":
        "0dfaa03bd9a2d072f27de789d82a051a4110bc700a3c7b011ac92635699d89a6",
    f"posterior {OBS} --grid 101 --format csv":
        "61b02a09d7c54fe173ac71ea807490709728c89c32333bbe7b740fb822991cf9",
    f"posterior {OBS} --grid 1001 --range 0.45:1 --at 0.43 --at 0.5":
        "47829d8fef2ccaff8de0baf61becb1789303bf82fc362ddbb1e238389b4fee6f",
    f"posterior {OBS} --grid 1001 --range 0.45:1 --range-open-lower --range-closed-upper --format csv":
        "3cd64efa725df90fefbf7f7baae87bb549a992d0ff59b05e6f434db2d703643d",
    "posterior --successes 0 --trials 10 --grid 101 --range 0:0.1":
        "9c5645a668dffa35b7fb08b21558d3ce11db448ff8eb9b8b6afb421775d94dd2",
    "posterior --successes 100 --trials 99":
        "43203e8e88626074486be52a14b9ece6f2f0fc638fb5c530b0e6e72c8648a49a",
    f"posterior {OBS} --grid 1":
        "dd3023a08e9ab79e0e3801b9fbae2ae688e385d98ab6ed04315e26dafa33f7af",
    f"posterior {OBS} --range 0.45":
        "11f7870a06dd09443ea2ed94aff06e15498a95ca7da1614d0a9b5069acee9703",
    f"posterior {OBS} --range a:b":
        "166de245e7fabb244b6a78a228d9545bb11c7d35d3e4b3a69c55e806a612aae0",
    f"posterior {OBS} --range 0.6:0.4":
        "928e62cd800e8b5617cbbadfe8fd9fbf4e0e81ed367ae2bb9c49b20232f0697c",
    f"posterior {OBS} --range-open-lower":
        "de9271991da1348378ed348550bc672cbfd5dd2420ad62545ca11565b06f0672",
    f"posterior {OBS} --range-closed-upper":
        "5a4725607dd4c3fd0a853d3ef556bfa3e7e28cb3cd0f679108f36ecb1948df40",
    f"posterior {OBS} --at 1.5":
        "f235b27b90e3c3fa3313f9100ab054b7fc99b44b8ab2a33903108cc420d91d23",
    f"posterior {OBS} --out missing/out.json":
        "85f3c1a24ce72a0cafece783f2f390928314f9eaeab9092944dca56b75436930",
    f"compare {OBS} --null 0.404":
        "5844c32dacc1385dcff0b9d0b9980ec20d7c58d612bcbe6df32b3af28b0c13f3",
    f"compare {OBS} --null 0.404 --grid 1001 --direction at_or_below --sd-convention at_null --format csv":
        "06dac2b28fadc34c90ce7a08a330545f9b5d4663cfdef10f40257a8d0ef7eb07",
    "compare --successes 10 --trials 10 --null 0.3 --grid 101":
        "2bffad1360f881664c1b2b5c9738de7db8b9507beadaa8f3c52e6305c1ef4435",
    "compare --successes 0 --trials 10 --null 0.5 --direction at_or_below --grid 101":
        "3eebc41b7fa85957724563a44e119ba8a3996524bdd67758293d0811282d321a",
    f"compare {OBS} --null 1.5":
        "2b2c6be002e34e511e66c51cc4d9f621e94b81f72e18e03d9422c5e6ffa7020f",
    f"compare {OBS} --null 0.404 --direction sideways":
        "48407ca7e87edb3008594ac07b537b4b0ced938f6f161ca3d43a726f1a79b786",
    "compare --help":
        "ddd552e8bbbe904967ca1b7411156cbbb1ccec221cebb0a66623d86fda16f9ee",
    f"compare {OBS}":
        "87d2878aeffc044fe8b046397a373c58fed26fd88cd25f0e0ac05931225b22e3",
    "combine --studies studies.txt":
        "dda0c33b0bdff4e9ed9af0e7467a021e15fc154d89463baa2a445de552e42882",
    "combine --studies studies.txt --grid 1001 --range 0.45:1 --format csv":
        "6a41ba679ba98407db22033781f40270c72b747a77b645d0f0747ff7951b04db",
    "combine --studies studies.txt --grid 1001 --range 0.45:1 --range-open-lower --range-closed-upper":
        "a54290955f6ae826ad0b92ff5832aabee79e80871fb34f49d4f864946d16d46d",
    "combine --studies studies.txt --range-open-lower":
        "de9271991da1348378ed348550bc672cbfd5dd2420ad62545ca11565b06f0672",
    "combine --studies missing.txt":
        "d55481e362abe224137798792c06470cf233f690fe9d9e4b7a6e807288dda116",
    "combine --studies empty.txt":
        "785935af0448f60ba5a4ef5ec35a81152eec9bbeaf22fec11419e90041d7a08c",
    "combine --studies bad.txt":
        "d69265f7948292644a328651f850a474644cc61f11e40f37a76bed64f180d548",
    "combine --studies contra.txt --grid 2":
        "0125bc5a3148f8a312870434d9b0ff95d2712463e69b366f393a181e5e4b3722",
    "replicate --idealistic 0.95 --q 0.9":
        "742c35c2d34e6a19728b4db6d4b2fadc5693c970f7cac41011cc929660607123",
    "replicate --idealistic 0.95 --q 0.9 --realistic 0.47 --format csv":
        "2d8890b921ad852c3bf5689ef35140de8129bf3c98aa41daebcbf8e84d748104",
    "replicate --idealistic 0 --q 0.9":
        "0268b932f6eb65d01a0de5d39165971fc0f3cced5a07ec23daf5987fef2d7e7e",
    f"replicate --q 0.9 {OBS} --grid 1001 --range 0.45:1":
        "a1b2d035d94bcfe70810af67a2329e7cfde6545f690a4a1d9dbfd02486e42681",
    f"replicate --q 0.9 {OBS} --grid 1001 --mass 0.95 --realistic 0.5":
        "5f8b4f08ea8397a9b54dd2affc2e70702e3a82a09022ba69f9514becabeb3813",
    f"replicate --q 0.9 {OBS} --grid 1001 --mass 0.95 --format csv":
        "ae625892406d5b078de82743693bb15189ffbe17102707825a61e3354a40ea42",
    f"replicate --q 0.9 {OBS} --range 0.45:1 --mass 0.95":
        "5614fa6bc19e4138b66f7b8d0d57914aa91cfd0d167bff1749a2ae148d981694",
    f"replicate --q 0.9 {OBS}":
        "6acb600ef29aa30c003e8eee7c6b6bf02cccc0448494cac9387044506ba9aa23",
    "replicate --q 0.9":
        "55f9a014d6ccb2992fc462ff33b9b81f202d4e5ff873ed5098e9779791367cb3",
    "replicate --q 0.9 --successes 150 --trials 99 --range 0.45:1":
        "43203e8e88626074486be52a14b9ece6f2f0fc638fb5c530b0e6e72c8648a49a",
    "replicate --q 1.5 --idealistic 0.5":
        "d4a2dbafdfc291c990aeabaf1d133bae0624111c4acfcbcb563c6419cfbb21f4",
    "replicate --q 0.9 --idealistic 0.5 --realistic 0.6":
        "ea3e75eb825f816ef40c1dcfc9934bfb53017897508bf6e373c22151f570b0a4",
    f"interval {OBS} --mass 0.95":
        "c2e9b92602826f2681ceb01e47e933027fd32d4f17e83873a92a6b745051e1a7",
    f"interval {OBS} --mass 0.95 --grid 1001 --format csv":
        "80f30ad2bf3f27fc6b23cf67bc76a762eed1aac66c2efcbcb393dba4a0735658",
    f"interval {OBS} --mass 0.95 --out out.json":
        "24206d02658f3db06e8faaa242e039ccab3ac83f648115c40a5a9554d1f055a0",
    f"interval {OBS} --mass 1.5":
        "732cca2af6b84f9d234865e94319e4c75b2e70299f2ebaedf5d6307b42fd2788",
    f"interval {OBS}":
        "a3b5f853aeb0f5121bee4167f528d2e636aa817d4c3af451f4760e553eba4d47",
    "simulate --num-trials 500 --seed 9":
        "eafc8eabd24dd5e4263964467f2577c6e79cd17d0809bd87229b7547b6af3d95",
    "simulate --num-trials 2000 --seed 3 --grid-points 11 --trials-n 20 --format csv":
        "e55d0be1dc8fe6d56de3c9281003a802d1911bf84590c8fcdb844eaad6a0dfab",
    "simulate --num-trials 100 --seed 1 --grid-points 11 --trials-n 5 --significance-null 0.404 --significance-alpha 0.05":
        "92dd5ffcf9b91bc282ed094b765e0495942aeba1b236fe676e29b183c9f466a7",
    "simulate --num-trials 10 --seed 1 --significance-null 1.5":
        "5f7fbd35dece4bd1ad6461278adc453232cd67cbf21bb17b8c8017e3e1908b2b",
    "simulate --num-trials 10 --seed -1":
        "0f21c0697df67e596700a6fae89fa7c15b2b7acffb1f476ecde2c97e85ebd67a",
    f"{INST} --locate-boundary":
        "178860edc370008956d9838e6b61e3a60fcd687a8431cbdbebbb0e9c3752c9ab",
    f"{INST} --true-p 0.7 --format csv":
        "548167ee4e8771e1a105bc50f13eeeb6c9424d7824c9bff34294e935f5b73be4",
    f"{INST} --true-p 0.5 --locate-boundary":
        "b43c4963a53559910ab14c5e45c1af81d6e3dcd1e9d87067f381959392d8a348",
    INST:
        "98f7039273ae55a015106854c0475faceefcd991c70d7ea60d5be1e7743922bb",
    "simulate --mode instability --num-trials 10 --seed 1":
        "94829c10d4297c9a647654b472b550d2bd58ead505706bc9800f0518a27f71b5",
    "figure --id fig2":
        "60539d793a217e4903b460e49b7beea2c9156301429e32ceed9621d29ee8bbe9",
    "figure --id fig2 --format csv":
        "37ca7382461596bec4225eceac8b626c0bc70088182f92969fa409b07f80e3a5",
    "figure --id fig3 --format csv":
        "d2b34b3c63fe6d22a2e9170946a4430ba25d8dedbc2485b4ef55161d89ddd23e",
    "figure --id fig4":
        "f96cdd40d7c98ab1b15e718a7f4bab5ee476205b9f645f42088309df448daa6e",
    "figure --id fig9":
        "536c94104639b6f8ce0d7c7b11e9505cedabf27ef86de7f24300520c695a24bf",
    "simulate --help":
        "ead57fb70c0c102227b8a90ea4400a9e4197fc7c9907f54c4f8857566f62383a",
}


@pytest.mark.parametrize("line", list(GOLDEN))
def test_golden_output(line, capsys, monkeypatch, tmp_path):
    for name, text in GOLDEN_STUDIES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    triple = invoke(capsys, line.split())
    assert hashlib.sha256(repr(triple).encode()).hexdigest() == GOLDEN[line]
