"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import importlib
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import replicalc  # noqa: E402

import measure  # noqa: E402
from tracer import LAYERS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, CliWorkload, Checked, Op, PoolWorkload, QueryWorkload  # noqa: E402

SMALL_GRID = 10**4 + 1


def make(name, workdir, **kwargs):
    if WORKLOADS[name] is CliWorkload:
        return CliWorkload(replicalc, workdir, src=HERE.parent / "src", **kwargs)
    return WORKLOADS[name](replicalc, workdir)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_ops_other_seed_other_ops(name, tmp_path):
    workload = make(name, tmp_path)
    first = workload.make_ops(7, 2)
    assert first == workload.make_ops(7, 2)
    assert first != workload.make_ops(8, 2)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_cycle_has_the_same_mix(name, tmp_path):
    workload = make(name, tmp_path)

    def shape(op):
        p = op.params
        return (op.kind, p.get("m"), p.get("n") if op.kind == "calibration" else None,
                p.get("command"))

    ops = workload.make_ops(3, 3)
    size = len(ops) // 3
    cycles = [sorted(map(shape, ops[i * size:(i + 1) * size]), key=repr) for i in range(3)]
    assert cycles[0] == cycles[1] == cycles[2]


def test_tail_percentile_picks_the_value_with_ten_beyond():
    assert measure.tail_percentile(range(1, 101)) == (90.0, 90)
    percentile, value = measure.tail_percentile([5.0] * 10 + [1.0])
    assert value == 1.0 and percentile == pytest.approx(100 / 11)
    shuffled = [3, 14, 1, 12, 7, 2, 9, 13, 4, 11, 6, 10, 5, 8]
    assert measure.tail_percentile(shuffled) == (100 * 4 / 14, 4)
    with pytest.raises(ValueError):
        measure.tail_percentile(range(10))


class _Flaky:
    """Op 1 raises, op 2 returns an output its check rejects."""

    def execute(self, op):
        if op.params["i"] == 1:
            raise ValueError("injected")
        return op.params["i"]

    def check(self, op, result):
        return Checked(str(result), "injected wrong output" if result == 2 else None)


def test_injected_failures_are_counted():
    records = measure.run_ops(_Flaky(), [Op("x", {"i": i}) for i in range(4)])
    assert [r.error is not None for r in records] == [False, True, True, False]
    assert [r.wrong for r in records] == [False, False, True, False]
    assert "ValueError: injected" in records[1].error


def test_real_op_that_raises_is_counted(tmp_path):
    workload = QueryWorkload(replicalc, tmp_path)
    ops = [op for op in workload.make_ops(1, 1) if op.params["m"] == SMALL_GRID][:2]
    ops[1].params["r"] = ops[1].params["n"] + 1  # not a valid observation
    records = measure.run_ops(workload, ops)
    assert records[0].error is None
    assert records[1].error.startswith("InvalidArgumentError")
    assert not records[1].wrong


def _small_ops(workload):
    ops = workload.make_ops(5, 1)
    if isinstance(workload, PoolWorkload):
        return [op for op in ops if op.params["m"] == SMALL_GRID and len(op.params["lines"]) < 30]
    return [op for op in ops if op.params.get("m") == SMALL_GRID]


def _snapshot():
    modules = [replicalc] + [importlib.import_module(f"replicalc.{n}") for n in LAYERS]
    state = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    grid_model = importlib.import_module("replicalc.grid_model")
    for cls in (grid_model.Curve, grid_model.ParameterGrid):
        state[(cls.__name__, "__post_init__")] = cls.__dict__["__post_init__"]
    return state


@pytest.mark.parametrize("workload_cls", [QueryWorkload, PoolWorkload])
def test_traced_and_untraced_digests_match_and_counts_repeat(workload_cls, tmp_path):
    workload = workload_cls(replicalc, tmp_path)
    ops = _small_ops(workload)
    assert ops
    plain = measure.run_ops(workload, ops)
    counts = []
    for _ in range(2):
        tracer = Tracer(replicalc)
        with tracer:
            traced = measure.run_ops(workload, ops, tracer)
        assert [r.digest for r in traced] == [r.digest for r in plain]
        metrics = layer_metrics(tracer.spans, len(ops))
        counts.append({k: v for k, v in metrics.items() if not k.endswith(("_ms", "_eval"))})
    assert counts[0] == counts[1]
    assert counts[0]["special.logpmf_evals"] > 0


def test_cli_in_process_matches_reference(tmp_path):
    workload = make("cli", tmp_path, in_process=True)
    ops = [Op("cli", {"command": name}) for name in ("posterior", "combine", "interval-out")]
    records = measure.run_ops(workload, ops)
    assert [r.error for r in records] == [None, None, None]


def test_every_wrapper_is_removed_after_tracing(tmp_path):
    before = _snapshot()
    tracer = Tracer(replicalc)
    with tracer:
        assert replicalc.posterior_distribution is not before[("replicalc", "posterior_distribution")]
        workload = QueryWorkload(replicalc, tmp_path)
        measure.run_ops(workload, _small_ops(workload)[:1], tracer)
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_fails_without_a_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "query",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_metric_names_come_from_benchmark_json():
    import run

    end_to_end, per_layer = run.metric_units()
    assert list(run.select(dict.fromkeys(reversed(end_to_end), 1.0), end_to_end)) == list(end_to_end)
    with pytest.raises(RuntimeError, match="unlisted"):
        run.select({**dict.fromkeys(end_to_end, 1.0), "extra": 1.0}, end_to_end)
    with pytest.raises(RuntimeError, match="missing"):
        run.select(layer_metrics([], 1), per_layer)
    assert set(layer_metrics([], 1)) < set(per_layer)
