"""replicalc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload query --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the run reports the end-to-end metrics with tracing off;
with ``--trace 1`` it runs the same op list untraced and then traced, and
reports the per-layer metrics and the tracing overhead.  The last line of
stdout is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Per-op digests (and, when traced, the spans) are written under
``.perfbench_out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

from measure import THREAD_VARS  # noqa: E402  (no numpy import in measure at load time)

for _name in THREAD_VARS:  # before numpy is imported, here and in every child
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402

import measure  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, CliWorkload  # noqa: E402


def metric_units() -> tuple[dict, dict]:
    """Names and units of the end-to-end and per-layer metrics, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def select(metrics: dict, units: dict) -> dict:
    """``metrics`` in the order of ``units``; its names must be exactly those."""
    if set(metrics) != set(units):
        raise RuntimeError(
            f"measured metrics differ from BENCHMARK.json: missing {sorted(set(units) - set(metrics))}, "
            f"unlisted {sorted(set(metrics) - set(units))}"
        )
    return {key: metrics[key] for key in units}


def load_package():
    """Import replicalc from this checkout's src/, or return None."""
    init = SRC / "replicalc" / "__init__.py"
    if not init.is_file():
        print(f"error: {init.relative_to(ROOT)} not found; run from a replicalc checkout",
              file=sys.stderr)
        return None
    sys.path.insert(0, str(SRC))
    import replicalc

    if Path(replicalc.__file__).resolve() != init.resolve():
        print(f"error: imported replicalc from {replicalc.__file__}, not {init}", file=sys.stderr)
        return None
    return replicalc


def make_workload(name, package, workdir, in_process=False):
    cls = WORKLOADS[name]
    if cls is CliWorkload:
        return cls(package, workdir, in_process=in_process, src=SRC)
    return cls(package, workdir)


def show(name, value, unit, note=""):
    print(f"  {name:<32} {value:>14.6g} {unit:<6} {note}".rstrip())


def list_failures(records):
    for r in records:
        if r.error:
            kind = "WRONG OUTPUT" if r.wrong else "RAISED"
            print(f"  FAILED ({kind}) op {r.index}: {r.description}: {r.error}")


def run_untraced(name, package, workdir, seed, seconds, units):
    grid_sizes = WORKLOADS[name].grid_sizes
    before = (measure.SETUP_REPEATS + 1) // 2
    setup_times = measure.setup_seconds(SRC, grid_sizes, before)
    workload = make_workload(name, package, workdir)
    cycles = workload.cycles_for(seconds)
    ops = workload.make_ops(seed, cycles)
    measure.run_ops(workload, workload.warmup_ops(seed))
    records = measure.run_ops(workload, ops)
    setup_times += measure.setup_seconds(SRC, grid_sizes, measure.SETUP_REPEATS - before)
    latencies = [r.seconds for r in records]
    percentile, tail = measure.tail_percentile(latencies)
    # Every cycle holds the same op mix, so the median cycle time gives a
    # throughput that one slow stretch of the machine cannot move much.
    per_cycle = len(ops) // cycles
    cycle_seconds = [sum(latencies[i:i + per_cycle]) for i in range(0, len(ops), per_cycle)]
    metrics = select({
        "setup_s": statistics.median(setup_times),
        "ops_per_s": per_cycle / statistics.median(cycle_seconds),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail * 1e3,
        "peak_rss_mb": measure.peak_rss_mb(children=name == "cli"),
    }, units)
    notes = {
        "setup_s": f"median of {len(setup_times)} fresh interpreters, "
                   f"{before} before the ops and {len(setup_times) - before} after",
        "ops_per_s": f"{per_cycle} ops per cycle / median of {cycles} cycle times",
        "op_tail_ms": f"p{percentile:.1f} of {len(records)} ops, "
                      f"{measure.TAIL_BEYOND} beyond",
        "peak_rss_mb": "largest child process" if name == "cli" else "benchmark process",
    }
    print(f"end-to-end metrics, {len(records)} ops, tracing off:")
    for key, value in metrics.items():
        show(key, value, units[key], notes.get(key, ""))
    return records, metrics, {}


def run_traced(name, package, workdir, seed, seconds, units):
    workload = make_workload(name, package, workdir, in_process=True)
    ops = workload.make_ops(seed, max(1, workload.cycles_for(seconds) // 2))
    measure.run_ops(workload, workload.warmup_ops(seed))
    # Each op runs untraced and traced back to back, in alternating order, so
    # the overhead compares the same ops at the same moment of the machine.
    tracer = Tracer(package)
    plain, traced = [], []
    for index, op in enumerate(ops):
        for with_tracer in (False, True) if index % 2 == 0 else (True, False):
            if with_tracer:
                with tracer:
                    traced += measure.run_ops(workload, [op], tracer, start=index)
            else:
                plain += measure.run_ops(workload, [op], start=index)
    for untraced_record, record in zip(plain, traced):
        if record.error is None and record.digest != untraced_record.digest:
            record.error = "traced output digest differs from the untraced run"
            record.wrong = True
    metrics = layer_metrics(tracer.spans, len(ops))
    facts = [r.facts for r in traced]
    draws = sum(f.get("calibration_draws", 0) for f in facts)
    metrics["simulate.qualifying_draw_share"] = (
        sum(f.get("qualifying_draws", 0) for f in facts) / draws if draws else 0.0
    )
    metrics["cli.stdout_bytes"] = sum(f.get("stdout_bytes", 0) for f in facts) / len(ops)
    plain_s = sum(r.seconds for r in plain)
    traced_s = sum(r.seconds for r in traced)
    metrics["trace.overhead_pct"] = (traced_s / plain_s - 1.0) * 100.0
    metrics = select(metrics, units)

    print(f"per-layer metrics, {len(ops)} ops traced (same ops untraced: "
          f"{len(ops) / plain_s:.4g} ops/s; traced: {len(ops) / traced_s:.4g} ops/s):")
    for key, value in metrics.items():
        show(key, value, units[key])
    spans = OUT / f"{name}-seed{seed}-spans.jsonl"
    with spans.open("w") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span.as_dict()) + "\n")
    return plain + traced, metrics, {"spans_file": str(spans.relative_to(ROOT))}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    package = load_package()
    if package is None:
        return 2
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        machine = measure.machine_info(ROOT)
        print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace}")
        print("machine: " + json.dumps(machine, sort_keys=True))
        run = run_traced if args.trace else run_untraced
        units = metric_units()[args.trace]
        records, metrics, extra = run(args.workload, package, workdir, args.seed,
                                      args.seconds, units)
    failed = sum(1 for r in records if r.error)
    show("fail_rate", failed / len(records), "ratio", f"{failed} of {len(records)} ops failed")
    list_failures(records)
    log = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    log.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine,
        "metrics": metrics,
        "ops": [
            {"index": r.index, "op": r.description, "ms": r.seconds * 1e3,
             "digest": r.digest, "error": r.error}
            for r in records
        ],
        **extra,
    }, indent=1) + "\n")
    print(f"per-op digests: {log.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not any(r.wrong for r in records),
        "attempted": len(records),
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
