"""Command-line front end.

Subcommands map one-to-one onto the library: ``posterior``, ``compare``,
``combine``, ``replicate``, ``interval``, ``simulate``, and ``figure``.
``_COMMANDS`` gives each its help text and flags; shared flag groups are
defined once.  A handler returns ``(inputs, body, table)``: output is JSON
``{"command", "inputs", **body}`` by default or the table as CSV with
``--format csv``, written to stdout unless ``--out PATH`` is given.  Every
invocation is a pure function of its arguments and input files — repeated
runs (fixed seeds included) emit byte-identical output.

Exit codes: 0 success, 1 computation or I/O error, 2 usage error (an
:class:`InvalidArgumentError` from a flag check or the library).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .combine import load_studies, pool_studies
from .errors import InvalidArgumentError, ReplicalcError, require_unit_interval
from .figures import FIGURE_IDS, build_figure, render_csv
from .grid_model import Observation, make_grid, prior_per_point
from .inference_compare import (
    SD_AT_NULL,
    SD_AT_OBSERVED,
    compare_p_and_posterior,
)
from .likelihood import likelihood_curve, likelihood_sum
from .posterior import (
    AT_OR_ABOVE,
    AT_OR_BELOW,
    RangeSpec,
    normalize,
    range_probability,
    replication_interval,
)
from .replication import ReplicationAssessment, ir_index
from .simulate import (
    SimulationConfig,
    significance_boundary,
    simulate_calibration,
    simulate_threshold_instability,
)

__all__ = ["run", "main"]

_OBSERVATION = (
    ("--successes", dict(type=int, required=True, help="observed success count r")),
    ("--trials", dict(type=int, required=True, help="number of trials n")),
)
_GRID = (("--grid", dict(type=int, default=10001, help="grid point count (default 10001)")),)
_RANGE = (
    ("--range", dict(metavar="LOWER:UPPER", help="replication range, e.g. 0.45:1")),
    ("--range-open-lower", dict(action="store_true",
                                help="exclude the lower bound (default: included)")),
    ("--range-closed-upper", dict(action="store_true", help="include the upper bound")),
)
_OUTPUT = (
    ("--format", dict(choices=("json", "csv"), default="json",
                      help="output format (default json)")),
    ("--out", dict(metavar="PATH", help="write output to PATH instead of stdout")),
)

# Subcommand -> (help, flags); flags register in the order listed, then _OUTPUT.
_COMMANDS = {
    "posterior": ("posterior distribution and range queries", (
        *_OBSERVATION,
        *_GRID,
        *_RANGE,
        ("--at", dict(type=float, action="append", default=None, metavar="P",
                      help="report the posterior mass at the grid point nearest P "
                           "(repeatable)")),
    )),
    "compare": ("P-values versus the posterior null tail", (
        *_OBSERVATION,
        ("--null", dict(type=float, required=True, help="null hypothesis proportion")),
        *_GRID,
        ("--direction", dict(choices=(AT_OR_ABOVE, AT_OR_BELOW), default=AT_OR_ABOVE,
                             help="side of the P-value tail (default at_or_above)")),
        ("--sd-convention", dict(choices=(SD_AT_OBSERVED, SD_AT_NULL), default=SD_AT_OBSERVED,
                                 help="where the Gaussian sd is evaluated "
                                      "(default at_observed)")),
    )),
    "combine": ("pool studies from a file", (
        ("--studies", dict(required=True, metavar="FILE",
                           help="text file of label,successes,trials lines")),
        *_GRID,
        *_RANGE,
    )),
    "replicate": ("replication probabilities and the I/R index", (
        ("--q", dict(type=float, required=True,
                     help="probability that a repeat is perfectly reproducible")),
        ("--idealistic", dict(type=float,
                              help="idealistic replication probability, if already known")),
        ("--successes", dict(type=int, help="observed success count r")),
        ("--trials", dict(type=int, help="number of trials n")),
        *_GRID,
        *_RANGE,
        ("--mass", dict(type=float,
                        help="derive the range as the equal-tail interval of this mass")),
        ("--realistic", dict(type=float,
                             help="also report the I/R index for this realistic probability")),
    )),
    "interval": ("equal-tail replication interval", (
        *_OBSERVATION,
        *_GRID,
        ("--mass", dict(type=float, required=True, help="target interval mass, e.g. 0.95")),
    )),
    "simulate": ("Monte Carlo calibration and threshold instability", (
        ("--mode", dict(choices=("calibration", "instability"), default="calibration")),
        ("--grid-points", dict(type=int, default=101, help="grid point count (default 101)")),
        ("--trials-n", dict(type=int, default=99, help="selections per study (default 99)")),
        ("--num-trials", dict(type=int, required=True, help="number of simulated studies")),
        ("--seed", dict(type=int, required=True, help="64-bit RNG seed")),
        ("--significance-null", dict(type=float, help="null proportion for the test")),
        ("--significance-alpha", dict(type=float, help="significance level")),
        ("--true-p", dict(type=float, help="true proportion for instability mode")),
        ("--locate-boundary", dict(action="store_true",
                                   help="instability mode: use the located "
                                        "significance-boundary proportion")),
    )),
    "figure": ("emit a reference figure dataset", (
        ("--id", dict(choices=FIGURE_IDS, required=True, help="figure to build")),
    )),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="replicalc",
        description=(
            "Grid-based posterior probabilities for binomial studies: "
            "P-value comparison, evidence pooling, replication analysis, "
            "and Monte Carlo checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, options in (*flags, *_OUTPUT):
            p.add_argument(flag, **options)
    return parser


def _echo(obj, *names) -> dict:
    """The named attributes of ``obj`` in the order given, e.g. the ``inputs`` block."""
    return {name: getattr(obj, name) for name in names}


def _parse_range(args) -> RangeSpec | None:
    if args.range is None:
        for flag in ("range_open_lower", "range_closed_upper"):
            if getattr(args, flag):
                raise InvalidArgumentError(f"--{flag.replace('_', '-')} requires --range")
        return None
    parts = args.range.split(":")
    if len(parts) != 2:
        raise InvalidArgumentError("--range must look like LOWER:UPPER, e.g. 0.45:1")
    try:
        lower, upper = float(parts[0]), float(parts[1])
    except ValueError:
        raise InvalidArgumentError("--range bounds must be numbers") from None
    return RangeSpec(
        lower=lower,
        upper=upper,
        lower_inclusive=not args.range_open_lower,
        upper_inclusive=args.range_closed_upper,
    )


def _range_payload(rng: RangeSpec, probability: float) -> dict:
    bounds = _echo(rng, "lower", "upper", "lower_inclusive", "upper_inclusive")
    return {**bounds, "probability": probability}


def _distribution_summary(dist) -> dict:
    mode_idx = int(dist.values.argmax())
    return {
        "grid_points": dist.grid.points,
        "prior_per_point": prior_per_point(dist.grid),
        "mode_p": float(dist.grid.values[mode_idx]),
        "mode_mass": float(dist.values[mode_idx]),
    }


def _curve_table(dist):
    return ("p", "posterior"), np.column_stack((dist.grid.values, dist.values)).tolist()


def _flat_table(row: dict):
    columns = tuple(row)
    return columns, [[row[c] for c in columns]]


def _cmd_posterior(args):
    rng = _parse_range(args)
    obs = Observation(args.successes, args.trials)
    grid = make_grid(args.grid)
    curve = likelihood_curve(obs, grid)
    dist = normalize(curve)
    body = {"likelihood_sum": likelihood_sum(curve), **_distribution_summary(dist)}
    if args.at:
        body["points"] = [
            {"p": float(grid.values[grid.index_of(p)]), "mass": dist.value_at(p)}
            for p in args.at
        ]
    if rng is not None:
        body["range"] = _range_payload(rng, range_probability(dist, rng))
    inputs = _echo(args, "successes", "trials", "grid", "range", "at")
    return inputs, body, _curve_table(dist)


def _cmd_compare(args):
    obs = Observation(args.successes, args.trials)
    grid = make_grid(args.grid)
    report = compare_p_and_posterior(obs, args.null, grid, args.direction)
    if args.sd_convention == SD_AT_OBSERVED:
        selected = report.p_value_gaussian
    else:
        selected = report.p_value_gaussian_at_null
    row = {
        "p_value_gaussian": selected,
        "p_value_gaussian_at_observed": report.p_value_gaussian,
        "p_value_gaussian_at_null": report.p_value_gaussian_at_null,
        "p_value_exact_binomial": report.p_value_exact_binomial,
        "p_value_gaussian_two_sided": min(1.0, 2.0 * selected),
        "posterior_null_tail": report.posterior_null_tail,
        "absolute_gap": abs(selected - report.posterior_null_tail),
    }
    body = {
        **row,
        "two_sided_note": (
            "two-sided value is twice the one-sided tail; "
            "no sidedness convention is implied beyond that"
        ),
    }
    inputs = _echo(args, "successes", "trials", "null", "grid", "direction", "sd_convention")
    return inputs, body, _flat_table(row)


def _cmd_combine(args):
    rng = _parse_range(args)
    try:
        studies = load_studies(args.studies)
    except OSError as exc:
        raise InvalidArgumentError(
            f"--studies: cannot read {args.studies}: {exc.strerror}"
        ) from None
    if not studies:
        raise InvalidArgumentError(f"--studies: {args.studies} contains no studies")
    dist = pool_studies(studies, make_grid(args.grid))
    body = {
        "studies": [
            {"label": s.label, **_echo(s.observation, "successes", "trials")} for s in studies
        ],
        "pooled": {
            "successes": sum(s.observation.successes for s in studies),
            "trials": sum(s.observation.trials for s in studies),
        },
        **_distribution_summary(dist),
    }
    if rng is not None:
        body["range"] = _range_payload(rng, range_probability(dist, rng))
    return _echo(args, "studies", "grid", "range"), body, _curve_table(dist)


def _cmd_replicate(args):
    rng = _parse_range(args)
    interval_payload = None
    if args.idealistic is not None:
        idealistic = args.idealistic
        source = "given"
    else:
        if args.successes is None or args.trials is None:
            raise InvalidArgumentError(
                "replicate needs either --idealistic or --successes/--trials with "
                "--range or --mass"
            )
        if rng is None and args.mass is None:
            raise InvalidArgumentError("replicate needs --range or --mass to define the range")
        if rng is not None and args.mass is not None:
            raise InvalidArgumentError("--range conflicts with --mass")
        obs = Observation(args.successes, args.trials)
        dist = normalize(likelihood_curve(obs, make_grid(args.grid)))
        if rng is None:
            rng = replication_interval(dist, args.mass)
            interval_payload = _range_payload(rng, range_probability(dist, rng))
        idealistic = range_probability(dist, rng)
        source = "posterior"
    assessment = ReplicationAssessment(idealistic, args.q)
    row = {
        "idealistic": assessment.idealistic,
        "q": assessment.reproducibility_q,
        "realistic_lower": assessment.realistic_lower,
        "realistic_upper": assessment.realistic_upper,
        "ir_index_lower": assessment.ir_index_lower,
    }
    if args.realistic is not None:
        row["ir_index"] = ir_index(args.realistic, idealistic)
    body = {"idealistic_source": source, **row}
    if interval_payload is not None:
        body["interval"] = interval_payload
    if args.realistic is not None:
        body["ir_display"] = f"{row['ir_index']:.2f}"
    inputs = _echo(args, "q", "idealistic", "successes", "trials", "grid", "range", "mass",
                   "realistic")
    return inputs, body, _flat_table(row)


def _cmd_interval(args):
    obs = Observation(args.successes, args.trials)
    dist = normalize(likelihood_curve(obs, make_grid(args.grid)))
    interval = replication_interval(dist, args.mass)
    row = {**_echo(interval, "lower", "upper"), "coverage": range_probability(dist, interval)}
    body = {**row, **_echo(interval, "lower_inclusive", "upper_inclusive")}
    return _echo(args, "successes", "trials", "grid", "mass"), body, _flat_table(row)


def _nan_to_none(value: float):
    return None if math.isnan(value) else value


def _cmd_simulate(args):
    if args.mode == "calibration":
        config = SimulationConfig(args.grid_points, args.trials_n, args.num_trials, args.seed)
        # Calibration ignores the test flags but still rejects bad values.
        if args.significance_null is not None:
            require_unit_interval(significance_null=args.significance_null)
        if args.significance_alpha is not None and not 0.0 < args.significance_alpha < 1.0:
            raise InvalidArgumentError("significance_alpha must lie in (0, 1)")
        report = simulate_calibration(config)
        columns = ("observed", "count", "qualifies", "max_deviation")
        cells = [
            {
                "observed": int(r),
                "count": int(report.counts[r]),
                "qualifies": bool(report.qualifying[r]),
                "max_deviation": _nan_to_none(float(report.per_cell_deviation[r])),
                "conditional": report.conditionals[r].tolist(),
            }
            for r in report.populated_cells
        ]
        body = {
            "min_cell_count": report.min_cell_count,
            "qualifying_cells": int(report.qualifying.sum()),
            "populated_cells": len(cells),
            "max_abs_deviation": _nan_to_none(report.max_abs_deviation),
            "cells": cells,
        }
        inputs = _echo(args, "mode", "grid_points", "trials_n", "num_trials", "seed")
        return inputs, body, (columns, [[cell[c] for c in columns] for cell in cells])

    if args.significance_null is None or args.significance_alpha is None:
        raise InvalidArgumentError(
            "instability mode requires --significance-null and --significance-alpha"
        )
    boundary = None
    true_p = args.true_p
    if args.locate_boundary:
        if true_p is not None:
            raise InvalidArgumentError("--true-p conflicts with --locate-boundary")
        r_star, true_p = significance_boundary(
            args.trials_n, args.significance_null, args.significance_alpha
        )
        boundary = {"boundary_count": r_star, "boundary_true_p": true_p}
    elif true_p is None:
        raise InvalidArgumentError("instability mode requires --true-p or --locate-boundary")
    fraction = simulate_threshold_instability(
        true_p=true_p,
        trials_n=args.trials_n,
        null_p=args.significance_null,
        alpha=args.significance_alpha,
        num_trials=args.num_trials,
        seed=args.seed,
    )
    row = {"true_p": true_p, "fraction_non_significant": fraction}
    body = dict(row)
    if boundary is not None:
        body["boundary"] = boundary
    inputs = _echo(args, "mode", "trials_n", "num_trials", "seed", "significance_null",
                   "significance_alpha", "true_p", "locate_boundary")
    return inputs, body, _flat_table(row)


def _cmd_figure(args):
    dataset = build_figure(args.id)
    rows = dataset.rows.tolist()
    body = {"figure": dataset.figure_id, "columns": list(dataset.columns), "rows": rows}
    return _echo(args, "id"), body, (dataset.columns, rows)


_HANDLERS = {
    "posterior": _cmd_posterior,
    "compare": _cmd_compare,
    "combine": _cmd_combine,
    "replicate": _cmd_replicate,
    "interval": _cmd_interval,
    "simulate": _cmd_simulate,
    "figure": _cmd_figure,
}


def run(argv=None) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        inputs, body, (columns, rows) = _HANDLERS[args.command](args)
    except InvalidArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ReplicalcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print(f"error: out of memory running {args.command}", file=sys.stderr)
        return 1

    if args.format == "csv":
        text = render_csv(columns, rows)
    else:
        payload = {"command": args.command, "inputs": inputs, **body}
        text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: --out: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
