"""Command-line front end.

Subcommands map one-to-one onto the library: ``posterior``, ``compare``,
``combine``, ``replicate``, ``interval``, ``simulate``, and ``figure``.
Output is JSON by default or CSV with ``--format csv``, written to stdout
unless ``--out PATH`` is given.  Every invocation is a pure function of its
arguments and input files — repeated runs (fixed seeds included) emit
byte-identical output.

Exit codes: 0 success, 1 computation or I/O error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .combine import load_studies, pool_studies
from .errors import InvalidArgumentError, ReplicalcError
from .figures import FIGURE_IDS, build_figure
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
from .replication import assessment_from_idealistic, ir_index
from .simulate import (
    SimulationConfig,
    significance_boundary,
    simulate_calibration,
    simulate_threshold_instability,
)

__all__ = ["run", "main"]


class _UsageError(Exception):
    """A flag-level problem; the message names the offending flag."""


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

    def add_common(p):
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="output format (default json)")
        p.add_argument("--out", metavar="PATH",
                       help="write output to PATH instead of stdout")

    def add_observation(p):
        p.add_argument("--successes", type=int, required=True,
                       help="observed success count r")
        p.add_argument("--trials", type=int, required=True,
                       help="number of trials n")

    def add_range(p):
        p.add_argument("--range", metavar="LOWER:UPPER",
                       help="replication range, e.g. 0.45:1")
        p.add_argument("--range-open-lower", action="store_true",
                       help="exclude the lower bound (default: included)")
        p.add_argument("--range-open-upper", action="store_true",
                       help="exclude the upper bound (the default)")
        p.add_argument("--range-closed-upper", action="store_true",
                       help="include the upper bound")

    p = sub.add_parser("posterior", help="posterior distribution and range queries")
    add_observation(p)
    p.add_argument("--grid", type=int, default=10001, help="grid point count (default 10001)")
    add_range(p)
    p.add_argument("--at", type=float, action="append", default=None, metavar="P",
                   help="report the posterior mass at the grid point nearest P (repeatable)")
    add_common(p)

    p = sub.add_parser("compare", help="P-values versus the posterior null tail")
    add_observation(p)
    p.add_argument("--null", type=float, required=True, help="null hypothesis proportion")
    p.add_argument("--grid", type=int, default=10001, help="grid point count (default 10001)")
    p.add_argument("--direction", choices=(AT_OR_ABOVE, AT_OR_BELOW), default=AT_OR_ABOVE,
                   help="side of the P-value tail (default at_or_above)")
    p.add_argument("--sd-convention", choices=(SD_AT_OBSERVED, SD_AT_NULL),
                   default=SD_AT_OBSERVED,
                   help="where the Gaussian sd is evaluated (default at_observed)")
    add_common(p)

    p = sub.add_parser("combine", help="pool studies from a file")
    p.add_argument("--studies", required=True, metavar="FILE",
                   help="text file of label,successes,trials lines")
    p.add_argument("--grid", type=int, default=10001, help="grid point count (default 10001)")
    add_range(p)
    add_common(p)

    p = sub.add_parser("replicate", help="replication probabilities and the I/R index")
    p.add_argument("--q", type=float, required=True,
                   help="probability that a repeat is perfectly reproducible")
    p.add_argument("--idealistic", type=float,
                   help="idealistic replication probability, if already known")
    p.add_argument("--successes", type=int, help="observed success count r")
    p.add_argument("--trials", type=int, help="number of trials n")
    p.add_argument("--grid", type=int, default=10001, help="grid point count (default 10001)")
    add_range(p)
    p.add_argument("--mass", type=float,
                   help="derive the range as the equal-tail interval of this mass")
    p.add_argument("--realistic", type=float,
                   help="also report the I/R index for this realistic probability")
    add_common(p)

    p = sub.add_parser("interval", help="equal-tail replication interval")
    add_observation(p)
    p.add_argument("--grid", type=int, default=10001, help="grid point count (default 10001)")
    p.add_argument("--mass", type=float, required=True, help="target interval mass, e.g. 0.95")
    add_common(p)

    p = sub.add_parser("simulate", help="Monte Carlo calibration and threshold instability")
    p.add_argument("--mode", choices=("calibration", "instability"), default="calibration")
    p.add_argument("--grid-points", type=int, default=101, help="grid point count (default 101)")
    p.add_argument("--trials-n", type=int, default=99, help="selections per study (default 99)")
    p.add_argument("--num-trials", type=int, required=True, help="number of simulated studies")
    p.add_argument("--seed", type=int, required=True, help="64-bit RNG seed")
    p.add_argument("--significance-null", type=float, help="null proportion for the test")
    p.add_argument("--significance-alpha", type=float, help="significance level")
    p.add_argument("--true-p", type=float, help="true proportion for instability mode")
    p.add_argument("--locate-boundary", action="store_true",
                   help="instability mode: use the located significance-boundary proportion")
    add_common(p)

    p = sub.add_parser("figure", help="emit a reference figure dataset")
    p.add_argument("--id", choices=FIGURE_IDS, required=True, help="figure to build")
    add_common(p)

    return parser


def _parse_range(args) -> RangeSpec | None:
    if args.range is None:
        for flag in ("range_open_lower", "range_open_upper", "range_closed_upper"):
            if getattr(args, flag):
                raise _UsageError(f"--{flag.replace('_', '-')} requires --range")
        return None
    parts = args.range.split(":")
    if len(parts) != 2:
        raise _UsageError("--range must look like LOWER:UPPER, e.g. 0.45:1")
    try:
        lower, upper = float(parts[0]), float(parts[1])
    except ValueError:
        raise _UsageError("--range bounds must be numbers") from None
    if args.range_open_upper and args.range_closed_upper:
        raise _UsageError("--range-open-upper conflicts with --range-closed-upper")
    return RangeSpec(
        lower=lower,
        upper=upper,
        lower_inclusive=not args.range_open_lower,
        upper_inclusive=args.range_closed_upper,
    )


def _range_payload(rng: RangeSpec, probability: float) -> dict:
    return {
        "lower": rng.lower,
        "upper": rng.upper,
        "lower_inclusive": rng.lower_inclusive,
        "upper_inclusive": rng.upper_inclusive,
        "probability": probability,
    }


def _distribution_summary(dist) -> dict:
    mode_idx = int(dist.values.argmax())
    return {
        "grid_points": dist.grid.points,
        "prior_per_point": prior_per_point(dist.grid),
        "mode_p": float(dist.grid.values[mode_idx]),
        "mode_mass": float(dist.values[mode_idx]),
    }


def _curve_table(dist, value_column: str):
    columns = ("p", value_column)
    rows = [[float(p), float(v)] for p, v in zip(dist.grid.values, dist.values)]
    return columns, rows


def _flat_table(payload_row: dict):
    columns = tuple(payload_row)
    return columns, [[payload_row[c] for c in columns]]


def _cmd_posterior(args):
    obs = Observation(args.successes, args.trials)
    grid = make_grid(args.grid)
    curve = likelihood_curve(obs, grid)
    dist = normalize(curve)
    rng = _parse_range(args)
    payload = {
        "command": "posterior",
        "inputs": {
            "successes": args.successes,
            "trials": args.trials,
            "grid": args.grid,
            "range": args.range,
            "at": args.at,
        },
        "likelihood_sum": likelihood_sum(curve),
        **_distribution_summary(dist),
    }
    if args.at:
        payload["points"] = [
            {"p": float(grid.values[grid.index_of(p)]), "mass": dist.value_at(p)}
            for p in args.at
        ]
    if rng is not None:
        payload["range"] = _range_payload(rng, range_probability(dist, rng))
    return payload, _curve_table(dist, "posterior")


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
    payload = {
        "command": "compare",
        "inputs": {
            "successes": args.successes,
            "trials": args.trials,
            "null": args.null,
            "grid": args.grid,
            "direction": args.direction,
            "sd_convention": args.sd_convention,
        },
        **row,
        "two_sided_note": (
            "two-sided value is twice the one-sided tail; "
            "no sidedness convention is implied beyond that"
        ),
    }
    return payload, _flat_table(row)


def _cmd_combine(args):
    try:
        studies = load_studies(args.studies)
    except OSError as exc:
        raise _UsageError(f"--studies: cannot read {args.studies}: {exc.strerror}") from None
    if not studies:
        raise _UsageError(f"--studies: {args.studies} contains no studies")
    grid = make_grid(args.grid)
    dist = pool_studies(studies, grid)
    rng = _parse_range(args)
    pooled_r = sum(s.observation.successes for s in studies)
    pooled_n = sum(s.observation.trials for s in studies)
    payload = {
        "command": "combine",
        "inputs": {"studies": args.studies, "grid": args.grid, "range": args.range},
        "studies": [
            {
                "label": s.label,
                "successes": s.observation.successes,
                "trials": s.observation.trials,
            }
            for s in studies
        ],
        "pooled": {"successes": pooled_r, "trials": pooled_n},
        **_distribution_summary(dist),
    }
    if rng is not None:
        payload["range"] = _range_payload(rng, range_probability(dist, rng))
    return payload, _curve_table(dist, "posterior")


def _cmd_replicate(args):
    rng = _parse_range(args)
    interval_payload = None
    if args.idealistic is not None:
        idealistic = args.idealistic
        source = "given"
    else:
        if args.successes is None or args.trials is None:
            raise _UsageError(
                "replicate needs either --idealistic or --successes/--trials with "
                "--range or --mass"
            )
        obs = Observation(args.successes, args.trials)
        dist = normalize(likelihood_curve(obs, make_grid(args.grid)))
        if rng is None and args.mass is None:
            raise _UsageError("replicate needs --range or --mass to define the range")
        if rng is not None and args.mass is not None:
            raise _UsageError("--range conflicts with --mass")
        if rng is None:
            interval = replication_interval(dist, args.mass)
            rng = interval
            interval_payload = _range_payload(interval, range_probability(dist, interval))
        idealistic = range_probability(dist, rng)
        source = "posterior"
    assessment = assessment_from_idealistic(idealistic, args.q)
    row = {
        "idealistic": assessment.idealistic,
        "q": assessment.reproducibility_q,
        "realistic_lower": assessment.realistic_lower,
        "realistic_upper": assessment.realistic_upper,
        "ir_index_lower": assessment.ir_index_lower,
    }
    if args.realistic is not None:
        row["ir_index"] = ir_index(args.realistic, idealistic)
    payload = {
        "command": "replicate",
        "inputs": {
            "q": args.q,
            "idealistic": args.idealistic,
            "successes": args.successes,
            "trials": args.trials,
            "grid": args.grid,
            "range": args.range,
            "mass": args.mass,
            "realistic": args.realistic,
        },
        "idealistic_source": source,
        **row,
    }
    if interval_payload is not None:
        payload["interval"] = interval_payload
    if args.realistic is not None:
        payload["ir_display"] = f"{row['ir_index']:.2f}"
    return payload, _flat_table(row)


def _cmd_interval(args):
    obs = Observation(args.successes, args.trials)
    dist = normalize(likelihood_curve(obs, make_grid(args.grid)))
    interval = replication_interval(dist, args.mass)
    row = {
        "lower": interval.lower,
        "upper": interval.upper,
        "coverage": range_probability(dist, interval),
    }
    payload = {
        "command": "interval",
        "inputs": {
            "successes": args.successes,
            "trials": args.trials,
            "grid": args.grid,
            "mass": args.mass,
        },
        **row,
        "lower_inclusive": interval.lower_inclusive,
        "upper_inclusive": interval.upper_inclusive,
    }
    return payload, _flat_table(row)


def _nan_to_none(value: float):
    return None if math.isnan(value) else value


def _cmd_simulate(args):
    if args.mode == "calibration":
        config = SimulationConfig(
            grid_points=args.grid_points,
            trials_n=args.trials_n,
            num_trials=args.num_trials,
            seed=args.seed,
            significance_null=args.significance_null,
            significance_alpha=args.significance_alpha,
        )
        report = simulate_calibration(config)
        cells = []
        rows = []
        for r in report.populated_cells:
            cell = {
                "observed": int(r),
                "count": int(report.counts[r]),
                "qualifies": bool(report.qualifying[r]),
                "max_deviation": _nan_to_none(float(report.per_cell_deviation[r])),
            }
            rows.append([cell["observed"], cell["count"], cell["qualifies"],
                         cell["max_deviation"]])
            cells.append({**cell, "conditional": [float(v) for v in report.conditionals[r]]})
        payload = {
            "command": "simulate",
            "inputs": {
                "mode": "calibration",
                "grid_points": args.grid_points,
                "trials_n": args.trials_n,
                "num_trials": args.num_trials,
                "seed": args.seed,
            },
            "min_cell_count": report.min_cell_count,
            "qualifying_cells": int(report.qualifying.sum()),
            "populated_cells": len(cells),
            "max_abs_deviation": _nan_to_none(report.max_abs_deviation),
            "cells": cells,
        }
        return payload, (("observed", "count", "qualifies", "max_deviation"), rows)

    if args.significance_null is None or args.significance_alpha is None:
        raise _UsageError(
            "instability mode requires --significance-null and --significance-alpha"
        )
    boundary = None
    true_p = args.true_p
    if args.locate_boundary:
        if true_p is not None:
            raise _UsageError("--true-p conflicts with --locate-boundary")
        r_star, true_p = significance_boundary(
            args.trials_n, args.significance_null, args.significance_alpha
        )
        boundary = {"boundary_count": r_star, "boundary_true_p": true_p}
    elif true_p is None:
        raise _UsageError("instability mode requires --true-p or --locate-boundary")
    fraction = simulate_threshold_instability(
        true_p=true_p,
        trials_n=args.trials_n,
        null_p=args.significance_null,
        alpha=args.significance_alpha,
        num_trials=args.num_trials,
        seed=args.seed,
    )
    row = {"true_p": true_p, "fraction_non_significant": fraction}
    payload = {
        "command": "simulate",
        "inputs": {
            "mode": "instability",
            "trials_n": args.trials_n,
            "num_trials": args.num_trials,
            "seed": args.seed,
            "significance_null": args.significance_null,
            "significance_alpha": args.significance_alpha,
            "true_p": args.true_p,
            "locate_boundary": args.locate_boundary,
        },
        **row,
    }
    if boundary is not None:
        payload["boundary"] = boundary
    return payload, _flat_table(row)


def _cmd_figure(args):
    dataset = build_figure(args.id)
    payload = {
        "command": "figure",
        "inputs": {"id": args.id},
        "figure": dataset.figure_id,
        "columns": list(dataset.columns),
        "rows": [[float(v) for v in row] for row in dataset.rows],
    }
    return payload, (dataset.columns, [[float(v) for v in row] for row in dataset.rows])


_HANDLERS = {
    "posterior": _cmd_posterior,
    "compare": _cmd_compare,
    "combine": _cmd_combine,
    "replicate": _cmd_replicate,
    "interval": _cmd_interval,
    "simulate": _cmd_simulate,
    "figure": _cmd_figure,
}


def _render_csv(columns, rows) -> str:
    def fmt(value) -> str:
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return repr(value)
        return str(value)

    lines = [",".join(columns)]
    lines.extend(",".join(fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def run(argv=None) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        payload, (columns, rows) = _HANDLERS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvalidArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReplicalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print(f"error: out of memory running {args.command}", file=sys.stderr)
        return 1

    if args.format == "csv":
        text = _render_csv(columns, rows)
    else:
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
