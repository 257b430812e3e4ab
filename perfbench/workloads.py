"""The four workloads: seeded op lists, op execution and output checks.

Every workload is a closed loop with one caller.  An op list is made of
whole cycles; each cycle holds the same fixed mix of op shapes (grid size,
size stratum, simulation kind or CLI command) with values drawn from the
seed and the order shuffled, so runs with different seeds do the same
amount of work.  ``execute`` is the timed part of an op; ``check`` runs
after the timer stops and returns the op's output digest, an error message
if an output is wrong, and counts the traced run reports.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from measure import child_env

HERE = Path(__file__).resolve().parent
REFERENCE_DIGESTS = HERE / "reference_digests.json"

DISTRIBUTION_SUM_TOL = 1e-12  # every distribution sums to 1 within this
POOLING_TOL = 1e-10  # pooled posterior vs the summed-count posterior


@dataclass
class Op:
    kind: str
    params: dict

    def describe(self) -> str:
        shown = {k: v for k, v in self.params.items() if k != "lines"}
        if "lines" in self.params:
            shown["k"] = len(self.params["lines"]) - 1
        return f"{self.kind} {json.dumps(shown, sort_keys=True)}"


@dataclass
class Checked:
    """An op's output digest, what is wrong with its output (if anything),
    and counts for the traced run."""

    digest: str
    error: str | None = None
    facts: dict = field(default_factory=dict)


def digest(*parts) -> str:
    """sha256 over arrays (dtype, shape and bytes) and the repr of other parts."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(repr((part.dtype.str, part.shape)).encode())
            h.update(np.ascontiguousarray(part).data)
        else:
            h.update(repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


def _sum_error(label: str, values: np.ndarray) -> str | None:
    total = float(values.sum())
    if abs(total - 1.0) > DISTRIBUTION_SUM_TOL:
        return f"{label} sums to {total!r}, not 1 within {DISTRIBUTION_SUM_TOL}"
    return None


def _first_error(*errors) -> str | None:
    return next((e for e in errors if e), None)


def _strata(lo: float, hi: float, count: int, cycle: int, step: float = 0.6180339887498949) -> list[float]:
    """One size from each of ``count`` equal-width strata of log [lo, hi].

    The offset inside the strata follows a Weyl sequence over cycles and
    does not depend on the seed: over a run the sizes cover the log range
    evenly, and every seed gets the same sizes, so the seed changes values
    but not the amount of work.
    """
    offset = ((cycle + 1) * step) % 1.0
    width = (math.log(hi) - math.log(lo)) / count
    return [math.exp(math.log(lo) + (s + offset) * width) for s in range(count)]


class Workload:
    name = ""
    grid_sizes: tuple = ()
    # Seconds one cycle takes at the seed commit on a 2-core x86 box; sets
    # how many cycles a run of --seconds seconds holds.
    nominal_cycle_s = 1.0
    # Fewest cycles a run holds, so that the tail percentile (the 11th
    # largest latency) always falls inside the same class of op.
    min_cycles = 1

    def __init__(self, package, workdir: Path):
        self.R = package
        self.workdir = workdir
        self.grids = {m: package.make_grid(m) for m in self.grid_sizes}

    def cycles_for(self, seconds: float) -> int:
        return max(self.min_cycles, round(seconds / self.nominal_cycle_s))

    def make_ops(self, seed: int, cycles: int) -> list[Op]:
        rng = np.random.default_rng(seed)
        ops = []
        for cycle in range(cycles):
            batch = self.cycle(rng, cycle)
            ops.extend(batch[i] for i in rng.permutation(len(batch)))
        return ops

    def warmup_ops(self, seed: int) -> list[Op]:
        """A few cheap ops run before timing, so lazy set-up is paid."""
        raise NotImplementedError

    def cycle(self, rng, cycle: int) -> list[Op]:
        raise NotImplementedError

    def execute(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, result) -> Checked:
        raise NotImplementedError


class QueryWorkload(Workload):
    """README quick-start on one study per op; no op shares inputs with another."""

    name = "query"
    grid_sizes = (10**4 + 1, 10**5 + 1, 10**6 + 1, 101)
    query_grids = (10**4 + 1, 10**5 + 1, 10**6 + 1)
    nominal_cycle_s = 3.0
    min_cycles = 3
    n_strata = 4  # one n per decade of [10, 10^5] in each grid and cycle

    def cycle(self, rng, cycle):
        ops = []
        for gi, m in enumerate(self.query_grids):
            sizes = [(round(n), False) for n in _strata(10, 10**5, self.n_strata, cycle)]
            # One op per grid and cycle observes r = 0 or r = n (a 1-in-5
            # share), alternating between the two.
            sizes += [(round(n), True) for n in _strata(10, 10**5, 1, cycle, step=2**0.5 - 1)]
            for n, edge in sizes:
                if edge:
                    r = 0 if (cycle + gi) % 2 == 0 else n
                else:
                    r = int(rng.integers(1, n))
                lo, hi = sorted(rng.uniform(0.0, 1.0, 2).tolist())
                ops.append(Op("quickstart", {
                    "m": m, "n": n, "r": r,
                    "range": [lo, hi, bool(rng.integers(2)), bool(rng.integers(2))],
                    "threshold": float(rng.uniform()),
                    "tail_direction": str(rng.choice(["at_or_above", "at_or_below"])),
                    "null": float(rng.uniform(0.05, 0.95)),
                    "null_direction": str(rng.choice(["at_or_above", "at_or_below"])),
                    "q": float(rng.uniform(0.5, 1.0)),
                }))
        return ops

    def warmup_ops(self, seed):
        return [op for op in self.make_ops(seed + 1, 1) if op.params["m"] == 10**4 + 1][:2]

    def execute(self, op):
        R, p = self.R, op.params
        grid = self.grids[p["m"]]
        obs = R.Observation(p["r"], p["n"])
        post = R.posterior_distribution(obs, grid)
        in_range = R.range_probability(post, R.RangeSpec(*p["range"]))
        tail = R.tail_probability(post, p["threshold"], p["tail_direction"])
        interval = R.replication_interval(post, 0.95)
        assessment = R.assess_replication(post, interval, p["q"])
        try:
            report = R.compare_p_and_posterior(obs, p["null"], grid, p["null_direction"])
        except R.InvalidArgumentError as exc:
            # The Gaussian P-value with the sd at the observed proportion is
            # undefined at r = 0 and r = n; the library rejects it by design.
            if p["r"] not in (0, p["n"]):
                raise
            report = exc
        coarse = R.rescale_grid(post, self.grids[101])
        return post, in_range, tail, interval, assessment, report, coarse

    def check(self, op, result):
        R, p = self.R, op.params
        post, in_range, tail, interval, assessment, report, coarse = result
        errors = [_sum_error("posterior", post.values), _sum_error("rescaled posterior", coarse.values)]
        coverage = R.range_probability(post, interval)
        if coverage < 0.95 - DISTRIBUTION_SUM_TOL:
            errors.append(f"0.95 interval covers only {coverage!r}")
        tol = DISTRIBUTION_SUM_TOL  # a sum of masses is exact only to the total's tolerance
        if not (-tol <= in_range <= 1.0 + tol and -tol <= tail <= 1.0 + tol):
            errors.append(f"probabilities out of [0, 1]: {in_range!r}, {tail!r}")
        if p["r"] in (0, p["n"]):
            if not isinstance(report, R.InvalidArgumentError):
                errors.append("compare_p_and_posterior accepted a degenerate observed sd")
            report_part = repr(report)
        else:
            opposite = "at_or_below" if p["null_direction"] == "at_or_above" else "at_or_above"
            expected = R.tail_probability(post, p["null"], opposite)
            if report.posterior_null_tail != expected:
                errors.append(
                    f"compare's posterior null tail {report.posterior_null_tail!r} != {expected!r}"
                )
            report_part = report
        return Checked(
            digest(post.values, in_range, tail, interval, assessment, report_part, coarse.values),
            _first_error(*errors),
        )


class PoolWorkload(Workload):
    """Pool k parsed studies, then a what-if update, an interval and an assessment."""

    name = "pool"
    grid_sizes = (10**4 + 1, 10**5 + 1)
    k_ranges = {10**4 + 1: (2, 200), 10**5 + 1: (2, 20)}
    nominal_cycle_s = 1.3
    min_cycles = 4
    k_strata = 4
    between_study_sd = 0.1

    def cycle(self, rng, cycle):
        ops = []
        for m, (k_lo, k_hi) in self.k_ranges.items():
            for k in _strata(k_lo, k_hi, self.k_strata, cycle):
                k = round(k)
                shared_p = float(rng.uniform())
                trials = rng.integers(20, 2001, k)
                props = np.clip(shared_p + rng.normal(0.0, self.between_study_sd, k), 0.0, 1.0)
                successes = rng.binomial(trials, props)
                lines = ["# label,successes,trials"] + [
                    f"study-{j},{r},{n}" for j, (r, n) in enumerate(zip(successes, trials))
                ]
                ops.append(Op("pool", {
                    "m": m,
                    "lines": lines,
                    "center": float(np.clip(shared_p + rng.normal(0.0, 0.05), 0.0, 1.0)),
                    "sd": float(rng.uniform(0.05, 0.2)),
                    "q": float(rng.uniform(0.5, 1.0)),
                }))
        return ops

    def warmup_ops(self, seed):
        ops = self.make_ops(seed + 1, 1)
        return sorted(ops, key=lambda op: op.params["m"] * len(op.params["lines"]))[:2]

    def execute(self, op):
        R, p = self.R, op.params
        grid = self.grids[p["m"]]
        studies = R.parse_studies(p["lines"])
        pooled = R.pool_studies(studies, grid)
        updated = R.what_if_update(pooled, R.GaussianModel(p["center"], p["sd"]), grid)
        interval = R.replication_interval(pooled, 0.95)
        assessment = R.assess_replication(updated, interval, p["q"])
        return studies, pooled, updated, interval, assessment

    def check(self, op, result):
        R, p = self.R, op.params
        studies, pooled, updated, interval, assessment = result
        total_r = sum(s.observation.successes for s in studies)
        total_n = sum(s.observation.trials for s in studies)
        errors = [_sum_error("pooled posterior", pooled.values),
                  _sum_error("what-if posterior", updated.values)]
        if len(studies) != len(p["lines"]) - 1:
            errors.append(f"parsed {len(studies)} of {len(p['lines']) - 1} studies")
        reference = R.posterior_distribution(R.Observation(total_r, total_n), self.grids[p["m"]])
        gap = float(np.max(np.abs(pooled.values - reference.values)))
        if not gap <= POOLING_TOL:
            errors.append(
                f"pooled posterior is {gap:.3g} from the posterior of the summed counts "
                f"{total_r}/{total_n} (tolerance {POOLING_TOL})"
            )
        return Checked(
            digest(pooled.values, updated.values, interval, assessment),
            _first_error(*errors),
        )


class MonteCarloWorkload(Workload):
    """Calibration runs and threshold instability at the located boundary."""

    name = "montecarlo"
    grid_sizes = (101, 1001)
    nominal_cycle_s = 2.7
    min_cycles = 6
    instability_trials = 10**6
    # |fraction non-significant - 1/2| allowed at the boundary proportion:
    # about ten binomial standard errors at 10^6 trials.
    instability_tol = 0.005

    def cycle(self, rng, cycle):
        def seed():
            return int(rng.integers(0, 2**63))

        ops = [
            Op("calibration", {"m": 101, "n": 99, "trials": 2**20, "seed": seed()}),
            Op("calibration", {"m": 1001, "n": 99, "trials": 2**18, "seed": seed()}),
        ]
        for n in (99, 10**4, 99, 10**4):
            ops.append(Op("instability", {
                "n": n,
                "null": float(rng.uniform(0.1, 0.9)),
                "alpha": float(rng.choice([0.05, 0.01])),
                "trials": self.instability_trials,
                "seed": seed(),
            }))
        return ops

    def warmup_ops(self, seed):
        ops = self.make_ops(seed + 1, 1)
        return [op for op in ops if op.kind == "instability" and op.params["n"] == 99][:1]

    def execute(self, op):
        R, p = self.R, op.params
        if op.kind == "calibration":
            return R.simulate_calibration(R.SimulationConfig(p["m"], p["n"], p["trials"], p["seed"]))
        r_star, true_p = R.significance_boundary(p["n"], p["null"], p["alpha"])
        fraction = R.simulate_threshold_instability(
            true_p, p["n"], p["null"], p["alpha"], p["trials"], p["seed"])
        return r_star, true_p, fraction

    def check(self, op, result):
        R, p = self.R, op.params
        if op.kind == "calibration":
            report = result
            errors = []
            if int(report.counts.sum()) != p["trials"]:
                errors.append(f"joint counts sum to {int(report.counts.sum())}, not {p['trials']}")
            rows = report.conditionals[report.counts > 0]
            worst = float(np.max(np.abs(rows.sum(axis=1) - 1.0)))
            if worst > DISTRIBUTION_SUM_TOL:
                errors.append(f"an empirical conditional sums to 1 only within {worst:.3g}")
            qualifying = int(report.counts[report.qualifying].sum())
            return Checked(
                digest(report.counts, report.conditionals, report.per_cell_deviation,
                       report.max_abs_deviation),
                _first_error(*errors),
                {"qualifying_draws": qualifying, "calibration_draws": p["trials"]},
            )
        r_star, true_p, fraction = result
        errors = []
        p_value = R.exact_binomial_p_value(R.Observation(r_star, p["n"]), p["null"], R.AT_OR_ABOVE)
        if not p_value <= p["alpha"]:
            errors.append(f"boundary count {r_star} has exact P-value {p_value!r} > {p['alpha']}")
        if not abs(fraction - 0.5) <= self.instability_tol:
            errors.append(f"non-significant fraction {fraction!r} at the boundary is not near 1/2")
        return Checked(digest(r_star, true_p, fraction), _first_error(*errors))


STUDIES_FILE = "studies.txt"
STUDIES_TEXT = "# label,successes,trials\npilot,22,46\nfollow-up,28,53\n"
OUT_FILE = "interval.json"

# The README commands, a large CSV render, and one --out write.
CLI_COMMANDS = {
    "posterior": ["posterior", "--successes", "50", "--trials", "99", "--at", "0.43",
                  "--range", "0.45:1"],
    "compare": ["compare", "--successes", "50", "--trials", "99", "--null", "0.404"],
    "combine": ["combine", "--studies", STUDIES_FILE],
    "replicate-idealistic": ["replicate", "--idealistic", "0.95", "--q", "0.9",
                             "--realistic", "0.47"],
    "replicate-posterior": ["replicate", "--successes", "50", "--trials", "99", "--q", "0.9",
                            "--mass", "0.95"],
    "interval": ["interval", "--successes", "50", "--trials", "99", "--mass", "0.95"],
    "simulate-calibration": ["simulate", "--num-trials", "1000000", "--seed", "20260817"],
    "simulate-instability": ["simulate", "--mode", "instability", "--num-trials", "1000000",
                             "--seed", "42", "--significance-null", "0.404",
                             "--significance-alpha", "0.05", "--locate-boundary"],
    "figure-fig2": ["figure", "--id", "fig2", "--format", "csv"],
    "posterior-csv-100001": ["posterior", "--successes", "50", "--trials", "99",
                             "--grid", "100001", "--format", "csv"],
    "interval-out": ["interval", "--successes", "50", "--trials", "99", "--mass", "0.95",
                     "--out", OUT_FILE],
}


@dataclass
class CliResult:
    returncode: int
    stdout: bytes
    stderr: bytes
    written: bytes | None


class CliWorkload(Workload):
    """One ``python -m replicalc.cli`` subprocess per op.

    With ``in_process`` set, the same argv runs through ``replicalc.cli.run``
    in this process instead; the traced run uses that, since spans cannot
    cross into a child process.
    """

    name = "cli"
    nominal_cycle_s = 5.5
    min_cycles = 4
    # Instability runs twice per cycle, so the 11th-largest latency falls
    # inside its class instead of on the edge of the fast commands.
    cycle_commands = (*CLI_COMMANDS, "simulate-instability")

    def __init__(self, package, workdir, in_process=False, src=None):
        super().__init__(package, workdir)
        self.in_process = in_process
        self.src = src
        self.reference = json.loads(REFERENCE_DIGESTS.read_text())
        (workdir / STUDIES_FILE).write_text(STUDIES_TEXT)
        if in_process:
            self.cli = importlib.import_module(package.__name__ + ".cli")

    def cycle(self, rng, cycle):
        return [Op("cli", {"command": name}) for name in self.cycle_commands]

    def warmup_ops(self, seed):
        return [Op("cli", {"command": "replicate-idealistic"})]

    def execute(self, op):
        argv = CLI_COMMANDS[op.params["command"]]
        out_path = self.workdir / OUT_FILE
        if out_path.exists():
            out_path.unlink()
        if self.in_process:
            stdout, stderr = io.StringIO(), io.StringIO()
            cwd = os.getcwd()
            os.chdir(self.workdir)
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = self.cli.run(list(argv))
            finally:
                os.chdir(cwd)
            result = CliResult(code, stdout.getvalue().encode(), stderr.getvalue().encode(), None)
        else:
            proc = subprocess.run(
                [sys.executable, "-m", "replicalc.cli", *argv],
                cwd=self.workdir, env=child_env(self.src), capture_output=True, timeout=120,
            )
            result = CliResult(proc.returncode, proc.stdout, proc.stderr, None)
        if result.returncode != 0:
            raise RuntimeError(
                f"exit code {result.returncode}: {result.stderr.decode(errors='replace')[-300:]}"
            )
        if "--out" in argv and out_path.exists():
            result.written = out_path.read_bytes()
        return result

    def output_bytes(self, op, result: CliResult) -> bytes:
        """What the command produced: the --out file if it wrote one, else stdout."""
        if "--out" in CLI_COMMANDS[op.params["command"]]:
            return result.written or b""
        return result.stdout

    def check(self, op, result):
        name = op.params["command"]
        output = self.output_bytes(op, result)
        found = hashlib.sha256(output).hexdigest()
        errors = []
        if result.stderr:
            errors.append(f"stderr: {result.stderr.decode(errors='replace')[:200]!r}")
        if "--out" in CLI_COMMANDS[name] and (result.written is None or result.stdout):
            errors.append("--out did not write the file, or also wrote stdout")
        if found != self.reference.get(name):
            errors.append(f"output sha256 {found[:16]} differs from the reference")
        return Checked(found, _first_error(*errors), {"stdout_bytes": len(result.stdout)})


WORKLOADS = {w.name: w for w in (QueryWorkload, PoolWorkload, MonteCarloWorkload, CliWorkload)}
