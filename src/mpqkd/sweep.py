"""Scenario sweeps: table/figure reproductions, method comparisons and the
Monte Carlo / decoy verification harness.

A sweep is described by a :class:`SweepSpec` (usually loaded from a strict
JSON document).  One expansion turns every mode into curves: a curve is a
list of distance points, and a point holds one task per method.  A sweep
then runs in two phases.  It optimizes each distinct intensity problem of
its tasks once, in one ``map`` (the builtin one, or one process pool's);
then it builds every row from those optima and cuts each figure curve after
its first point whose rate is below ``CURVE_CUTOFF``.  Rows are emitted as
fixed-header CSV with 10-significant-digit decimal formatting, so identical
specs produce byte-identical files.
"""
from __future__ import annotations

import json
import math
import numbers
import os
import sys
from collections import Counter
from dataclasses import astuple, dataclass, fields, replace
from itertools import product
from typing import Any, Iterable, TextIO

from .decoy import (
    bound_single_photon,
    decoy_config_for,
    decoy_key_rate,
    expected_observables,
    load_highs,
    single_photon_z_error_yield,
    single_photon_z_yield,
)
from .model import (
    KeyRateBreakdown,
    Scenario,
    SystemParams,
    is_pairing_interval,
    key_rate,
    parse_pairing_interval,
)
from .montecarlo import estimate_statistics, pair_clicks, sift_and_map, simulate_rounds
from .optimize import OptimizationProblem, OptimumReport, optimize_intensities, plob_bound

__all__ = [
    "SweepValidationError",
    "SweepSpec",
    "ResultRow",
    "load_spec",
    "oi_problem",
    "af_problem",
    "run_sweep",
    "write_csv",
    "write_rows",
    "verify_oracles",
    "CSV_COLUMNS",
]

METHODS = ("OI", "AF", "PLOB", "fixed-intensity")
LAMBDA_LADDER = (1.0, 10.0, 1e2, 1e3, 1e4, 1e5, 1e6)
_E_D = SystemParams().e_d
# (gap km, λ) of each point of the one-curve presets, in row order; every
# point is one OI task at 200 km plus the gap.
_PRESET_POINTS = {
    "table2": [(0.0, 1e6), (50.0, 1e6), (100.0, 1e6)],
    "table3": [(0.0, 1.0), (50.0, 1.0), (100.0, 1.0)],
    "table4": [(50.0, lam) for lam in LAMBDA_LADDER],
    "table5": [(0.0, lam) for lam in LAMBDA_LADDER],
    "fig3": [(float(delta_km), lam) for lam in (1e6, 1.0) for delta_km in range(0, 151, 10)],
}
# The (gap km, λ, e_d) of each curve of a figure preset, and its methods.
_FIGURE_CURVES = {
    "fig4": ([(d, 1e6, _E_D) for d in (0.0, 50.0, 100.0, 150.0)], ("OI", "AF", "PLOB")),
    "fig5": ([(d, 1.0, _E_D) for d in (0.0, 50.0, 100.0, 150.0)], ("OI", "AF", "PLOB")),
    "fig6": ([(50.0, lam, _E_D) for lam in LAMBDA_LADDER], ("OI", "PLOB")),
    "fig7": ([(d, 1e6, e) for e in (0.04, 0.12, 0.2) for d in (0.0, 50.0, 100.0)], ("OI", "PLOB")),
}
MODES = (*_PRESET_POINTS, *_FIGURE_CURVES, "custom")
# Figure sweeps stop a curve once the OI rate drops below this.
CURVE_CUTOFF = 1e-12
MAX_TOTAL_KM = 600.0
# A distance grid holds at most this many totals per gap (the presets: <= 119).
MAX_GRID_TOTALS = 10_000


class SweepValidationError(ValueError):
    """A sweep specification is malformed."""


@dataclass(frozen=True)
class SweepSpec:
    """Declarative sweep description.

    Distance grids are in total communication distance (both arms).  Preset
    modes carry the corresponding table/figure parameterization; only the
    distance grid, seed, output path, worker count and Monte Carlo round
    count may be overridden for them.
    """

    mode: str = "custom"
    distance_start: float | None = None
    distance_stop: float | None = None
    distance_step: float | None = None
    delta_list: tuple[float, ...] | None = None
    lambda_list: tuple[float, ...] | None = None
    e_d_list: tuple[float, ...] | None = None
    methods: tuple[str, ...] | None = None
    mu_a: float | None = None
    mu_b: float | None = None
    out: str | None = None
    seed: int = 0
    n_rounds: int = 1_000_000
    workers: int = 1

    def __post_init__(self) -> None:
        # Types first: the value checks below would raise TypeError on a string.
        types = [
            _type_problem(f.name, getattr(self, f.name), from_json=False) for f in fields(self)
        ]
        if any(types):
            raise SweepValidationError("; ".join(filter(None, types)))
        problems: list[str] = []
        if self.mode not in MODES:
            problems.append(f"mode: must be one of {MODES}, got {self.mode!r}")
        grid = (self.distance_start, self.distance_stop, self.distance_step)
        if self.mode == "custom" and None in grid:
            problems.append("distance_start/stop/step: required for custom mode")
        elif any(v is not None and math.isnan(v) for v in grid):
            problems.append(f"distance_start/stop/step: must not be NaN, got {grid}")
        elif self.distance_step is not None and self.distance_step <= 0:
            problems.append("distance grid: step must be > 0")
        elif None not in grid[:2] and self.distance_stop < self.distance_start:
            problems.append("distance grid: stop must be >= start")
        else:  # counted, not built; gap 0 has the smallest default start
            start, stop, step = _grid_range(self, 0.0)
            if not (stop - start) / step < MAX_GRID_TOTALS:
                problems.append(
                    f"distance_start/stop/step: a grid holds at most {MAX_GRID_TOTALS} "
                    f"totals per gap, got [{start:g}, {stop:g}] km in steps of {step:g} km"
                )
        if self.mode == "custom":
            if not self.delta_list:
                problems.append("delta_list: must be nonempty")
            elif not all(0.0 <= d < math.inf for d in self.delta_list):
                problems.append("delta_list: gaps must be finite and >= 0 km")
            if not self.lambda_list:
                problems.append("lambda_list: must be nonempty")
            elif not all(is_pairing_interval(lam) for lam in self.lambda_list):
                problems.append("lambda_list: intervals must be integers >= 1 or inf")
            if not self.e_d_list:
                problems.append("e_d_list: must be nonempty")
            elif any(not 0.0 <= e <= 0.5 for e in self.e_d_list):
                problems.append("e_d_list: misalignment must be in [0, 0.5]")
            if not self.methods:
                problems.append("methods: must be nonempty")
            elif any(m not in METHODS for m in self.methods):
                problems.append(f"methods: must be a subset of {METHODS}")
            if self.methods and "fixed-intensity" in self.methods:
                if self.mu_a is None or self.mu_b is None:
                    problems.append("mu_a/mu_b: required for the fixed-intensity method")
                for name in ("mu_a", "mu_b"):
                    mu = getattr(self, name)
                    if mu is not None and not 0.0 < mu <= 1.0:
                        problems.append(f"{name}: intensity must be in (0, 1], got {mu!r}")
        else:
            for name in ("delta_list", "lambda_list", "e_d_list", "methods", "mu_a", "mu_b"):
                if getattr(self, name) is not None:
                    problems.append(f"{name}: not overridable in preset mode {self.mode!r}")
        if self.out is not None and not isinstance(self.out, str):
            problems.append(f"out: must be a path string, got {self.out!r}")
        for name, low in (("seed", 0), ("n_rounds", 1), ("workers", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                problems.append(f"{name}: must be an integer, got {value!r}")
            elif value < low:
                problems.append(f"{name}: must be >= {low}")
        if problems:
            raise SweepValidationError("; ".join(problems))


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object's dict; a key given twice is an error, not a last value."""
    counts = Counter(key for key, _ in pairs)
    repeated = sorted(key for key, count in counts.items() if count > 1)
    if repeated:
        raise SweepValidationError(f"duplicate keys: {', '.join(repeated)}")
    return dict(pairs)


def load_spec(source: str | dict[str, Any]) -> SweepSpec:
    """Parse a spec from a JSON file path or a dict; unknown or repeated keys rejected."""
    if isinstance(source, str):
        with open(source) as handle:
            data = json.load(handle, object_pairs_hook=_unique_keys)
    else:
        data = dict(source)
    if not isinstance(data, dict):
        raise SweepValidationError("spec document must be a JSON object")
    known = {f.name for f in fields(SweepSpec)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise SweepValidationError(f"unknown keys: {', '.join(unknown)}")
    env_seed = os.environ.get("MPQKD_SEED")
    if env_seed is not None:
        try:
            data["seed"] = int(env_seed)
        except ValueError:
            raise SweepValidationError(
                f"MPQKD_SEED: must be an integer, got {env_seed!r}"
            ) from None
    problems = [_type_problem(name, value) for name, value in data.items()]
    problems = [problem for problem in problems if problem]
    if problems:
        raise SweepValidationError("; ".join(problems))
    for name in ("delta_list", "e_d_list", "methods"):
        if data.get(name) is not None:
            data[name] = tuple(data[name])
    if data.get("lambda_list") is not None:
        try:
            data["lambda_list"] = tuple(parse_pairing_interval(v) for v in data["lambda_list"])
        except ValueError as exc:
            raise SweepValidationError(f"lambda_list: {exc}") from None
    return SweepSpec(**data)


def _is_number(value: Any, finite: bool) -> bool:
    """A real number and not a bool; also finite, when asked."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    return real and (not finite or math.isfinite(value))


def _type_problem(name: str, value: Any, from_json: bool = True) -> str | None:
    """Why a spec value has the wrong type for its key, or None.  A JSON
    number must be finite (Python's json reads NaN and Infinity too), and a
    JSON lambda_list may hold strings such as "inf"; a spec built in Python
    may hold NaN and inf, which its value checks judge, and no strings."""
    if value is None or name in ("mode", "out", "seed", "n_rounds", "workers"):
        return None  # optional keys; SweepSpec checks the mode, out and the integers
    if name == "methods":
        ok = isinstance(value, (list, tuple))
        return None if ok else f"methods: must be a list, got {value!r}"
    if name.endswith("_list"):
        ok = isinstance(value, (list, tuple)) and all(
            _is_number(v, from_json) or (from_json and name == "lambda_list" and isinstance(v, str))
            for v in value
        )
        return None if ok else f"{name}: must be a list of numbers, got {value!r}"
    return None if _is_number(value, from_json) else f"{name}: must be a number, got {value!r}"


@dataclass(frozen=True)
class ResultRow:
    """One evaluated sweep point; the field order is the CSV column order."""

    total_km: float
    distance_a_km: float
    distance_b_km: float
    delta_km: float
    lam: float
    e_d: float
    method: str
    mu_a: float | None
    mu_b: float | None
    rate: float
    plob: float
    plob_det: float
    p: float | None = None
    r_p: float | None = None
    r_s: float | None = None
    q_bar_11: float | None = None
    e_z: float | None = None
    y_11: float | None = None
    e_11: float | None = None
    raw_rate: float | None = None


CSV_COLUMNS = ["lambda" if f.name == "lam" else f.name for f in fields(ResultRow)]


def _arms(total_km: float, delta_km: float) -> tuple[float, float]:
    """The shorter and the longer arm length at a total distance and arm gap."""
    distance_a = (total_km - delta_km) / 2.0
    return distance_a, distance_a + delta_km


def oi_problem(total_km: float, delta_km: float, lam: float, e_d: float) -> OptimizationProblem:
    """The OI problem at a total distance and arm gap: the shorter arm is
    (total - gap) / 2 and the gap sets the transmittance ratio."""
    params = SystemParams(e_d=e_d)
    delta = 10.0 ** (params.alpha * delta_km / 10.0)
    return OptimizationProblem(_arms(total_km, delta_km)[0], delta, lam, params)


def af_problem(total_km: float, delta_km: float, lam: float, e_d: float) -> OptimizationProblem:
    """The adding-fiber (AF) problem at a total distance and arm gap: fiber
    pads the shorter arm to the longer one, so both arms are that long."""
    return OptimizationProblem(_arms(total_km, delta_km)[1], 1.0, lam, SystemParams(e_d=e_d))


def _problem(task: tuple) -> OptimizationProblem | None:
    """The problem whose optimum sets a task's intensities, None for PLOB and
    fixed intensity."""
    total_km, delta_km, lam, e_d, method, _ = task
    if method == "OI":
        return oi_problem(total_km, delta_km, lam, e_d)
    if method == "AF":
        return af_problem(total_km, delta_km, lam, e_d)
    return None


def _optimize(problem: OptimizationProblem) -> OptimumReport:
    """Calls the module global ``optimize_intensities``; a pool pickles this by name."""
    return optimize_intensities(problem)


def _row(task: tuple, optima: dict[OptimizationProblem, OptimumReport]) -> ResultRow:
    """The row of one (geometry, interval, misalignment, method) task."""
    total_km, delta_km, lam, e_d, method, mu_fixed = task
    params = SystemParams(e_d=e_d)
    distance_a, distance_b = _arms(total_km, delta_km)
    plob = plob_bound(total_km, params)
    plob_det = plob_bound(total_km, params, include_detector=True)
    head = (total_km, distance_a, distance_b, delta_km, lam, e_d, method)
    if method == "PLOB":
        return ResultRow(*head, mu_a=None, mu_b=None, rate=plob, plob=plob, plob_det=plob_det)
    problem = _problem(task)
    if problem is None:  # fixed intensity, at the OI geometry
        problem, (mu_a, mu_b) = oi_problem(total_km, delta_km, lam, e_d), mu_fixed
    else:
        mu_a, mu_b = optima[problem].mu_a_star, optima[problem].mu_b_star
    breakdown = key_rate(problem.scenario(mu_a, mu_b))
    return ResultRow(*head, mu_a, mu_b, plob=plob, plob_det=plob_det, **breakdown._asdict())


def _grid_range(spec: SweepSpec, delta_km: float) -> tuple[float, float, float]:
    """(start, stop, step) of the distance grid at one gap, defaults filled in."""
    start = spec.distance_start if spec.distance_start is not None else delta_km + 10.0
    stop = spec.distance_stop if spec.distance_stop is not None else MAX_TOTAL_KM
    step = spec.distance_step if spec.distance_step is not None else 5.0
    return start, stop, step


def _grid_totals(spec: SweepSpec, delta_km: float) -> list[float]:
    """Total distances of the grid at one gap; an empty grid is an error."""
    start, stop, step = _grid_range(spec, delta_km)
    totals = []
    total = max(start, delta_km + 2.0)  # both arms must stay positive
    while total <= stop + 1e-9:
        totals.append(total)
        total += step
    if not totals:
        raise SweepValidationError(
            f"distance grid: no total in [{start:g}, {stop:g}] km fits gap {delta_km:g} km "
            "(a total must be >= gap + 2 km)"
        )
    return totals


def _curves(spec: SweepSpec) -> list[list[list[tuple]]]:
    """Expand a spec into curves of points, each point one task per method.

    Tables, fig3 and custom are one curve holding all their points in row
    order; fig4-fig7 have one curve per (gap, λ, e_d), over the distance grid.
    """
    if spec.mode in _FIGURE_CURVES:
        curves, methods = _FIGURE_CURVES[spec.mode]
        grids = [[(t, d, lam, e_d) for t in _grid_totals(spec, d)] for d, lam, e_d in curves]
    elif spec.mode == "custom":
        methods = spec.methods
        combos = product(spec.delta_list, spec.lambda_list, spec.e_d_list)
        grids = [[(t, d, lam, e_d) for d, lam, e_d in combos for t in _grid_totals(spec, d)]]
    else:
        methods = ("OI",)
        grids = [[(200.0 + d, d, lam, _E_D) for d, lam in _PRESET_POINTS[spec.mode]]]
    mu_fixed = (spec.mu_a, spec.mu_b)
    return [[[(*point, m, mu_fixed) for m in methods] for point in grid] for grid in grids]


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def __getattr__(name: str) -> Any:
    # The pool module loads multiprocessing, so it loads when a pool starts.
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def run_sweep(spec: SweepSpec) -> list[ResultRow]:
    """Expand and evaluate a sweep; writes the CSV when an output path is set.

    Phase one optimizes each distinct problem of the OI and AF tasks once
    (an AF task often poses a gap-0 OI task's), in one ``map``: the builtin
    one, or a process pool's if more than one worker gets a problem and a
    CPU.  Phase two builds the rows from those optima and cuts each figure
    curve after its first point whose OI rate is below ``CURVE_CUTOFF``.
    """
    curves = _curves(spec)
    tasks = (task for curve in curves for point in curve for task in point)
    problems = list(dict.fromkeys(p for p in map(_problem, tasks) if p is not None))
    workers = min(spec.workers, len(problems), _cpu_count())
    if workers > 1:
        # Read off the module when a pool starts, so that a replacement set
        # on it is used and the pool module loads only here.
        with sys.modules[__name__].ProcessPoolExecutor(max_workers=workers) as pool:
            optima = dict(zip(problems, pool.map(_optimize, problems)))
    else:
        optima = dict(zip(problems, map(_optimize, problems)))
    cut_off = spec.mode in _FIGURE_CURVES
    rows: list[ResultRow] = []
    for curve in curves:
        for point in curve:
            point_rows = [_row(task, optima) for task in point]
            rows.extend(point_rows)
            if cut_off and next(r.rate for r in point_rows if r.method == "OI") < CURVE_CUTOFF:
                break
    if spec.out:
        write_rows(rows, spec.out)
    return rows


def _format(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return f"{value:.10g}"


def write_csv(rows: Iterable[ResultRow], handle: TextIO) -> None:
    """Fixed-header CSV emission with 10-significant-digit decimals to an
    open text handle: one line per row, in the fixed column order."""
    handle.write(",".join(CSV_COLUMNS) + "\n")
    for row in rows:
        handle.write(",".join(_format(value) for value in astuple(row)) + "\n")


def write_rows(rows: Iterable[ResultRow], path: str) -> None:
    """The CSV of ``write_csv``, written to a file."""
    try:
        with open(path, "w", newline="") as handle:
            write_csv(rows, handle)
    except OSError as exc:
        raise OSError(f"cannot write sweep output to {path}: {exc}") from exc


def _verification_points(spec: SweepSpec) -> list[tuple[float, float, float]]:
    """(total_km, delta_km, lam) points the verification harness exercises:
    the first total of the grid at each of the first two gaps.  Every gap's
    grid is validated first, as ``run`` does, so no point is evaluated for a
    spec that ``run`` rejects."""
    deltas = spec.delta_list or (0.0,)
    lam = (spec.lambda_list or (100.0,))[0]
    firsts = [_grid_totals(spec, delta_km)[0] for delta_km in deltas]
    return [(total, delta_km, lam) for total, delta_km in zip(firsts[:2], deltas)]


def _check(label: str, name: str, passed: bool, deviation: float) -> dict[str, Any]:
    return {"check": f"{label}:{name}", "passed": passed, "deviation": deviation}


def _monte_carlo_checks(
    scenario: Scenario, reference: KeyRateBreakdown, spec: SweepSpec, stream: int, label: str
) -> list[dict[str, Any]]:
    """Simulate, pair, sift and compare p, r_p and r_s with the analytic
    model's ``reference``.  The round and pair columns are freed on return,
    so only one point's columns are alive at a time."""
    rounds = simulate_rounds(scenario, spec.n_rounds, spec.seed, stream=stream)
    pairs = sift_and_map(rounds, pair_clicks(rounds, scenario.lam), scenario, seed=spec.seed)
    stats = estimate_statistics(pairs, rounds, scenario, spec.seed)
    report = []
    for name, estimate in (("p", stats.p_hat), ("r_p", stats.r_p_hat), ("r_s", stats.r_s_hat)):
        if estimate is None:
            report.append(_check(label, name, False, math.inf))
            continue
        ref = getattr(reference, name)
        band = 3.0 * math.sqrt(max(ref * (1.0 - ref), 1e-300) / estimate.denominator)
        deviation = abs(estimate.value - ref)
        report.append(_check(label, name, deviation <= band, deviation))
    return report


def verify_oracles(spec: SweepSpec) -> list[dict[str, Any]]:
    """Cross-validate the analytic model against the Monte Carlo oracle and
    the decoy bounds at selected grid points.

    Statistical checks compare within 3 reference standard errors; failures
    are reported, not raised.  Point k simulates on stream k of the seed.
    The decoy LPs' solver is loaded first, so a scipy without it fails
    before any point is evaluated.
    """
    load_highs()
    params = SystemParams(e_d=spec.e_d_list[0] if spec.e_d_list else _E_D)
    report: list[dict[str, Any]] = []
    for point_index, (total, delta_km, lam) in enumerate(_verification_points(spec)):
        problem = oi_problem(total, delta_km, lam, params.e_d)
        optimum = optimize_intensities(problem)
        scenario = problem.scenario(optimum.mu_a_star, optimum.mu_b_star)
        label = f"point{point_index}(total={total:g},gap={delta_km:g},lam={lam:g})"
        breakdown = key_rate(scenario)  # the decoy scenario's too: nu does not enter key_rate
        report += _monte_carlo_checks(scenario, breakdown, spec, point_index, label)

        decoy_scenario = replace(scenario, nu_a=scenario.mu_a / 5.0, nu_b=scenario.mu_b / 5.0)
        config = decoy_config_for(decoy_scenario)
        bounds = bound_single_photon(expected_observables(decoy_scenario, config), config)
        true_m = single_photon_z_yield(decoy_scenario)
        true_e = single_photon_z_error_yield(decoy_scenario)
        decoy_rate = decoy_key_rate(bounds, breakdown.r_p * breakdown.r_s, breakdown.e_z, params)
        bracketed = (
            bounds.m_z_11_lower <= true_m * (1 + 1e-9)
            and bounds.e_z_11_upper >= true_e * (1 - 1e-9)
        )
        deviation = max(bounds.m_z_11_lower - true_m, true_e - bounds.e_z_11_upper)
        report.append(_check(label, "decoy_bracket", bracketed, deviation))
        bounded = decoy_rate <= breakdown.rate + 1e-12
        report.append(_check(label, "decoy_rate_bounded", bounded, decoy_rate - breakdown.rate))
    return report
