"""Tests for intensity optimization, closed forms and baselines."""
import itertools
import math
import random
import re
from functools import lru_cache
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpqkd import optimize
from mpqkd.model import SystemParams, key_rate, transmittance_from_distance
from mpqkd.optimize import (
    _GRID_TIE_TOL,
    _MU_MAX,
    _MU_MIN,
    OptimizationProblem,
    OptimumReport,
    _grid_best,
    _grid_scan,
    _nelder_mead,
    _newton_polish,
    closed_form_asymptotic,
    optimize_intensities,
    plob_bound,
)
from mpqkd.sweep import af_problem, oi_problem
from oracles import (
    LinearizedProblem,
    loop_grid_best,
    scipy_nelder_mead,
    scipy_optimize_intensities,
)

PARAMS = SystemParams()


def per_point_grid_scan(rate, resolution):
    """Reference: the grid scan as one scalar rate call per point."""
    best = (-math.inf, 0.0, 0.0)
    for i in range(1, resolution + 1):
        mu_a = i / resolution
        for j in range(1, resolution + 1):
            mu_b = j / resolution
            r = rate(mu_a, mu_b)
            if r > best[0] + _GRID_TIE_TOL:
                best = (r, mu_a, mu_b)
    return best


class TestProblemValidation:
    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            OptimizationProblem(0.0, 1.0, 1e6)
        with pytest.raises(ValueError):
            OptimizationProblem(100.0, 0.5, 1e6)
        with pytest.raises(ValueError):
            OptimizationProblem(100.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            OptimizationProblem(100.0, 1.0, 2.5)
        for flag in (True, np.True_):  # True == 1, but a flag is no interval
            with pytest.raises(ValueError, match="pairing interval must be an integer >= 1"):
                OptimizationProblem(100.0, 1.0, flag)
        for distance_a in (math.nan, math.inf):
            with pytest.raises(ValueError, match="arm length must be finite"):
                OptimizationProblem(distance_a, 10.0, 1e6)
        for delta in (math.nan, math.inf):
            with pytest.raises(ValueError, match="transmittance ratio must be finite"):
                OptimizationProblem(100.0, delta, 1e6)

    @pytest.mark.parametrize(
        "distance_a, delta",
        [(20000.0, 1.0), (1000.0, 1e308)],
        ids=["both-arms", "longer-arm"],
    )
    def test_rejects_transmittance_underflow(self, distance_a, delta):
        # eta_a == 0, or eta_a > 0 with eta_a / delta == 0
        message = f"underflows to 0 at arm length {distance_a} km and transmittance ratio {delta}"
        with pytest.raises(ValueError, match=re.escape(message)):
            OptimizationProblem(distance_a, delta, 100.0)
        OptimizationProblem(1000.0, 1e200, 100.0)  # eta_b ~ 2e-301 is no underflow

    def test_arm_b_length_follows_ratio(self):
        problem = OptimizationProblem(100.0, 10.0, 1e6)
        # one decade of transmittance ratio is 50 km at 0.2 dB/km
        assert problem.scenario(1.0, 1.0).eta_b == pytest.approx(
            transmittance_from_distance(150.0, PARAMS), rel=1e-12
        )


class TestOptimizerAgainstTables:
    def test_asymmetric_interval_1e6(self):
        report = optimize_intensities(OptimizationProblem(100.0, 10.0, 1e6))
        assert report.converged
        assert report.mu_a_star == pytest.approx(0.2402, abs=5e-3)
        assert report.mu_b_star == pytest.approx(0.7594, abs=5e-3)
        assert report.mu_b_star / report.mu_a_star == pytest.approx(3.1615, abs=2e-2)

    def test_asymmetric_interval_one(self):
        report = optimize_intensities(OptimizationProblem(100.0, 10.0, 1))
        assert report.converged
        assert report.mu_a_star == pytest.approx(0.9802, abs=5e-3)
        assert report.mu_b_star == pytest.approx(0.9962, abs=5e-3)

    def test_symmetric_result_is_symmetric(self):
        report = optimize_intensities(OptimizationProblem(100.0, 1.0, 1))
        assert abs(report.mu_a_star - report.mu_b_star) < 1e-3

    def test_report_dominates_grid(self):
        problem = OptimizationProblem(100.0, 10.0, 1e3)
        report = optimize_intensities(problem)
        # np.float64 subclasses float, so isinstance alone would not tell
        assert type(report.r_star) is float
        for i in range(1, 9):
            for j in range(1, 9):
                assert report.r_star >= problem.rate(i / 8.0, j / 8.0)

    def test_stationarity_at_interior_optimum(self):
        problem = OptimizationProblem(100.0, 10.0, 1e6)
        report = optimize_intensities(problem)
        h = 1e-5
        x, y = report.mu_a_star, report.mu_b_star
        g_a = (problem.rate(x + h, y) - problem.rate(x - h, y)) / (2 * h)
        g_b = (problem.rate(x, y + h) - problem.rate(x, y - h)) / (2 * h)
        assert abs(g_a) < 1e-6 * report.r_star
        assert abs(g_b) < 1e-6 * report.r_star

    def test_beyond_cutoff_reports_nonconverged_zero(self):
        report = optimize_intensities(OptimizationProblem(900.0, 1.0, 1e6))
        assert report.r_star == 0.0
        assert not report.converged

    def test_deterministic(self):
        problem = OptimizationProblem(100.0, 10.0, 1e3)
        a = optimize_intensities(problem)
        b = optimize_intensities(problem)
        assert (a.mu_a_star, a.mu_b_star, a.r_star) == (b.mu_a_star, b.mu_b_star, b.r_star)

    @pytest.mark.parametrize("lam", [1.0, 1e6, math.inf])
    def test_each_point_evaluated_once(self, monkeypatch, lam):
        problem = OptimizationProblem(100.0, 10.0, lam)
        calls = []

        def counting_key_rate(scenario):
            calls.append((scenario.mu_a, scenario.mu_b))
            return key_rate(scenario)

        monkeypatch.setattr(optimize, "key_rate", counting_key_rate)
        report = optimize_intensities(problem)
        # at most the grid's chosen point, the Nelder-Mead start, is evaluated twice
        assert len(calls) <= len(set(calls)) + 1
        if lam == 1e6:
            assert len(calls) <= 212
        assert report.evaluations == len(calls)
        # the same report when every visit re-evaluates the rate (a cache of
        # size 0 counts every call as a miss)
        calls.clear()
        monkeypatch.setattr(optimize, "functools", SimpleNamespace(cache=lru_cache(maxsize=0)))
        uncached = optimize_intensities(problem)
        assert uncached == report
        assert uncached.evaluations == len(calls) > report.evaluations


# Optima as the scipy-backed refinement gave them, pinned bit for bit, so any
# drift in the optimizer's arithmetic fails here and not only in the CSV digests.
# The last field is the evaluation count, which report equality ignores.
GOLDEN_OPTIMA = {
    "interior": (
        OptimizationProblem(100.0, 10.0, 1e6),
        OptimumReport(0.2401379134248034, 0.7589593206329682, 3.974069770530219e-06, 97, True, 211),
    ),
    "lambda-1": (
        OptimizationProblem(100.0, 10.0, 1),
        OptimumReport(0.9799893272106875, 0.9960840921424374, 5.0117577680059544e-09, 97, True, 219),
    ),
    "lambda-1-corner": (
        OptimizationProblem(100.0, 1.0, 1),
        OptimumReport(0.9965774094131081, 0.9965774172470758, 5.093557398762843e-08, 95, True, 210),
    ),
    "symmetric-inf": (
        OptimizationProblem(100.0, 1.0, math.inf),
        OptimumReport(0.5002447086272053, 0.5002446990037372, 1.7378274839490703e-05, 96, True, 213),
    ),
    "cli-example": (
        OptimizationProblem(80.0, 7.5, 1000),
        OptimumReport(0.4244441664473245, 0.8465207609978914, 1.009194771440407e-05, 91, True, 205),
    ),
    "delta-1000": (
        OptimizationProblem(50.0, 1000.0, 1e3),
        OptimumReport(0.18273432152855573, 0.9869982379333067, 4.909403963910798e-07, 101, True, 220),
    ),
    "short-arm": (
        OptimizationProblem(1.0, 1.0, 1e6),
        OptimumReport(0.5370670635967391, 0.5370670678941546, 0.0017894999945143805, 94, True, 209),
    ),
    "e_d-0.12": (
        OptimizationProblem(150.0, 10.0, 1e4, SystemParams(e_d=0.12)),
        OptimumReport(0.5044393012593802, 0.8936262803622346, 1.1307257323466519e-07, 103, True, 226),
    ),
    "p_d-1e-4": (
        OptimizationProblem(30.0, 3.0, 1000, SystemParams(p_d=1e-4)),
        OptimumReport(0.31063403254227995, 0.5304303726828286, 3.79979560076773e-05, 95, True, 208),
    ),
    # the rate peaks at ~1.2e-12: the two Nelder-Mead runs take 342 and 330
    # iterations, and the result is not stationary to tolerance
    "near-cutoff": (
        OptimizationProblem(244.306, 1.0, 1e6),
        OptimumReport(0.39100171329739797, 0.3910017126455189, 1.1882006438662176e-12, 672, False, 408),
    ),
    "beyond-cutoff": (
        OptimizationProblem(250.0, 1.0, 1e6),
        OptimumReport(0.015625, 0.015625, 0.0, 0, False, 1),
    ),
    "far-beyond-cutoff": (
        OptimizationProblem(900.0, 1.0, 1e6),
        OptimumReport(0.015625, 0.015625, 0.0, 0, False, 1),
    ),
    "p_d-1e-2": (
        OptimizationProblem(20.0, 3.0, 1000, SystemParams(p_d=1e-2)),
        OptimumReport(0.015625, 0.015625, 0.0, 0, False, 1),
    ),
}


@pytest.mark.parametrize("name", GOLDEN_OPTIMA)
def test_golden_optimum(name):
    problem, expected = GOLDEN_OPTIMA[name]
    report = optimize_intensities(problem)
    assert report == expected
    assert report.evaluations == expected.evaluations


def traced(f):
    """f and the list of points it is called at, in call order, as floats."""
    points = []

    def g(a, b):
        points.append((float(a), float(b)))
        return f(a, b)

    return g, points


def smooth_objective(rng: random.Random):
    """A random smooth function: a tilted quadratic bowl whose minimum may lie
    outside the box, plus a ripple."""
    ca, cb = rng.uniform(-0.3, 1.3), rng.uniform(-0.3, 1.3)
    saa, sbb, sab = rng.uniform(0.1, 10.0), rng.uniform(0.1, 10.0), rng.uniform(-1.0, 1.0)
    ripple, freq = rng.uniform(0.0, 0.05), rng.uniform(1.0, 20.0)

    def f(a, b):
        da, db = a - ca, b - cb
        wave = ripple * math.sin(freq * a) * math.cos(freq * b)
        return saa * da * da + sbb * db * db + sab * da * db + wave

    return f


def random_simplex(rng: random.Random, kind: str) -> list[tuple[float, float]]:
    if kind == "scattered":  # vertices above the box are reflected, below it clipped
        return [(rng.uniform(-0.2, 1.3), rng.uniform(-0.2, 1.3)) for _ in range(3)]
    step = 10.0 ** rng.uniform(-4.0, -0.5)
    if kind == "edge":
        a, b = rng.choice([_MU_MIN, _MU_MAX]), rng.uniform(_MU_MIN, _MU_MAX)
        a, b = (a, b) if rng.random() < 0.5 else (b, a)
        step *= rng.choice([1.0, -1.0])
    else:
        a, b = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)
    return [(a, b), (a + step, b), (a, b + step)]


class TestNelderMead:
    """The module's Nelder-Mead against scipy's, call for call."""

    @pytest.mark.parametrize(
        "objective, kind",
        [
            ("smooth", "interior"),
            ("smooth", "edge"),
            ("smooth", "scattered"),
            ("flat", "interior"),
            ("flat", "edge"),
            ("quantized", "scattered"),
        ],
    )
    def test_same_points_as_scipy(self, objective, kind):
        rng = random.Random(f"{objective}-{kind}")
        for case in range(40):
            smooth = smooth_objective(rng)
            f = {
                "smooth": smooth,
                "flat": lambda a, b: 0.0,
                "quantized": lambda a, b: round(smooth(a, b), 1),  # many ties
            }[objective]
            simplex = random_simplex(rng, kind)
            xatol, fatol = rng.choice([(1e-9, 1e-13), (1e-4, 1e-4), (1e-6, 0.0)])
            budget = {}
            if case % 3 == 0:  # small enough to bind
                budget = {"maxiter": rng.randint(1, 30), "maxfev": rng.randint(1, 60)}
            ours, ours_points = traced(f)
            theirs, their_points = traced(f)
            x, nit = _nelder_mead(ours, simplex, xatol, fatol, **budget)
            result = scipy_nelder_mead(theirs, simplex, xatol, fatol, **budget)
            label = f"case {case}: simplex {simplex}, budget {budget}"
            assert ours_points == their_points, label
            assert x == (float(result.x[0]), float(result.x[1])), label
            assert nit == result.nit, label

    def test_budget_counts_every_call(self):
        f, points = traced(lambda a, b: a + b)
        simplex = [(0.5, 0.5), (0.6, 0.5), (0.5, 0.6)]
        _nelder_mead(f, simplex, 0.0, 0.0, maxiter=10_000, maxfev=7)
        assert len(points) == 7


def peaked(a: float, b: float) -> float:
    """A concave quadratic rate with its peak 1 at (0.4, 0.6)."""
    return 1.0 - (a - 0.4) ** 2 - 2.0 * (b - 0.6) ** 2 - 0.5 * (a - 0.4) * (b - 0.6)


class TestNewtonPolish:
    def test_converges_on_a_quadratic(self):
        a, b, steps = _newton_polish(peaked, 0.41, 0.59)
        assert abs(a - 0.4) <= 1e-9 and abs(b - 0.6) <= 1e-9
        assert steps == 3

    @pytest.mark.parametrize(
        "rate, start",
        [
            (lambda a, b: 0.5, (0.41, 0.59)),  # singular Hessian
            (lambda a, b: math.nan, (0.41, 0.59)),
            (peaked, (5e-5, 0.59)),  # closer to a bound than ten stencil steps
            (peaked, (0.41, 1.0 - 5e-5)),
            (peaked, (0.3, 0.59)),  # the Newton step exceeds the trust radius
        ],
        ids=["flat", "nan", "near-lower-bound", "near-upper-bound", "beyond-trust-radius"],
    )
    def test_rejected_step_returns_the_start(self, rate, start):
        assert _newton_polish(rate, *start) == (*start, 0)


def test_optimum_equals_scipy_refinement():
    """The optimizer gives the report its scipy-backed form gives, on random
    problems across geometry, interval, dark counts and misalignment."""
    rng = random.Random(17)
    for _ in range(300):
        problem = OptimizationProblem(
            rng.uniform(1.0, 250.0),
            10.0 ** rng.uniform(0.0, 3.0),
            rng.choice([1.0, 2.0, 10.0, 1e3, 1e6, math.inf]),
            SystemParams(p_d=10.0 ** rng.uniform(-10.0, -3.0), e_d=rng.uniform(0.0, 0.15)),
        )
        assert optimize_intensities(problem) == scipy_optimize_intensities(problem), problem


class TestGridScan:
    @pytest.mark.parametrize(
        "problem",
        [
            OptimizationProblem(100.0, 10.0, 1e6),  # interior optimum
            OptimizationProblem(100.0, 1.0, 1),  # lambda = 1: the (1, 1) corner
            OptimizationProblem(100.0, 100.0, math.inf, SystemParams(p_d=1e-4)),
            OptimizationProblem(244.306, 1.0, 1e6),  # best grid rate ~1.2e-12
            OptimizationProblem(250.0, 1.0, 1e6),  # beyond the cutoff: all zero
            LinearizedProblem(100.0, 10.0, math.inf),  # the oracle's per-point grid
        ],
        ids=["interior", "corner", "dark", "near-cutoff", "all-zero", "linearized"],
    )
    def test_matches_per_point_scan(self, problem):
        assert _grid_scan(problem) == per_point_grid_scan(problem.rate, 64)

    @settings(max_examples=60, deadline=None)
    @given(
        distance_a=st.floats(1.0, 300.0),
        delta=st.floats(1.0, 1e3),
        lam=st.sampled_from((1.0, 2.0, 100.0, 1e6, math.inf)),
        p_d=st.sampled_from((0.0, 1.2e-8, 1e-4, 1e-2)),
    )
    def test_matches_per_point_scan_randomized(self, distance_a, delta, lam, p_d):
        problem = OptimizationProblem(distance_a, delta, lam, SystemParams(p_d=p_d))
        with mock.patch.object(optimize, "_GRID_RESOLUTION", 16):
            assert _grid_scan(problem) == per_point_grid_scan(problem.rate, 16)


@st.composite
def near_tie_rates(draw):
    """Grid rates built to probe the tie rule: a walk on a base in steps of
    1e-16, so that a rate beats the ones before it by less than, about or
    more than _GRID_TIE_TOL, with plateaus, NaN, infinities and arbitrary
    floats mixed in."""
    base = draw(st.sampled_from((0.0, 1e-12, 1e-3, 1.0)))
    steps = draw(st.lists(st.integers(-3, 6), min_size=1, max_size=80))
    rates = [base + total * 1e-16 for total in itertools.accumulate(steps)]
    others = st.one_of(
        st.sampled_from((math.nan, -math.inf, math.inf)), st.floats(allow_nan=True)
    )
    for k in draw(st.lists(st.integers(0, len(rates) - 1), max_size=4)):
        rates[k] = draw(others)
    return rates


class TestGridBest:
    @settings(max_examples=500, deadline=None)
    @given(rates=near_tie_rates())
    def test_same_index_as_the_loop(self, rates):
        assert _grid_best(np.array(rates)) == loop_grid_best(rates)

    @pytest.mark.parametrize(
        "rates, expected",
        [
            ([1.0, 1.0 + 5e-16, 1.0 + 1.5e-15], 2),  # the last beats the first by > tol
            ([1.0, 1.0 + 8e-16, 1.0 + 1.6e-15, 1.0 + 2.2e-15], 2),  # a running best lags
            ([math.nan, -math.inf, math.nan], 0),  # nothing wins
            ([-math.inf, math.nan, 0.0, 0.0], 2),
        ],
        ids=["beyond-tol", "lagging-best", "none-wins", "plateau"],
    )
    def test_tie_rule(self, rates, expected):
        assert _grid_best(np.array(rates)) == loop_grid_best(rates) == expected


class TestClosedForm:
    def test_symmetric(self):
        assert closed_form_asymptotic(1.0, "lambda_infinite") == (0.5, 0.5)

    def test_delta_four(self):
        mu_a, mu_b = closed_form_asymptotic(4.0, "lambda_infinite")
        assert mu_a == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert mu_b == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert mu_a + mu_b == pytest.approx(1.0, rel=1e-12)
        assert mu_b / mu_a == pytest.approx(2.0, rel=1e-12)

    def test_delta_hundred_near_paper_values(self):
        mu_a, mu_b = closed_form_asymptotic(100.0, "lambda_infinite")
        assert mu_a == pytest.approx(1.0 / 11.0, rel=1e-12)
        assert mu_b == pytest.approx(10.0 / 11.0, rel=1e-12)
        # within 1% of the full-model optimum that includes dark counts
        assert mu_a == pytest.approx(0.0901, rel=1e-2)
        assert mu_b == pytest.approx(0.9011, rel=1e-2)

    def test_unit_interval_regime(self):
        assert closed_form_asymptotic(7.0, "lambda_one") == (1.0, 1.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            closed_form_asymptotic(0.5, "lambda_infinite")
        with pytest.raises(ValueError):
            closed_form_asymptotic(2.0, "bogus")

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    @pytest.mark.parametrize("regime", ["lambda_infinite", "lambda_one"])
    def test_rejects_non_finite_ratio(self, delta, regime):
        with pytest.raises(ValueError, match="must be finite and >= 1"):
            closed_form_asymptotic(delta, regime)

    @pytest.mark.parametrize("delta", [1.0, 2.0, 10.0, 100.0])
    def test_optimizer_matches_closed_form_on_linearized_model(self, delta):
        problem = LinearizedProblem(100.0, delta, math.inf)
        report = optimize_intensities(problem)
        mu_a, mu_b = closed_form_asymptotic(delta, "lambda_infinite")
        assert report.mu_a_star == pytest.approx(mu_a, abs=1e-6)
        assert report.mu_b_star == pytest.approx(mu_b, abs=1e-6)

    def test_optimizer_hits_boundary_on_linearized_unit_interval(self):
        report = optimize_intensities(LinearizedProblem(100.0, 1.0, 1))
        assert report.mu_a_star == pytest.approx(1.0, abs=1e-3)
        assert report.mu_b_star == pytest.approx(1.0, abs=1e-3)


class TestPlobBound:
    def test_zero_distance_unbounded(self):
        assert plob_bound(0.0, PARAMS) == math.inf

    def test_small_transmittance_expansion(self):
        # -log2(1 - eta) -> eta / ln 2
        eta = 10.0 ** (-PARAMS.alpha * 400.0 / 10.0)
        assert plob_bound(400.0, PARAMS) == pytest.approx(
            eta / math.log(2.0), rel=1e-6, abs=0.0
        )

    def test_300km(self):
        assert plob_bound(300.0, PARAMS) == pytest.approx(1.4427e-6, rel=1e-4)

    def test_detector_variant_is_smaller(self):
        assert plob_bound(300.0, PARAMS, include_detector=True) == pytest.approx(
            0.2 * plob_bound(300.0, PARAMS), rel=1e-5
        )

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            plob_bound(-1.0, PARAMS)

    @pytest.mark.parametrize("include_detector", [False, True])
    def test_nan_distance_rejected(self, include_detector):
        with pytest.raises(ValueError, match="got nan"):
            plob_bound(math.nan, PARAMS, include_detector)


class TestAddingFiber:
    def test_no_gap_matches_symmetric_optimum(self):
        # without a gap there is nothing to pad: AF is the OI problem
        assert af_problem(200.0, 0.0, 1e6, PARAMS.e_d) == oi_problem(200.0, 0.0, 1e6, PARAMS.e_d)

    def test_padding_evaluates_symmetric_curve_at_padded_length(self):
        # a 50 km gap at 250 km total: padding gives the 150 km symmetric arms
        padded = af_problem(250.0, 50.0, 1e6, PARAMS.e_d)
        assert padded == OptimizationProblem(150.0, 1.0, 1e6, PARAMS)

    @pytest.mark.parametrize("delta", [10.0, 100.0, 1000.0])
    def test_never_beats_optimal_intensities(self, delta):
        # the shorter arm is 100 km; a ratio of 10 is a 50 km gap at 0.2 dB/km
        gap_km = 50.0 * math.log10(delta)
        oi = optimize_intensities(oi_problem(200.0 + gap_km, gap_km, 1e6, PARAMS.e_d))
        af = optimize_intensities(af_problem(200.0 + gap_km, gap_km, 1e6, PARAMS.e_d))
        assert oi.r_star > af.r_star
