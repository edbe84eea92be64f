"""Pulse-intensity optimization, the closed-form optima and the PLOB bound.

The key-rate surface over (mu_a, mu_b) has a single peak, so a coarse grid
scan followed by derivative-free simplex refinement locates the global
maximizer reliably.  The grid is one array evaluation
(:meth:`OptimizationProblem.rate_grid`); the grid's best rate and the
refinement use the scalar :meth:`OptimizationProblem.rate`.  The refinement is
a bounded Nelder-Mead on Python floats (:func:`_nelder_mead`) that evaluates
the points scipy's would, in the same order.  A short Newton polish on
central finite differences sharpens the final point to well below the 1e-4
intensity tolerance, which also lets the optimizer reproduce the closed-form
stationary points of the linearized model to ~1e-9.  The polish and the
final stationarity test run on floats too, the polish's 2x2 solved in closed form.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable

import numpy as np

from .model import (
    Scenario,
    SystemParams,
    is_pairing_interval,
    key_rate,
    key_rate_grid,
    transmittance_from_distance,
)

__all__ = [
    "OptimizationProblem",
    "OptimumReport",
    "optimize_intensities",
    "closed_form_asymptotic",
    "plob_bound",
]

# Intensities are clamped away from zero during refinement so the Poisson
# weights stay well-defined.
_MU_MIN = 1e-6
_MU_MAX = 1.0
_GRID_RESOLUTION = 64
_GRID_TIE_TOL = 1e-15
_FD_STEP = 1e-5  # finite-difference step of the Newton polish and the stationarity test


@dataclass(frozen=True)
class OptimizationProblem:
    """Key-rate maximization over (mu_a, mu_b) at a fixed channel geometry.

    The geometry is given by the shorter arm length and the transmittance
    ratio delta = eta_a / eta_b >= 1, both finite.
    """

    distance_a_km: float
    delta: float
    lam: float
    params: SystemParams = SystemParams()

    def __post_init__(self) -> None:
        # written so that NaN fails each check
        if not 0.0 < self.distance_a_km < math.inf:
            raise ValueError(f"arm length must be finite and > 0 km, got {self.distance_a_km}")
        if not 1.0 <= self.delta < math.inf:
            raise ValueError(f"transmittance ratio must be finite and >= 1, got {self.delta}")
        if not is_pairing_interval(self.lam):
            raise ValueError(f"pairing interval must be an integer >= 1 or inf, got {self.lam}")

        eta_a = transmittance_from_distance(self.distance_a_km, self.params)
        eta_b = eta_a / self.delta
        if eta_b == 0.0:  # eta_b <= eta_a, so this catches eta_a == 0 too
            raise ValueError(
                f"arm transmittance underflows to 0 at arm length {self.distance_a_km} km "
                f"and transmittance ratio {self.delta} (eta_a = {eta_a}, eta_b = {eta_b})"
            )
        object.__setattr__(self, "_etas", (eta_a, eta_b))  # once per problem

    def scenario(self, mu_a: float, mu_b: float) -> Scenario:
        return Scenario(*self._etas, mu_a, mu_b, self.lam, self.params)

    def rate(self, mu_a: float, mu_b: float) -> float:
        return key_rate(self.scenario(mu_a, mu_b)).rate

    def rate_grid(self, mu_a: np.ndarray, mu_b: np.ndarray) -> np.ndarray:
        """The rate broadcast over intensity arrays."""
        return key_rate_grid(self.scenario(1.0, 1.0), mu_a, mu_b)


@dataclass(frozen=True)
class OptimumReport:
    """Result of an intensity optimization.  ``evaluations`` counts its
    scalar rate evaluations, a cost that equality ignores."""

    mu_a_star: float
    mu_b_star: float
    r_star: float
    iterations: int
    converged: bool
    evaluations: int = field(compare=False)


def _grid_best(rates: np.ndarray) -> int:
    """Index of the first rate that no later one beats by more than the tie
    tolerance: scanning in order, a rate wins only if it beats the running
    best by more than ``_GRID_TIE_TOL``, so ties keep the earlier index.

    The running best never falls more than the tolerance below the running
    maximum, so only a strict new running maximum can win; the scan visits
    those alone.  NaN never wins, and index 0 wins if nothing does.
    """
    before = np.fmax.accumulate(np.concatenate(([-math.inf], rates[:-1])))
    candidates = np.flatnonzero(rates > before)
    best, k_best = -math.inf, 0
    for k, r in zip(candidates.tolist(), rates[candidates].tolist()):
        if r > best + _GRID_TIE_TOL:
            best, k_best = r, k
    return k_best


def _grid_scan(problem: OptimizationProblem) -> tuple[float, float, float]:
    """Best point of a uniform grid over (0, 1]^2, with its scalar rate.

    The grid is one ``rate_grid`` call, scanned in row-major order by
    :func:`_grid_best`, so ties keep the smaller mu_a (then smaller mu_b)
    for deterministic output.  The returned rate is the scalar one at the
    chosen point, the value the refinement compares against.
    """
    resolution = _GRID_RESOLUTION
    mu = [i / resolution for i in range(1, resolution + 1)]
    axis = np.array(mu)
    k_best = _grid_best(problem.rate_grid(axis[:, None], axis).ravel())
    mu_a, mu_b = mu[k_best // resolution], mu[k_best % resolution]
    return problem.rate(mu_a, mu_b), mu_a, mu_b


def _clip(a: float, b: float) -> tuple[float, float]:  # NaN stays NaN
    lo, hi = _MU_MIN, _MU_MAX
    return (lo if a < lo else hi if a > hi else a, lo if b < lo else hi if b > hi else b)


class _MaxFev(Exception):
    """A Nelder-Mead run spent its evaluation budget."""


def _nelder_mead(f, simplex, xatol: float, fatol: float, maxiter: int = 500, maxfev: int = 1200):
    """Minimize f(a, b) over [_MU_MIN, _MU_MAX]^2 from a simplex of three
    (a, b) tuples; returns the best vertex and the iteration count.

    Step for step this is scipy's bounded Nelder-Mead (reflection 1,
    expansion 2, contraction and shrink 1/2, vertices above the box reflected
    into it, every point clipped, at most ``maxfev`` calls of f and
    ``maxiter`` iterations counted from 1): the same points in the same order.
    """
    def func(x: tuple[float, float]) -> float:
        nonlocal calls
        if calls >= maxfev:
            raise _MaxFev
        calls += 1
        return f(*x)

    def trial(c: float) -> tuple[float, float]:  # (1 + c) centroid - c worst
        return _clip((1.0 + c) * ma - c * a2, (1.0 + c) * mb - c * b2)

    # [value, vertex] pairs, ranked by list.sort: stable, as numpy's argsort
    # is on 3 entries.  A vertex not yet evaluated has the value inf.
    reflected = ([2.0 * _MU_MAX - v if v > _MU_MAX else v for v in x] for x in simplex)
    sim = [[math.inf, _clip(*x)] for x in reflected]
    calls, iterations = 0, 1
    try:
        for vertex in sim:
            vertex[0] = func(vertex[1])
        sim.sort(key=itemgetter(0))
        while calls < maxfev and iterations < maxiter:
            (f0, (a0, b0)), (f1, (a1, b1)), (f2, (a2, b2)) = sim
            x_spread = max(abs(a1 - a0), abs(b1 - b0), abs(a2 - a0), abs(b2 - b0))
            if x_spread <= xatol and max(abs(f0 - f1), abs(f0 - f2)) <= fatol:
                break
            ma, mb = (a0 + a1) / 2, (b0 + b1) / 2  # the centroid of the two best
            xr = trial(1.0)
            fxr = func(xr)
            if fxr < f0:
                xe = trial(2.0)
                fxe = func(xe)
                sim[2] = [fxe, xe] if fxe < fxr else [fxr, xr]
            elif fxr < f1:
                sim[2] = [fxr, xr]
            else:  # contract outside the simplex, or inside it
                outside = fxr < f2
                xc = trial(0.5 if outside else -0.5)
                fxc = func(xc)
                if (fxc <= fxr) if outside else (fxc < f2):
                    sim[2] = [fxc, xc]
                else:  # shrink toward the best vertex, moving each before it is evaluated
                    for vertex in sim[1:]:
                        a, b = vertex[1]
                        vertex[1] = _clip(a0 + 0.5 * (a - a0), b0 + 0.5 * (b - b0))
                        vertex[0] = func(vertex[1])
            iterations += 1
            sim.sort(key=itemgetter(0))
    except _MaxFev:
        sim.sort(key=itemgetter(0))
    return sim[0][1], iterations


def _gradient(rate: Callable[[float, float], float], a: float, b: float) -> tuple[float, float]:
    """Central differences of step ``_FD_STEP``, each stencil clipped to the box."""
    h = _FD_STEP
    a_lo, a_hi = _clip(a - h, b), _clip(a + h, b)
    b_lo, b_hi = _clip(a, b - h), _clip(a, b + h)
    return (
        (rate(*a_hi) - rate(*a_lo)) / (a_hi[0] - a_lo[0]),
        (rate(*b_hi) - rate(*b_lo)) / (b_hi[1] - b_lo[1]),
    )


def _newton_polish(
    rate: Callable[[float, float], float], a: float, b: float
) -> tuple[float, float, int]:
    """Up to three finite-difference Newton steps near an interior maximum;
    returns the point reached and the steps taken.

    Runs only while the point is ten stencil steps inside the box.  A step is
    rejected if it exceeds the trust radius, the Hessian is singular (the 2x2
    system is solved in closed form) or the rate falls.
    """
    h, used, fx = _FD_STEP, 0, rate(a, b)
    for _ in range(3):
        if min(a, b) - _MU_MIN < 10.0 * h or _MU_MAX - max(a, b) < 10.0 * h:
            break
        g_a, g_b = _gradient(rate, a, b)
        h_aa = (rate(a + h, b) + rate(a - h, b) - 2.0 * fx) / (h * h)
        h_bb = (rate(a, b + h) + rate(a, b - h) - 2.0 * fx) / (h * h)
        h_ab = (
            rate(a + h, b + h) - rate(a + h, b - h) - rate(a - h, b + h) + rate(a - h, b - h)
        ) / (4.0 * h * h)
        det = h_aa * h_bb - h_ab * h_ab
        if det == 0.0:
            break
        d_a, d_b = (h_ab * g_b - h_bb * g_a) / det, (h_ab * g_a - h_aa * g_b) / det
        if not (abs(d_a) <= 1e-2 and abs(d_b) <= 1e-2):  # NaN fails too
            break
        candidate = _clip(a + d_a, b + d_b)
        f_candidate = rate(*candidate)
        if f_candidate < fx:
            break
        (a, b), fx = candidate, f_candidate
        used += 1
        if max(abs(d_a), abs(d_b)) < 1e-12:
            break
    return a, b, used


def _stationary(rate: Callable[[float, float], float], a: float, b: float, r: float) -> bool:
    """First-order optimality at (a, b), treating box-boundary coordinates by
    the sign of the one-sided derivative."""
    tol = 1e-6 * max(r, 1e-300)
    for v, g in zip((a, b), _gradient(rate, a, b)):
        at_upper, at_lower = v >= _MU_MAX - 1e-9, v <= _MU_MIN + 1e-9
        if abs(g) > tol and not (at_upper and g >= -tol or at_lower and g <= tol):
            return False
    return True


def optimize_intensities(problem: OptimizationProblem) -> OptimumReport:
    """Locate the intensities maximizing the key rate for a problem.

    Stage 1 scans a uniform grid over (0, 1]^2 to find the basin; stage 2
    refines with two bounded Nelder-Mead runs (:func:`_nelder_mead`) plus a
    Newton polish.  If the rate is zero everywhere on the grid (e.g. beyond
    the distance cutoff), the report comes back non-converged with r_star == 0.
    """
    # Nelder-Mead's start and result, the polish's stencils and the final
    # checks revisit points already evaluated; each is computed once.  The
    # grid's best point is evaluated outside the memo: one evaluation more.
    rate = functools.cache(problem.rate)
    r_grid, mu_a0, mu_b0 = _grid_scan(problem)
    if r_grid <= 0.0:
        return OptimumReport(mu_a0, mu_b0, 0.0, 0, False, 1)

    # Start strictly inside the box: a start (or simplex vertex) pinned on
    # the boundary degenerates under Nelder-Mead's bound clipping and can
    # leave the search stuck along an edge.
    pull = 1.0 / _GRID_RESOLUTION
    x = tuple(min(max(v, _MU_MIN + pull), _MU_MAX - pull) for v in (mu_a0, mu_b0))
    iterations, fatol = 0, 1e-13 * max(r_grid, 1e-300)
    for step in (1.0 / (2.0 * _GRID_RESOLUTION), 2e-3):
        a, b = (v + step if v + step <= _MU_MAX else v - step for v in x)
        simplex = [x, (a, x[1]), (x[0], b)]
        # x, vertex 0, lies inside the box, and Nelder-Mead never trades its
        # best vertex for a worse one: the result is never worse than x.
        x, nit = _nelder_mead(lambda u, v: -rate(u, v), simplex, 1e-9, fatol)
        iterations += nit
    if rate(*x) < r_grid:
        x = (mu_a0, mu_b0)
    a, b, polish_steps = _newton_polish(rate, *x)
    r_star = rate(a, b)
    converged, evaluations = _stationary(rate, a, b, r_star), 1 + rate.cache_info().misses
    return OptimumReport(a, b, r_star, iterations + polish_steps, converged, evaluations)


def closed_form_asymptotic(delta: float, regime: str) -> tuple[float, float]:
    """Closed-form optimal intensities of the linearized model.

    ``regime`` selects the pairing-interval limit: "lambda_infinite" gives
    mu_a + mu_b = 1 with mu_b / mu_a = sqrt(delta); "lambda_one" gives
    (1, 1) for moderate asymmetry.
    """
    if not 1.0 <= delta < math.inf:  # written so that NaN fails
        raise ValueError(f"transmittance ratio must be finite and >= 1, got {delta}")
    if regime == "lambda_one":
        return (1.0, 1.0)
    if regime != "lambda_infinite":
        raise ValueError(f"regime must be 'lambda_infinite' or 'lambda_one', got {regime!r}")
    if delta == 1.0:
        return (0.5, 0.5)
    root = math.sqrt(delta)
    return ((root - 1.0) / (delta - 1.0), (delta - root) / (delta - 1.0))


def plob_bound(
    total_distance_km: float, params: SystemParams, include_detector: bool = False
) -> float:
    """Repeaterless secret-key capacity -log2(1 - eta) of the end-to-end
    channel.

    By default the transmittance is channel-only (detector efficiency
    excluded).  ``include_detector`` folds one factor of eta_d into the
    bound; that variant is the comparison line the crossover analyses use,
    since the protocol rates carry the measurement node's detectors while
    the fiber-only bound does not.  A lossless channel returns math.inf as
    the unbounded sentinel.
    """
    if not total_distance_km >= 0.0:  # written so that NaN fails
        raise ValueError(f"distance must be >= 0 km, got {total_distance_km}")
    eta = 10.0 ** (-params.alpha * total_distance_km / 10.0)
    if include_detector:
        eta *= params.eta_d
    if eta >= 1.0:
        return math.inf
    return -math.log1p(-eta) / math.log(2.0)

