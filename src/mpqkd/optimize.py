"""Pulse-intensity optimization, the closed-form optima and the PLOB bound.

The key-rate surface over (mu_a, mu_b) has a single peak, so a coarse grid
scan followed by derivative-free simplex refinement locates the global
maximizer reliably.  The grid is one array evaluation
(:meth:`OptimizationProblem.rate_grid`); the grid's best rate and the
refinement use the scalar :meth:`OptimizationProblem.rate`.  A short Newton
polish on central finite differences sharpens the final point to well below
the 1e-4 intensity tolerance, which also lets the optimizer reproduce the
closed-form stationary points of the linearized model to ~1e-9.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import minimize

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

    def scenario(self, mu_a: float, mu_b: float) -> Scenario:
        eta_a = transmittance_from_distance(self.distance_a_km, self.params)
        return Scenario(eta_a, eta_a / self.delta, mu_a, mu_b, self.lam, self.params)

    def rate(self, mu_a: float, mu_b: float) -> float:
        return key_rate(self.scenario(mu_a, mu_b)).rate

    def rate_grid(self, mu_a: np.ndarray, mu_b: np.ndarray) -> np.ndarray:
        """The rate broadcast over intensity arrays."""
        return key_rate_grid(self.scenario(1.0, 1.0), mu_a, mu_b)


@dataclass(frozen=True)
class OptimumReport:
    """Result of an intensity optimization."""

    mu_a_star: float
    mu_b_star: float
    r_star: float
    iterations: int
    converged: bool


def _grid_scan(problem: OptimizationProblem) -> tuple[float, float, float]:
    """Best point of a uniform grid over (0, 1]^2, with its scalar rate.

    The grid is one ``rate_grid`` call.  A later point wins only if it beats
    the running best by more than the tie tolerance, so ties keep the
    smaller mu_a (then smaller mu_b) for deterministic output.  The returned
    rate is the scalar one at the chosen point, the value the refinement
    compares against.
    """
    resolution = _GRID_RESOLUTION
    mu = [i / resolution for i in range(1, resolution + 1)]
    axis = np.array(mu)
    rates = problem.rate_grid(axis[:, None], axis).ravel().tolist()
    best, k_best = -math.inf, 0
    for k, r in enumerate(rates):
        if r > best + _GRID_TIE_TOL:
            best, k_best = r, k
    mu_a, mu_b = mu[k_best // resolution], mu[k_best % resolution]
    return problem.rate(mu_a, mu_b), mu_a, mu_b


def _fd_gradient(rate: Callable[[float, float], float], x: np.ndarray, h: float) -> np.ndarray:
    g = np.zeros(2)
    for k in range(2):
        step = np.zeros(2)
        step[k] = h
        lo = np.clip(x - step, _MU_MIN, _MU_MAX)
        hi = np.clip(x + step, _MU_MIN, _MU_MAX)
        g[k] = (rate(hi[0], hi[1]) - rate(lo[0], lo[1])) / (hi[k] - lo[k])
    return g


def _newton_polish(
    rate: Callable[[float, float], float], x: np.ndarray, h: float = 1e-5, steps: int = 3
) -> tuple[np.ndarray, int]:
    """A few finite-difference Newton steps near an interior maximum.

    Only runs when the point is safely inside the box (the stencil must not
    cross a bound); steps that leave the box, exceed a trust radius, hit a
    non-concave Hessian or fail to improve the rate are rejected.
    """
    used = 0
    fx = rate(x[0], x[1])
    for _ in range(steps):
        if np.min(x - _MU_MIN) < 10.0 * h or np.min(_MU_MAX - x) < 10.0 * h:
            break
        g = _fd_gradient(rate, x, h)
        hess = np.zeros((2, 2))
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            hess[k, k] = (rate(*(x + e)) + rate(*(x - e)) - 2.0 * fx) / (h * h)
        e_ab = np.array([h, h])
        cross = (
            rate(*(x + e_ab)) - rate(x[0] + h, x[1] - h) - rate(x[0] - h, x[1] + h) + rate(*(x - e_ab))
        ) / (4.0 * h * h)
        hess[0, 1] = hess[1, 0] = cross
        try:
            delta = np.linalg.solve(hess, -g)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(delta)) or np.max(np.abs(delta)) > 1e-2:
            break
        candidate = np.clip(x + delta, _MU_MIN, _MU_MAX)
        f_candidate = rate(candidate[0], candidate[1])
        if f_candidate < fx:
            break
        x, fx = candidate, f_candidate
        used += 1
        if np.max(np.abs(delta)) < 1e-12:
            break
    return x, used


def _stationary(rate: Callable[[float, float], float], x: np.ndarray, r: float) -> bool:
    """First-order optimality at x, treating box-boundary coordinates by the
    sign of the one-sided derivative."""
    tol = 1e-6 * max(r, 1e-300)
    g = _fd_gradient(rate, x, 1e-5)
    for k in range(2):
        at_upper = x[k] >= _MU_MAX - 1e-9
        at_lower = x[k] <= _MU_MIN + 1e-9
        if at_upper and g[k] >= -tol:
            continue
        if at_lower and g[k] <= tol:
            continue
        if abs(g[k]) > tol:
            return False
    return True


def optimize_intensities(problem: OptimizationProblem) -> OptimumReport:
    """Locate the intensities maximizing the key rate for a problem.

    Stage 1 scans a uniform grid over (0, 1]^2 to find the basin; stage 2
    refines with bounded Nelder-Mead plus a Newton polish.  If the rate is
    zero everywhere on the grid (e.g. beyond the distance cutoff), the report
    comes back non-converged with r_star == 0.
    """
    # Nelder-Mead's start and result, the polish's stencils and the final
    # checks revisit points already evaluated; each is computed once.
    rate = functools.cache(problem.rate)
    r_grid, mu_a0, mu_b0 = _grid_scan(problem)
    if r_grid <= 0.0:
        return OptimumReport(mu_a0, mu_b0, 0.0, 0, False)

    # Start strictly inside the box: a start (or simplex vertex) pinned on
    # the boundary degenerates under Nelder-Mead's bound clipping and can
    # leave the search stuck along an edge.
    pull = 1.0 / _GRID_RESOLUTION
    x0 = np.clip(np.array([mu_a0, mu_b0]), _MU_MIN + pull, _MU_MAX - pull)
    iterations = 0
    x = x0
    for simplex_step in (1.0 / (2.0 * _GRID_RESOLUTION), 2e-3):
        simplex = [x.copy()]
        for k in range(2):
            vertex = x.copy()
            vertex[k] += simplex_step if vertex[k] + simplex_step <= _MU_MAX else -simplex_step
            simplex.append(vertex)
        result = minimize(
            lambda v: -rate(v[0], v[1]),
            x0=x,
            method="Nelder-Mead",
            bounds=[(_MU_MIN, _MU_MAX), (_MU_MIN, _MU_MAX)],
            options={
                "xatol": 1e-9,
                "fatol": 1e-13 * max(r_grid, 1e-300),
                "maxiter": 500,
                "maxfev": 1200,
                "initial_simplex": np.array(simplex),
            },
        )
        iterations += int(result.nit)
        candidate = np.clip(result.x, _MU_MIN, _MU_MAX)
        if rate(candidate[0], candidate[1]) >= rate(x[0], x[1]):
            x = candidate
    if rate(x[0], x[1]) < r_grid:
        x = np.array([mu_a0, mu_b0])
    x, polish_steps = _newton_polish(rate, x)
    r_star = rate(x[0], x[1])
    return OptimumReport(
        mu_a_star=float(x[0]),
        mu_b_star=float(x[1]),
        r_star=float(r_star),
        iterations=iterations + polish_steps,
        converged=_stationary(rate, x, r_star),
    )


def closed_form_asymptotic(delta: float, regime: str) -> tuple[float, float]:
    """Closed-form optimal intensities of the linearized model.

    ``regime`` selects the pairing-interval limit: "lambda_infinite" gives
    mu_a + mu_b = 1 with mu_b / mu_a = sqrt(delta); "lambda_one" gives
    (1, 1) for moderate asymmetry.
    """
    if delta < 1.0:
        raise ValueError(f"transmittance ratio must be >= 1, got {delta}")
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
    if total_distance_km < 0.0:
        raise ValueError(f"distance must be >= 0 km, got {total_distance_km}")
    eta = 10.0 ** (-params.alpha * total_distance_km / 10.0)
    if include_detector:
        eta *= params.eta_d
    if eta >= 1.0:
        return math.inf
    return -math.log1p(-eta) / math.log(2.0)

