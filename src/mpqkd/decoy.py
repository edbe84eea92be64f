"""Three-intensity decoy-state estimation for the mode-pairing protocol.

The forward model produces the per-pair-intensity observables an experiment
would report (expected detected-and-sifted ratios and error ratios).  The
estimation side inverts those observables with linear programs over the
unknown photon-class yields, giving a lower bound on the single-photon yield
and an upper bound on its error rate; both are provably valid for any
channel consistent with the observables.

Pair classes follow the sifting structure: a pair is Z-type when each party
kept at most one non-vacuum round (all of a party's photons travel in one
round), and X-type when a party sent the same non-vacuum intensity in both
rounds (photons split binomially between the rounds).

The observables are exact closed forms.  Every photon-class yield is built
from round click probabilities 1 - c (1 - eta_a)**k_a (1 - eta_b)**k_b, and
for K ~ Poisson(A) the generating function gives E[(1 - eta)**K] =
exp(-eta A), so averaging a yield over the Poisson photon statistics of a
setting replaces k photons by the mean detected photon number.  The
binomial split of a Poisson(A) total gives two independent Poisson(A / 2)
rounds, so X pairs factor the same way.  No photon-number sum is truncated.
"""
from __future__ import annotations

import functools
import importlib.util
import math
import os
import sys
import threading
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from types import ModuleType
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .model import (
    Scenario,
    SystemParams,
    binary_entropy,
    click_prob_given_mean,
    click_prob_given_photons,
)

__all__ = [
    "ObservablesInconsistentError",
    "PairIntensityVector",
    "DecoyConfig",
    "DecoyObservables",
    "DecoyBounds",
    "decoy_config_for",
    "pair_intensity_prior",
    "poisson_pair_prob",
    "posterior_intensity_given_photons",
    "expected_observables",
    "bound_single_photon",
    "decoy_key_rate",
    "single_photon_z_yield",
    "single_photon_z_error_yield",
]

# Relative slack on the observable equality constraints inside the LPs.
_EQUALITY_TOL = 1e-10
# Photons per party on the LPs' class grid; the rows' bounds give up the rest.
_K_MAX = 20
# Cap on an LP row's scale factor, reached by observables below 1e-12 or 0.
_MAX_ROW_SCALE = 1e12
# HiGHS's small_matrix_value: it drops every entry at or below it.
_MIN_ENTRY = 1e-9
# Column of the (1, 1) photon class, whose yields the LPs bound.
_CLASS_11 = _K_MAX + 2
# k! up to 2 _K_MAX, as the doubles that dividing by the integers converts them
# to.  Every k! up to 22! is exact, so k_a! k_b! rounds like the integer product.
_FACTORIALS = [float(math.factorial(k)) for k in range(2 * _K_MAX + 1)]
_FACTORIAL_PAIRS = np.multiply.outer(_FACTORIALS[: _K_MAX + 1], _FACTORIALS[: _K_MAX + 1])


class ObservablesInconsistentError(RuntimeError):
    """No channel is consistent with the supplied observables (infeasible LP)."""


class PairIntensityVector(NamedTuple):
    """Summed intensities of two paired rounds, one component per party."""

    sum_a: float
    sum_b: float


@dataclass(frozen=True)
class DecoyConfig:
    """Intensity sets {0, nu, mu} per party and their selection probabilities.

    Selection probabilities are shared between the parties (s_nu and s_mu are
    the same for both); nu may be 0, which degenerates the decoy setting into
    extra vacuum.  ``2 nu == mu`` is rejected because it makes a two-round sum
    ambiguous between a Z-type and an X-type pair.
    """

    mu_a: float
    mu_b: float
    nu_a: float
    nu_b: float
    s_0: float
    s_nu: float
    s_mu: float

    def __post_init__(self) -> None:
        # written so that NaN fails each check
        for name, mu in (("mu_a", self.mu_a), ("mu_b", self.mu_b)):
            if not 0.0 < mu <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {mu}")
        for name, nu, mu in (("nu_a", self.nu_a, self.mu_a), ("nu_b", self.nu_b, self.mu_b)):
            if not 0.0 <= nu < mu:
                raise ValueError(f"{name} must be in [0, mu), got {nu}")
            if nu > 0.0 and abs(2.0 * nu - mu) < 1e-12:
                raise ValueError(f"2*{name} must not equal the signal intensity")
        probs = (self.s_0, self.s_nu, self.s_mu)
        if not all(s >= 0.0 for s in probs):
            raise ValueError(f"selection probabilities must be >= 0, got {probs}")
        if not abs(sum(probs) - 1.0) <= 1e-12:
            raise ValueError(f"selection probabilities must sum to 1, got {sum(probs)}")

    def levels(self, party: str) -> tuple[float, float, float]:
        return (0.0, self.nu_a, self.mu_a) if party == "a" else (0.0, self.nu_b, self.mu_b)

    def signal_vector(self) -> PairIntensityVector:
        return PairIntensityVector(self.mu_a, self.mu_b)

    def z_settings(self) -> list[PairIntensityVector]:
        """Z-compatible pair sums with nonzero prior, vacuum-vacuum excluded."""
        return self._settings(1.0)

    def x_settings(self) -> list[PairIntensityVector]:
        """X-compatible pair sums: each party uses the same intensity in both
        rounds (vacuum included, mirroring the Z construction), not all four
        rounds vacuum."""
        return self._settings(2.0)

    def _settings(self, factor: float) -> list[PairIntensityVector]:
        """Each party's levels times ``factor``, paired in sorted order where
        their :func:`pair_intensity_prior` entry is positive, vacuum-vacuum
        excluded: the entry is the product of the parties' sum priors."""
        probs = (self.s_0, self.s_nu, self.s_mu)
        sums_a, sums_b = (sorted({factor * level for level in self.levels(p)}) for p in "ab")
        prior_a, prior_b = (_party_sum_prior(self.levels(p), probs) for p in "ab")
        vectors = (PairIntensityVector(a, b) for a in sums_a for b in sums_b)
        return [v for v in vectors if v != (0.0, 0.0) and prior_a[v.sum_a] * prior_b[v.sum_b] > 0.0]


def decoy_config_for(scenario: Scenario, s_nu: float = 1e-3) -> DecoyConfig:
    """Config matching a scenario: signal and vacuum share the remaining
    probability equally, the decoy intensity gets the (small) s_nu."""
    s_mu = (1.0 - s_nu) / 2.0
    return DecoyConfig(
        mu_a=scenario.mu_a,
        mu_b=scenario.mu_b,
        nu_a=scenario.nu_a,
        nu_b=scenario.nu_b,
        s_0=1.0 - s_nu - s_mu,
        s_nu=s_nu,
        s_mu=s_mu,
    )


def _party_sum_prior(levels: Iterable[float], probs: Iterable[float]) -> dict[float, float]:
    out: dict[float, float] = {}
    for level_i, prob_i in zip(levels, probs):
        for level_j, prob_j in zip(levels, probs):
            total = level_i + level_j
            out[total] = out.get(total, 0.0) + prob_i * prob_j
    return out


def pair_intensity_prior(config: DecoyConfig) -> dict[PairIntensityVector, float]:
    """Probability of each two-round summed-intensity vector; sums to 1."""
    probs = (config.s_0, config.s_nu, config.s_mu)
    prior_a = _party_sum_prior(config.levels("a"), probs)
    prior_b = _party_sum_prior(config.levels("b"), probs)
    return {
        PairIntensityVector(sum_a, sum_b): qa * qb
        for sum_a, qa in prior_a.items()
        for sum_b, qb in prior_b.items()
    }


def poisson_pair_prob(k: tuple[int, int], mu_vec: PairIntensityVector) -> float:
    """Probability of emitting k = (k_a, k_b) photons in total over a pair
    with summed intensities mu_vec (product of two Poissons, 0**0 == 1)."""
    k_a, k_b = k
    if k_a < 0 or k_b < 0:
        raise ValueError(f"photon counts must be >= 0, got {k}")
    return (
        math.exp(-mu_vec.sum_a - mu_vec.sum_b)
        * mu_vec.sum_a**k_a
        * mu_vec.sum_b**k_b
        / (math.factorial(k_a) * math.factorial(k_b))
    )


def posterior_intensity_given_photons(
    k: tuple[int, int], config: DecoyConfig
) -> dict[PairIntensityVector, float]:
    """Bayes posterior over summed-intensity vectors given total photon numbers."""
    prior = pair_intensity_prior(config)
    joint = {vec: q * poisson_pair_prob(k, vec) for vec, q in prior.items()}
    total = sum(joint.values())
    if total <= 0.0:
        raise ValueError(f"photon numbers {k} are unreachable under this config")
    return {vec: value / total for vec, value in joint.items()}


def single_photon_z_yield(scenario: Scenario) -> float:
    """Ground-truth Z yield of the (1, 1) photon class.

    Each party's photon rides its single non-vacuum round; the four ways the
    two signal rounds interleave are equally likely, two of them stacking
    both signals in the same round.
    """
    y = lambda n_a, n_b: click_prob_given_photons(n_a, n_b, scenario)
    return 0.5 * (y(0, 0) * y(1, 1) + y(1, 0) * y(0, 1))


def single_photon_z_error_yield(scenario: Scenario) -> float:
    """Ground-truth erroneous-Z yield of the (1, 1) photon class: only the
    stacked interleavings err, with the empty round's dark click."""
    y = lambda n_a, n_b: click_prob_given_photons(n_a, n_b, scenario)
    return 0.5 * y(0, 0) * y(1, 1)


@dataclass(frozen=True)
class DecoyObservables:
    """Expected detected/error ratios per pair-intensity setting and basis."""

    z_total: Mapping[PairIntensityVector, float]
    z_error: Mapping[PairIntensityVector, float]
    x_total: Mapping[PairIntensityVector, float]
    x_error: Mapping[PairIntensityVector, float]

    def __post_init__(self) -> None:
        bases = {"Z": (self.z_total, self.z_error), "X": (self.x_total, self.x_error)}
        for basis, (totals, errors) in bases.items():
            if totals.keys() != errors.keys():
                raise ValueError(f"{basis} totals and errors must cover the same settings")
            for vec, total in totals.items():
                err = errors[vec]
                if not 0.0 <= err <= total + 1e-15 or total > 1.0 + 1e-12:
                    raise ValueError(
                        f"observables for {vec} violate 0 <= error <= total <= 1: "
                        f"({err}, {total})"
                    )


def expected_observables(scenario: Scenario, config: DecoyConfig) -> DecoyObservables:
    """Forward model: the photon-class yields averaged over the Poisson photon
    statistics of every realizable pair-intensity setting, in closed form.

    With Q(x) the click probability at mean detected photon number x
    (:func:`click_prob_given_mean`) and x = eta_a A + eta_b B for summed
    intensities (A, B):

    * Z: half the pairs stack both signals in one round, which errs on the
      empty round's dark click 2 p_d, so ``z_error = p_d Q(x)`` and
      ``z_total = z_error + Q(eta_a A) Q(eta_b B) / 2``;
    * X: each round carries an independent Poisson half of the total, so
      with h = x / 2, ``x_total = Q(h)**2``.  Photon-only coincidences
      s**2 with s = 1 - exp(-h) err at e_d and all other detections at
      e_0 = 1/2, so with g = 2 p_d exp(-h),
      ``x_error = e_d s**2 + g (s + g / 2)``, written without cancellation.

    These are exact: each yield is affine in the photon-survival products
    (1 - eta)**k, whose Poisson average is exp(-eta A).
    """
    names = ("mu_a", "mu_b", "nu_a", "nu_b")  # the check is written so that NaN fails it
    if not all(abs(getattr(config, n) - getattr(scenario, n)) <= 1e-12 for n in names):
        raise ValueError("config intensities disagree with the scenario")
    eta_a, eta_b = scenario.eta_a, scenario.eta_b
    p_d, e_d = scenario.params.p_d, scenario.params.e_d

    z_total: dict[PairIntensityVector, float] = {}
    z_error: dict[PairIntensityVector, float] = {}
    for vec in config.z_settings():
        x_a, x_b = eta_a * vec.sum_a, eta_b * vec.sum_b
        q_a, q_b = click_prob_given_mean(x_a, p_d), click_prob_given_mean(x_b, p_d)
        error = p_d * click_prob_given_mean(x_a + x_b, p_d)
        z_error[vec] = error
        z_total[vec] = error + 0.5 * q_a * q_b

    x_total: dict[PairIntensityVector, float] = {}
    x_error: dict[PairIntensityVector, float] = {}
    for vec in config.x_settings():
        h = (eta_a * vec.sum_a + eta_b * vec.sum_b) / 2.0
        s = -math.expm1(-h)
        g = 2.0 * p_d * math.exp(-h)
        x_total[vec] = (s + g) ** 2  # Q(h) = s + g
        x_error[vec] = e_d * s * s + g * (s + g / 2.0)
    return DecoyObservables(z_total, z_error, x_total, x_error)


@dataclass(frozen=True)
class DecoyBounds:
    """Single-photon bounds extracted from observables.

    ``phase_error_upper`` is the ratio e_x_11_upper / m_x_11_lower, or None
    when the X lower bound is degenerate (no key can be claimed).
    """

    m_z_11_lower: float
    e_z_11_upper: float
    m_x_11_lower: float
    e_x_11_upper: float
    q_bar_lower: float
    phase_error_upper: float | None


_HIGHS_CORE = "scipy.optimize._highspy._core"
_THREAD = threading.local()  # .highs: the thread's HiGHS instance, made at its first LP


def _import_highs_core() -> ModuleType:
    """scipy's HiGHS core, loaded from its extension file under its own name.

    No code of the ``scipy``, ``scipy.optimize`` or ``_highspy`` packages
    runs: scipy.optimize's ``__init__`` alone loads ~320 scipy modules.
    The module goes into ``sys.modules`` before it runs, so a later
    ``import scipy.optimize`` gets this same module (pybind11 cannot register
    HiGHS's types twice).  A core already in ``sys.modules``, a ``None``
    there, or a scipy laid out otherwise goes through the import system.
    """
    scipy = importlib.util.find_spec("scipy")
    roots = (scipy.submodule_search_locations or []) if scipy else []
    paths = (
        os.path.join(root, "optimize", "_highspy", "_core" + suffix)
        for root in roots
        for suffix in EXTENSION_SUFFIXES
    )
    path = next(filter(os.path.isfile, paths), None)
    if _HIGHS_CORE in sys.modules or path is None:
        return importlib.import_module(_HIGHS_CORE)
    loader = ExtensionFileLoader(_HIGHS_CORE, path)
    core = importlib.util.module_from_spec(importlib.util.spec_from_loader(_HIGHS_CORE, loader))
    sys.modules[_HIGHS_CORE] = core
    try:
        loader.exec_module(core)
    except BaseException:
        del sys.modules[_HIGHS_CORE]
        raise
    return core


@functools.cache
def load_highs() -> tuple[ModuleType, object]:
    """scipy's own HiGHS core (scipy >= 1.15) and the options of every decoy
    LP: those scipy's ``linprog(method="highs")`` sets when given no others,
    except presolve off, plus the LPs' feasibility tolerances.

    Loaded with the first LP, straight from the core's extension file, so
    ``import mpqkd``, ``run`` and ``optimize`` load numpy only and no decoy
    LP loads ``scipy.optimize``.  HiGHS gets the binary ``linprog`` uses.
    The core is a private module: a scipy without it raises ImportError
    here, which ``verify_oracles`` calls before its first point.  The
    options go to each thread's HiGHS instance once (:func:`linprog`, which
    reads each optimum with ``_Highs.getObjectiveValue``).
    """
    try:
        core = _import_highs_core()
    except ImportError as exc:
        message = f"decoy LPs need scipy>=1.15, whose HiGHS core is {_HIGHS_CORE}"
        raise ImportError(message) from exc
    options = core.HighsOptions()
    options.presolve = "off"
    options.highs_debug_level = core.HighsDebugLevel.kHighsDebugLevelNone
    options.log_to_console = False
    options.output_flag = False
    options.simplex_strategy = core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.primal_feasibility_tolerance = 1e-10
    options.dual_feasibility_tolerance = 1e-9
    return core, options


def linprog(model: tuple[np.ndarray, ...]) -> float:
    """Minimal objective value of ``model``, solved on the thread's HiGHS instance.

    ``model`` holds the arrays of HiGHS's array ``passModel`` in its order:
    cost, column bounds, row bounds and the column-wise matrix (start and
    index as int32, value).  A new model clears the last one's basis and
    solution, so each LP solves as on a fresh instance.  HiGHS's dual
    simplex needs no presolve on these LPs of at most 8 rows; a run ending
    neither optimal nor infeasible reruns from scratch with presolve, then
    off again (36 of 10,080 grid scenarios, all mu_a == mu_b at equal arms).
    Raises :class:`ObservablesInconsistentError` when HiGHS finds the LP
    infeasible, and RuntimeError on any other outcome that is not optimal,
    including options or a model that HiGHS rejects.
    """
    core, options = load_highs()
    n, rows, nnz = len(model[0]), len(model[3]), len(model[7])
    if [len(array) for array in model] != [n, n, n, rows, rows, n + 1, nnz, nnz]:
        raise ValueError("decoy LP arrays disagree in length")  # HiGHS reads them unchecked
    error, highs = core.HighsStatus.kError, getattr(_THREAD, "highs", None)
    if highs is None:
        highs = core._Highs()
        if highs.passOptions(options) == error:
            raise RuntimeError("decoy LP failed: HiGHS rejected the options or the model")
        _THREAD.highs = highs
    shape = (n, rows, nnz, int(core.MatrixFormat.kColwise), int(core.ObjSense.kMinimize), 0.0)
    # HiGHS rejects an empty integrality array; zeros make every column continuous
    if highs.passModel(*shape, *model, np.zeros(n, np.int32)) == error:
        raise RuntimeError("decoy LP failed: HiGHS rejected the options or the model")
    highs.run()
    status = highs.getModelStatus()
    if status not in (core.HighsModelStatus.kOptimal, core.HighsModelStatus.kInfeasible):
        highs.clearSolver()
        highs.setOptionValue("presolve", "on")
        try:
            highs.run()
            status = highs.getModelStatus()
        finally:
            highs.setOptionValue("presolve", "off")
    if status == core.HighsModelStatus.kInfeasible:
        raise ObservablesInconsistentError("no photon-class yields reproduce the observables")
    if status != core.HighsModelStatus.kOptimal:
        raise RuntimeError(f"decoy LP failed: {highs.modelStatusToString(status)}")
    return highs.getObjectiveValue()


def _solve_basis_lp(
    settings: list[PairIntensityVector],
    totals: Mapping[PairIntensityVector, float],
    errors: Mapping[PairIntensityVector, float],
) -> tuple[float, float]:
    """Min single-photon yield and max single-photon error yield consistent
    with the observables; (0, 1) when no setting was observed.

    Two LPs over the truncated photon-class grid share one Poisson weight
    matrix w_sk and are built in one pass over both observables O_s: the
    min of the (1, 1) class's yield m_k against the totals, and the max of
    its error yield e_k against the errors, each over yields y_k in [0, 1]
    whose rows sum_k w_sk y_k, plus the classes off the grid, equal O_s to
    a relative tolerance.  The true yields satisfy e_k <= m_k, but dropping
    that coupling relaxes both LPs, which can only lower the min and raise
    the max, so both results stay valid bounds.  The closed-form MDI-QKD
    bounds also estimate the yield and the error yield apart (Xu, Curty,
    Qi, Lo, New J. Phys. 15, 113007 (2013)).

    Row s is multiplied by c_s = min(1 / O_s, 1e12), so its bounds sit near
    1.  No term of a row is negative, so each row caps each yield: column k
    holds y_k / u_k, u_k = min(1, min_s O_s (1 + tol) / w_sk), and no entry
    exceeds its row's upper bound.  Entries at or below 1e-9, which HiGHS
    would drop, leave the matrix; the row's lower bound gives them up (each
    column is at most 1) with c_s times the mass off the grid, so the LP
    stays a relaxation that HiGHS solves as written.

    The weights are bit-for-bit those of :func:`poisson_pair_prob`.  Each
    distinct mean m gets one row of powers m ** k up to k = 2 _K_MAX, Python
    floats (``np.power`` differs in the last bit in ~3% of them): the grid
    takes the first _K_MAX + 1, the rest sum m's Poisson mass beyond it term
    by term (1 - the grid's mass would leave ~1e-16 that c_s scales by up to
    1e12).  The max LP minimizes -e_11, so its objective flips sign.
    """
    if not settings:
        return 0.0, 1.0
    grid = _K_MAX + 1
    poisson = {}  # mean -> (its powers on the grid, its Poisson mass beyond the grid)
    for mean in {mean for vec in settings for mean in vec}:
        powers = [mean**k for k in range(2 * _K_MAX + 1)]
        tail = (math.exp(-mean) * power / f for power, f in zip(powers[grid:], _FACTORIALS[grid:]))
        poisson[mean] = powers[:grid], math.fsum(tail)
    decay = np.array([math.exp(-vec.sum_a - vec.sum_b) for vec in settings])
    powers_a, powers_b = (np.array([poisson[vec[p]][0] for vec in settings]) for p in (0, 1))
    weights = decay[:, None, None] * powers_a[:, :, None] * powers_b[:, None, :] / _FACTORIAL_PAIRS
    weights = weights.reshape(len(settings), -1)  # classes (k_a, k_b) in row-major order
    tails = np.array([poisson[vec.sum_a][1] + poisson[vec.sum_b][1] for vec in settings])
    observed = np.array([[totals[vec] for vec in settings], [errors[vec] for vec in settings]])
    with np.errstate(divide="ignore"):  # a zero observable gets the cap
        scale = np.minimum(1.0 / observed, _MAX_ROW_SCALE)
    upper = scale * observed * (1.0 + _EQUALITY_TOL)
    scaled = weights * scale[:, :, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        caps = np.where(scaled > 0.0, upper[:, :, None] / scaled, np.inf)
    ceiling = np.minimum(caps.min(axis=1), 1.0)
    entries = scaled * ceiling[:, None, :]
    kept = entries > _MIN_ENTRY
    unseen = scale * tails + np.where(kept, 0.0, entries).sum(axis=2)
    lower = scale * observed * (1.0 - _EQUALITY_TOL) - unseen
    n = weights.shape[1]
    start = np.zeros((2, n + 1), np.int32)
    np.cumsum(kept.sum(axis=1), axis=1, out=start[:, 1:])
    signs = (1.0, -1.0)  # min m_11, max e_11
    cost = np.where(np.arange(n) == _CLASS_11, [[sign] for sign in signs], 0.0)
    extremes = []
    for lp, sign in enumerate(signs):
        k, setting = np.nonzero(kept[lp].T)  # column-wise: by class, then by setting
        rows = (lower[lp], upper[lp], start[lp], setting.astype(np.int32), entries[lp, setting, k])
        value = sign * linprog((cost[lp], np.zeros(n), np.ones(n), *rows))
        extremes.append(min(max(value * float(ceiling[lp, _CLASS_11]), 0.0), 1.0))
    return extremes[0], extremes[1]


def bound_single_photon(observables: DecoyObservables, config: DecoyConfig) -> DecoyBounds:
    """Linear-program bounds on the single-photon pair statistics.

    Z and X bases are bounded independently with the same machinery, Z
    first, on the calling thread.
    ``q_bar_lower`` projects the Z bound onto the signal setting: the
    Poisson weight of the (1, 1) class times its yield bound, over the
    setting's detected ratio (0 when the signal setting is not bounded).
    """
    z_settings = [vec for vec in config.z_settings() if vec in observables.z_total]
    x_settings = [vec for vec in config.x_settings() if vec in observables.x_total]
    m_z_lower, e_z_upper = _solve_basis_lp(z_settings, observables.z_total, observables.z_error)
    m_x_lower, e_x_upper = _solve_basis_lp(x_settings, observables.x_total, observables.x_error)

    signal = config.signal_vector()
    signal_total = observables.z_total.get(signal, 0.0)
    q_bar_lower = 0.0
    if signal in z_settings and signal_total > 0.0:
        q_bar_lower = poisson_pair_prob((1, 1), signal) * m_z_lower / signal_total
    phase_error_upper = e_x_upper / m_x_lower if m_x_lower > 0.0 else None
    return DecoyBounds(
        m_z_11_lower=m_z_lower,
        e_z_11_upper=e_z_upper,
        m_x_11_lower=m_x_lower,
        e_x_11_upper=e_x_upper,
        q_bar_lower=min(q_bar_lower, 1.0),
        phase_error_upper=phase_error_upper,
    )


def decoy_key_rate(
    bounds: DecoyBounds,
    observed_m_z: float,
    observed_e_z: float,
    params: SystemParams,
) -> float:
    """Asymptotic key rate from decoy bounds and the directly observed
    signal-setting Z statistics, clamped at zero.

    ``observed_m_z`` carries the normalization (pass the per-round detected
    Z-pair rate to compare against the analytic per-round key rate).  A
    degenerate X bound (no single-photon evidence) yields zero.
    """
    if not 0.0 <= observed_m_z <= 1.0 or not 0.0 <= observed_e_z <= 1.0:
        raise ValueError("observed ratios must lie in [0, 1]")
    if bounds.phase_error_upper is None:
        return 0.0
    phase_error = min(bounds.phase_error_upper, 0.5)
    raw = observed_m_z * (
        bounds.q_bar_lower * (1.0 - binary_entropy(phase_error))
        - params.f * binary_entropy(observed_e_z)
    )
    return max(raw, 0.0)
