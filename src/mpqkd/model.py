"""Analytic channel and key-rate model for asymmetric mode-pairing QKD.

All formulas are exact in the dark-count rate and in the exponentials of the
weak-coherent-pulse statistics.  The Taylor-linearized small-intensity model
(dark counts dropped, ``1 - exp(-x) -> x``) is a test oracle, not part of
the package.

The intensity-dependent key-rate chain (the four selector click
probabilities, p, r_p, r_s, e_z, q_bar_11, H(e_z) and the clamp) has one
implementation, shared by :func:`key_rate` on floats and
:func:`key_rate_grid` on arrays; its intensity-independent terms are memoized
per (eta_a, eta_b, params), since an optimization evaluates one arm pair a few
hundred times.  The math namespace follows the input: arrays broadcast
through numpy, while Python floats go through ``math`` (libm), because
numpy's exp/expm1/log can differ from libm in the last bit and the scalar
rates are what the optimizer, the CSV output and the Monte Carlo reference
values are built from.

An optimum takes ~210 scalar evaluations of ~25 floating-point operations
each, so nearly all of an evaluation's ~5.5 us (CPython 3.11, 2-vCPU Xeon) is
interpreter overhead.  To keep it small, the chain picks its namespace once
and calls the unchecked kernels behind the public helpers, :class:`Scenario`
checks its fields in one pass, and :class:`KeyRateBreakdown` is a named tuple.

Conventions:
    * An arm transmittance ``eta`` includes the detector efficiency, so a
      zero-length fiber has ``eta == eta_d``.
    * The maximal pairing interval is a float; ``math.inf`` selects the
      unbounded-interval limit exactly (pairing rate ``p / 2``), while large
      numeric values such as ``1e6`` evaluate the finite formula.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

__all__ = [
    "ModelDegenerateError",
    "SystemParams",
    "Scenario",
    "KeyRateBreakdown",
    "transmittance_from_distance",
    "distance_from_transmittance",
    "make_scenario",
    "is_pairing_interval",
    "parse_pairing_interval",
    "click_prob_given_mean",
    "click_prob_given_photons",
    "pairing_rate",
    "x_gain_and_phase_error",
    "binary_entropy",
    "key_rate",
    "key_rate_grid",
]

# Error probability of a detection that no signal photon caused: a random bit.
E_0 = 0.5


class ModelDegenerateError(ValueError):
    """A requested ratio is undefined because its conditioning event has
    zero probability (no clicks, or no effective pairs)."""


@dataclass(frozen=True)
class SystemParams:
    """Device and post-processing parameters shared by both arms.

    Defaults are the standard performance-analysis values: 20% detector
    efficiency, 0.2 dB/km fiber, dark counts 1.2e-8 per detector per round,
    error-correction efficiency 1.15 and 4% misalignment.
    """

    eta_d: float = 0.20
    alpha: float = 0.20
    p_d: float = 1.2e-8
    f: float = 1.15
    e_d: float = 0.04

    def __post_init__(self) -> None:
        # written so that NaN fails each check
        if not 0.0 < self.eta_d <= 1.0:
            raise ValueError(f"detector efficiency must be in (0, 1], got {self.eta_d}")
        if not self.alpha > 0.0:
            raise ValueError(f"fiber attenuation must be positive, got {self.alpha}")
        if not 0.0 <= self.p_d < 1.0:
            raise ValueError(f"dark-count probability must be in [0, 1), got {self.p_d}")
        if not 1.0 <= self.f < math.inf:
            raise ValueError(f"error-correction efficiency must be finite and >= 1, got {self.f}")
        # 0.5 permitted so the all-noise limit e_d == E_0 stays constructible.
        if not 0.0 <= self.e_d <= 0.5:
            raise ValueError(f"misalignment error must be in [0, 0.5], got {self.e_d}")
        values = (self.eta_d, self.alpha, self.p_d, self.f, self.e_d)
        object.__setattr__(self, "_hash", hash(values))  # the generated hash, computed once

    def __hash__(self) -> int:
        return self._hash  # _fixed_terms' cache hashes the params on every call


def transmittance_from_distance(distance_km: float, params: SystemParams) -> float:
    """Total one-arm transmittance eta_d * 10**(-alpha*L/10) at fiber length L."""
    if not distance_km >= 0.0:  # written so that NaN fails
        raise ValueError(f"distance must be >= 0 km, got {distance_km}")
    return params.eta_d * 10.0 ** (-params.alpha * distance_km / 10.0)


def distance_from_transmittance(eta: float, params: SystemParams) -> float:
    """Fiber length reproducing a given total transmittance; inverse of
    :func:`transmittance_from_distance`."""
    if not 0.0 < eta <= params.eta_d:  # written so that NaN fails
        raise ValueError(f"transmittance must be in (0, eta_d={params.eta_d}], got {eta}")
    return 10.0 * math.log10(params.eta_d / eta) / params.alpha


def is_pairing_interval(lam: float) -> bool:
    """Whether lam is a valid maximal pairing interval: an integer >= 1, or
    inf.  A bool is no interval, though True == 1."""
    if isinstance(lam, (bool, np.bool_)):
        return False
    return lam == math.inf or (lam >= 1 and float(lam).is_integer())


def parse_pairing_interval(value: str | float) -> float:
    """A pairing interval as written in a config or on the command line: a
    number, or "inf" / "infinite" / "infinity" in any case.  Validity is
    :func:`is_pairing_interval`'s job."""
    if isinstance(value, str) and value.lower() in ("inf", "infinite", "infinity"):
        return math.inf
    try:
        return float(value)
    except ValueError:
        raise ValueError(f"cannot parse pairing interval {value!r}") from None


@dataclass(frozen=True, init=False)
class Scenario:
    """A full protocol operating point: the two arm transmittances (detector
    included), pulse intensities, decoy intensities and the maximal pairing
    interval.

    The usual convention puts the shorter arm on side a (delta >= 1); it is
    not enforced here because every model quantity is symmetric under
    swapping the arms together with their intensities.
    """

    eta_a: float
    eta_b: float
    mu_a: float
    mu_b: float
    lam: float
    params: SystemParams
    nu_a: float = 0.0
    nu_b: float = 0.0

    def __init__(self, eta_a, eta_b, mu_a, mu_b, lam, params, nu_a=0.0, nu_b=0.0) -> None:
        # The generated frozen __init__ sets each field with object.__setattr__,
        # which takes about three times as long as one update of the dict.
        self.__dict__.update(eta_a=eta_a, eta_b=eta_b, mu_a=mu_a, mu_b=mu_b, lam=lam,
                             params=params, nu_a=nu_a, nu_b=nu_b)
        # Each check fails on NaN; the first failed one names itself.
        eta_d = params.eta_d
        passed = (
            0.0 < mu_a <= 1.0, 0.0 < mu_b <= 1.0, 0.0 <= nu_a < mu_a, 0.0 <= nu_b < mu_b,
            is_pairing_interval(lam), 0.0 < eta_a <= eta_d, 0.0 < eta_b <= eta_d,
        )
        if not all(passed):
            raise ValueError(_SCENARIO_ERRORS[passed.index(False)].format(self))


_SCENARIO_ERRORS = (
    "mu_a must be in (0, 1], got {0.mu_a}",
    "mu_b must be in (0, 1], got {0.mu_b}",
    "nu_a must be in [0, mu_a), got {0.nu_a}",
    "nu_b must be in [0, mu_b), got {0.nu_b}",
    "pairing interval must be an integer >= 1 or inf, got {0.lam}",
    "eta_a must be in (0, eta_d={0.params.eta_d}], got {0.eta_a}",
    "eta_b must be in (0, eta_d={0.params.eta_d}], got {0.eta_b}",
)


def make_scenario(
    distance_a_km: float,
    distance_b_km: float,
    mu_a: float,
    mu_b: float,
    lam: float,
    params: SystemParams | None = None,
    nu_a: float = 0.0,
    nu_b: float = 0.0,
) -> Scenario:
    """Build a Scenario from arm lengths, deriving the transmittances."""
    params = params if params is not None else SystemParams()
    eta_a, eta_b = (transmittance_from_distance(d, params) for d in (distance_a_km, distance_b_km))
    return Scenario(eta_a, eta_b, mu_a, mu_b, lam, params, nu_a, nu_b)


class KeyRateBreakdown(NamedTuple):
    """All intermediate quantities entering the per-round key rate.

    ``rate`` is clamped at zero; ``raw_rate`` keeps the unclamped value so a
    negative balance between the privacy and correction terms stays visible.
    """

    p: float
    r_p: float
    r_s: float
    q_bar_11: float
    e_z: float
    y_11: float
    e_11: float
    raw_rate: float
    rate: float


# The numpy functions the formulas use, on Python floats.
_FLOATS = SimpleNamespace(
    exp=math.exp, expm1=math.expm1, log1p=math.log1p, log2=math.log2,
    where=lambda condition, value, otherwise: value if condition else otherwise,
    all=lambda condition: condition,
)


def _namespace(x):
    """numpy for arrays, else libm, so a Python float keeps the scalar bits."""
    return np if isinstance(x, np.ndarray) else _FLOATS


def _check_unit_interval(x, name: str, xp) -> None:
    if not xp.all((x >= 0.0) & (x <= 1.0)):  # written so that NaN fails
        raise ValueError(f"{name} must be in [0, 1], got {x}")


def click_prob_given_mean(x, p_d: float):
    """Click probability 1 - (1 - 2 p_d) e^{-x} of a round in which no photon
    reaches the detectors with probability e^{-x}.

    ``x`` is the mean detected photon number of a coherent round, or minus
    the log of the all-photons-lost probability of a round with exact photon
    numbers; a float or an array.  Arranged to stay accurate for tiny x.
    """
    return _click_prob(x, p_d, _namespace(x))


def _click_prob(x, p_d: float, xp):
    return -xp.expm1(-x) + 2.0 * p_d * xp.exp(-x)


def click_prob_given_photons(n_a: int, n_b: int, scenario: Scenario) -> float:
    """Click probability for a round carrying exact photon numbers per arm."""
    if n_a < 0 or n_b < 0 or n_a != int(n_a) or n_b != int(n_b):
        raise ValueError(f"photon counts must be integers >= 0, got ({n_a}, {n_b})")
    log_pass = _log_pass(n_a, scenario.eta_a) + _log_pass(n_b, scenario.eta_b)
    return click_prob_given_mean(-log_pass, scenario.params.p_d)


def _log_pass(n: int, eta: float) -> float:
    """Log-probability that all n photons of an arm are lost; a lossless arm
    (eta == 1) loses none, and an empty one always passes."""
    if eta < 1.0:
        return n * math.log1p(-eta)
    return -math.inf if n else 0.0


def pairing_rate(p, lam: float):
    """Expected pairs formed per round for click probability ``p`` (a float
    or an array) and maximal pairing interval ``lam``.

    The unbounded interval gives exactly p/2; lam == 1 reduces to
    p**2 / (1 + p).  At p == 0 and p == 1 every interval gives p/2.

    With w = 1 - (1 - p)**lam the rate is p w / (1 + w), and p <= w <= lam p
    for lam >= 1, so r_p(p, lam) <= lam * r_p(p, 1), with equality for
    p > 0 only at lam == 1.  No other key-rate term depends on lam, so at
    fixed intensities the key rate grows by less than a factor lam from
    lam == 1 to lam.
    """
    xp = _namespace(p)
    _check_unit_interval(p, "click probability", xp)
    if not is_pairing_interval(lam):
        raise ValueError(f"pairing interval must be an integer >= 1 or inf, got {lam}")
    return _pairing_rate(p, lam, xp)


def _pairing_rate(p, lam: float, xp):
    if lam == math.inf:
        return p / 2.0
    # The endpoints are evaluated at an interior point and replaced by p/2,
    # where the logarithm and the reciprocals below are undefined.  A product
    # below the smallest normal double, whose reciprocals can overflow, is
    # an underflowed rate: it is replaced by 0.0 the same way.
    edge = (p == 0.0) | (p == 1.0)
    inner = xp.where(edge, 0.5, p)
    product = inner * -xp.expm1(lam * xp.log1p(-inner))
    tiny = product < sys.float_info.min
    product, inner = xp.where(tiny, 1.0, product), xp.where(tiny, 1.0, inner)
    rate = 1.0 / (1.0 / product + 1.0 / inner)
    return xp.where(edge, p / 2.0, xp.where(tiny, 0.0, rate))


def x_gain_and_phase_error(scenario: Scenario) -> tuple[float, float]:
    """Asymptotic single-photon gain and phase error rate of the X basis."""
    eta_a, eta_b = scenario.eta_a, scenario.eta_b
    p_d = scenario.params.p_d
    gain = (1.0 - p_d) ** 2 * (
        eta_a * eta_b / 2.0
        + (2.0 * eta_a + 2.0 * eta_b - 3.0 * eta_a * eta_b) * p_d
        + 4.0 * (1.0 - eta_a) * (1.0 - eta_b) * p_d * p_d
    )
    if gain <= 0.0:
        raise ModelDegenerateError("zero single-photon gain: phase error undefined")
    e_d = scenario.params.e_d
    error = (E_0 * gain - (E_0 - e_d) * (1.0 - p_d * p_d) * eta_a * eta_b / 2.0) / gain
    return gain, error


def binary_entropy(x):
    """Binary entropy in bits of a float or an array, with H(0) = H(1) = 0
    by continuity."""
    xp = _namespace(x)
    _check_unit_interval(x, "binary entropy argument", xp)
    return _binary_entropy(x, xp)


def _binary_entropy(x, xp):
    edge = (x == 0.0) | (x == 1.0)
    inner = xp.where(edge, 0.5, x)
    return xp.where(edge, 0.0, -inner * xp.log2(inner) - (1.0 - inner) * xp.log2(1.0 - inner))


@functools.lru_cache(maxsize=64)
def _fixed_terms(eta_a: float, eta_b: float, params: SystemParams) -> tuple[float, ...]:
    """The key-rate terms independent of the intensities and the interval:
    pr00, the single-photon Z yields y_same + y_cross, y_11, e_11 and
    1 - H(e_11)."""
    arms = Scenario(eta_a, eta_b, 1.0, 1.0, math.inf, params)  # intensities unused
    y_same = click_prob_given_photons(0, 0, arms) * click_prob_given_photons(1, 1, arms)
    y_cross = click_prob_given_photons(1, 0, arms) * click_prob_given_photons(0, 1, arms)
    y_11, e_11 = x_gain_and_phase_error(arms)
    pr00 = click_prob_given_mean(0.0, params.p_d)
    return pr00, y_same + y_cross, y_11, e_11, 1.0 - binary_entropy(e_11)


def _key_rate_terms(scenario: Scenario, mu_a, mu_b) -> KeyRateBreakdown:
    """The key-rate chain at intensities (mu_a, mu_b), floats or broadcast
    arrays; the arms, interval and parameters come from ``scenario``.

    Each of the four equally likely intensity-selector vectors (00, 01, 10,
    11) has its click probability; p is their mean.  A Z pair needs each
    party's signal pulse in exactly one of two clicked rounds: [00,11] and
    [11,00] give the ``same``-round product, [01,10] and [10,01] the
    ``cross``-round one.  Errors come only from the same-round combinations,
    so e_z is dark-count driven.  q_bar_11 is the fraction of Z pairs in
    which each party emitted exactly one photon across the two rounds.
    """
    params, xp = scenario.params, _namespace(mu_a)
    pr00, y_pairs, y_11, e_11, secret = _fixed_terms(scenario.eta_a, scenario.eta_b, params)
    x_a, x_b = scenario.eta_a * mu_a, scenario.eta_b * mu_b
    pr01, pr10 = _click_prob(x_b, params.p_d, xp), _click_prob(x_a, params.p_d, xp)
    pr11 = _click_prob(x_a + x_b, params.p_d, xp)
    p = (((pr00 + pr01) + pr10) + pr11) / 4.0
    same, cross = pr00 * pr11, pr01 * pr10
    pairs = same + cross
    if not xp.all(pairs > 0.0):
        raise ModelDegenerateError("zero Z-pair probability: key rate undefined")
    _check_unit_interval(p, "click probability", xp)
    r_p = _pairing_rate(p, scenario.lam, xp)
    r_s = 2.0 * pairs / (16.0 * p * p)
    e_z = same / pairs  # in [0, 1], as same <= pairs
    weight = mu_a * xp.exp(-mu_a) * mu_b * xp.exp(-mu_b)
    q_bar = weight * y_pairs / pairs
    raw = r_p * r_s * (q_bar * secret - params.f * _binary_entropy(e_z, xp))
    return KeyRateBreakdown(p, r_p, r_s, q_bar, e_z, y_11, e_11, raw, xp.where(raw < 0.0, 0.0, raw))


def key_rate(scenario: Scenario) -> KeyRateBreakdown:
    """Per-round secret-key rate with all intermediate quantities.

    Assembles R = r_p * r_s * { q_bar_11 [1 - H(e_11)] - f H(e_z) } and
    clamps negative balances to zero (the raw value is retained).
    """
    return _key_rate_terms(scenario, scenario.mu_a, scenario.mu_b)


def key_rate_grid(scenario: Scenario, mu_a: np.ndarray, mu_b: np.ndarray) -> np.ndarray:
    """Clamped key rate of :func:`key_rate` broadcast over intensity arrays.

    The arms, interval and parameters come from ``scenario``; its own
    intensities are ignored.  Both views run the same chain: on arrays the
    intensity-dependent terms go through numpy, while the
    intensity-independent ones (the single-photon yields, the X-basis gain
    and phase error) are the memoized floats :func:`key_rate` uses.  numpy's
    exp/expm1/log differ from ``math`` in the last bit on some inputs, so a
    value can differ from ``key_rate(...).rate`` by a few ulps.  Intensities
    outside (0, 1], as :class:`Scenario` has them, raise ValueError.
    """
    mu_a, mu_b = np.asarray(mu_a, dtype=float), np.asarray(mu_b, dtype=float)
    for name, mu in (("mu_a", mu_a), ("mu_b", mu_b)):
        if not ((mu > 0.0) & (mu <= 1.0)).all():  # written so that NaN fails
            raise ValueError(f"{name} must be in (0, 1], got {mu}")
    return _key_rate_terms(scenario, mu_a, mu_b).rate
