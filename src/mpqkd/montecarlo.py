"""Protocol-level Monte Carlo oracle.

Simulates the clicked rounds of a run (intensity and phase choices, photon
survival, dark counts, single-click detection), the greedy maximal-interval
pairing, basis sifting and key mapping, and aggregates empirical statistics
to validate the analytic model.  Rounds are independent, so clicks form a
Bernoulli(p) process over the round numbers, each with one round's
click-conditioned outcome: the cost scales with clicks.  Poisson photon
numbers are drawn only where the single-photon statistic reads them, at the
clicks of Z pairs.

The detector model routes all surviving photons of a round to one uniformly
chosen detector and adds independent dark counts per detector; a round is
kept when exactly one detector fires.  Its click probability is exactly
1 - p_d times the analytic model's, which counts double clicks, and its
Z-basis error is exactly zero for p_d == 0.

Randomness comes from a counter-based Philox generator keyed by a 64-bit
seed: independent round streams jump the generator per stream index;
sifting draws from the first key spawned from the seed and the photon
numbers from the second.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import Scenario, is_pairing_interval

__all__ = [
    "Rounds",
    "Pairs",
    "BASES",
    "UNSET",
    "Estimate",
    "EmpiricalStats",
    "simulate_rounds",
    "pair_clicks",
    "sift_and_map",
    "estimate_statistics",
]

PHASE_SLICES = 16

# Sift labels; a pair's basis column holds the index into BASES.
BASES = ("Z", "X", "zero", "discard")
Z, X, ZERO, DISCARD = range(len(BASES))
# Value of a sift column that is not defined for a pair (or not yet sifted).
UNSET = -1


def _party_label(bit_i: int, bit_j: int) -> int:
    return Z if bit_i != bit_j else (X if bit_i else ZERO)


# Sift label of a pair by its z bits z_a[i] z_a[j] z_b[i] z_b[j], highest first.
_PAIR_BASIS = np.array(
    [
        _party_label(a_i, a_j) if _party_label(a_i, a_j) == _party_label(b_i, b_j) else DISCARD
        for a_i, a_j, b_i, b_j in itertools.product((0, 1), repeat=4)
    ],
    dtype=np.int8,
)


@dataclass
class Rounds:
    """A run of ``n_rounds`` protocol rounds, stored as columns over its clicks.

    ``index`` holds the increasing round numbers of the clicked rounds; the
    other columns have one uint8 entry per click, 15 bytes in all.  ``s_a``
    and ``s_b`` are 1 when a photon of that party's signal survived the
    channel (never without a signal); ``detector`` is 0 = L, 1 = R; phases
    are slices in [0, 16).  ``len`` is the number of rounds, clicked or not.
    Photon numbers are not kept: ``estimate_statistics`` draws them.
    """

    n_rounds: int
    index: np.ndarray
    z_a: np.ndarray
    z_b: np.ndarray
    s_a: np.ndarray
    s_b: np.ndarray
    detector: np.ndarray
    phase_a: np.ndarray
    phase_b: np.ndarray

    def __len__(self) -> int:
        return self.n_rounds


@dataclass
class Pairs:
    """Paired clicks as columns, one entry per pair.

    ``i`` < ``j`` are positions in the click columns of ``Rounds``, so
    ``rounds.index[pairs.i]`` gives round numbers.  The sift columns are
    UNSET until ``sift_and_map`` fills them: ``basis`` indexes ``BASES``;
    key bits ``kappa_a``/``kappa_b`` are 0/1 for Z and X pairs; the
    ``error`` flag is 0/1 for Z pairs only.
    """

    i: np.ndarray
    j: np.ndarray
    basis: np.ndarray
    kappa_a: np.ndarray
    kappa_b: np.ndarray
    error: np.ndarray

    def __len__(self) -> int:
        return len(self.i)


def _unset(n: int) -> np.ndarray:
    return np.full(n, UNSET, dtype=np.int8)


def _click_cells(scenario: Scenario) -> np.ndarray:
    """Probability that a round clicks with outcome (z_a, z_b, s_a, s_b, detector),
    cell k holding those bits from the highest, z_a, down; their sum is p.

    z_a, z_b and the photon port are fair bits; party x's photons survive
    (s_x) with probability q_x = 1 - exp(-mu_x eta_x) when it sends a signal.
    A surviving photon fires its port's detector, which clicks alone unless
    the other one has a dark count; without one, a lone dark count clicks.
    """
    p_d, survival = scenario.params.p_d, []
    for mu, eta in ((scenario.mu_a, scenario.eta_a), (scenario.mu_b, scenario.eta_b)):
        q = -math.expm1(-mu * eta)
        survival.append(((1.0, 0.0), (1.0 - q, q)))  # [z][s]
    return np.array(
        [
            0.25 * survival[0][z_a][s_a] * survival[1][z_b][s_b]
            * ((1.0 - p_d) / 2.0 if s_a or s_b else p_d * (1.0 - p_d))
            for z_a, z_b, s_a, s_b, _ in itertools.product((0, 1), repeat=5)
        ]
    )


def _click_positions(rng, p: float, n_rounds: int) -> np.ndarray:
    """Increasing round numbers in [0, n_rounds) of independent Bernoulli(p) clicks.

    Geometric gaps are summed in chunks, each sized to pass n_rounds at 6
    sigma.  Capping gaps at n_rounds + 1 moves no position below n_rounds
    and keeps the sums in int64."""
    chunks, last = [np.empty(0, dtype=np.int64)], -1
    while p > 0.0 and last < n_rounds:
        expected = (n_rounds - last) * p
        gaps = rng.geometric(p, int(expected + 6.0 * math.sqrt(expected) + 16.0))
        np.minimum(gaps, n_rounds + 1, out=gaps)
        gaps[0] += last
        chunks.append(np.cumsum(gaps, out=gaps))
        last = int(gaps[-1])
    index = chunks[-1] if len(chunks) == 2 else np.concatenate(chunks)  # one chunk: no copy
    return index[: np.searchsorted(index, n_rounds)]


def _invert_cdf(cdf: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cdf[:-1], x, "right")`` as uint8, for a table of at
    most 256 entries and unsorted x: the number of edges at or below each x.

    Each distinct edge adds its multiplicity (zero-mass entries repeat an
    edge) where x passed it; a few passes over x cost less than a binary
    search per key.  The edges ascend, and those above every x add nothing."""
    edges, counts = np.unique(cdf[:-1], return_counts=True)
    index, step = np.zeros(x.size, dtype=np.uint8), np.empty(x.size, dtype=np.uint8)
    top = x.max(initial=-math.inf)
    for edge, count in zip(edges.tolist(), counts.tolist()):
        if edge > top:
            break
        np.greater_equal(x, edge, out=step)
        if count > 1:
            step *= count
        index += step
    return index


def _photon_laws(mu: float, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """Joint masses P(n, lost) = p_n (1 - eta)^n and P(n, survived) = p_n -
    P(n, lost) of a signal pulse's photon number n < 32, p_n = e^-mu mu^n / n!."""
    n = np.arange(32)  # P(n >= 32) < 1e-35 at mu <= 1
    p_n = math.exp(-mu) * mu**n / np.cumprod(np.maximum(n, 1), dtype=float)
    lost = p_n * (1.0 - eta) ** n
    return lost, p_n - lost


def _photons(rng, survived: np.ndarray, mu: float, eta: float) -> np.ndarray:
    """Photon numbers of one party's signal pulses, given whether any photon
    survived: one uniform per pulse inverts the law of its case, scaled by
    the law's tabulated mass."""
    u, photons = rng.random(survived.size), np.empty(survived.size, dtype=np.uint8)
    for at, law in zip((~survived, survived), _photon_laws(mu, eta)):
        cdf = np.cumsum(law)
        photons[at] = _invert_cdf(cdf, u[at] * cdf[-1])
    return photons


def simulate_rounds(scenario: Scenario, n_rounds: int, seed: int, stream: int = 0) -> Rounds:
    """Simulate the clicked rounds among ``n_rounds`` protocol rounds.

    Deterministic for fixed (scenario, n_rounds, seed, stream); separate
    streams are statistically independent.  The generator calls are part of
    the output: the gaps of ``_click_positions``, then two calls of one draw
    per click: a uniform for its ``_click_cells`` cell, which holds z_a, z_b,
    s_a, s_b and the detector, and a byte holding phase a (low nibble) and
    phase b (high nibble).  Changing them is a deliberate numeric change.
    Time and memory scale with the clicks; the columns keep 15 B per click."""
    for name, value, least in (("n_rounds", n_rounds, 1), ("stream", stream, 0)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
    rng = np.random.Generator(np.random.Philox(seed).jumped(stream))  # jumped(0): same state

    cdf = np.cumsum(_click_cells(scenario))
    index = _click_positions(rng, float(cdf[-1]), int(n_rounds))
    u = rng.random(index.size)
    u *= cdf[-1]
    cell = _invert_cdf(cdf, u)
    del u  # 8 B per click, freed before the bit columns are cut
    z_a, z_b, s_a, s_b, detector = (cell >> bit & 1 for bit in (4, 3, 2, 1, 0))
    phases = rng.integers(0, 256, index.size, dtype=np.uint8)
    return Rounds(int(n_rounds), index, z_a, z_b, s_a, s_b, detector, phases & 15, phases >> 4)


def pair_clicks(rounds: Rounds, lam: float) -> Pairs:
    """Greedy left-to-right pairing of clicked rounds.

    At most one click is pending.  The next click pairs with it when the gap
    in round numbers is within the maximal interval; otherwise the stale
    click is dropped and the new one becomes pending.

    Vectorized by run parity: call a gap between consecutive clicks short
    when it is within the interval.  A maximal run of short gaps always
    starts with its first click pending, so greedy pairing takes the gaps
    at even offsets from the run start and skips the odd ones.
    """
    if not is_pairing_interval(lam):
        raise ValueError(f"pairing interval must be an integer >= 1 or inf, got {lam}")
    short = np.diff(rounds.index) <= lam
    gap = np.arange(short.size)
    run_start = np.where(short, 0, gap + 1)
    np.maximum.accumulate(run_start, out=run_start)
    run_start -= gap  # minus each gap's offset in its run, which has its parity
    i = np.flatnonzero(short & (run_start & 1 == 0))
    return Pairs(i, i + 1, _unset(i.size), _unset(i.size), _unset(i.size), _unset(i.size))


def sift_and_map(rounds: Rounds, pairs: Pairs, scenario: Scenario, seed: int = 0) -> Pairs:
    """Basis sifting and key mapping.

    Z pairs map key bits from which round carried the signal pulse (Alice
    and Bob use opposite conventions, so matching combinations agree).  X
    pairs derive bits from the phase-slice difference, keep only matching
    alignment angles, flip Bob's bit on an (L,R)/(R,L) detector pattern and
    then pass it through the misalignment channel, one uniform draw per kept
    X pair in pair order, from the first key spawned from ``seed``, which no
    round stream of ``simulate_rounds`` uses.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed).spawn(1)[0]))
    half = PHASE_SLICES // 2
    i, j = pairs.i, pairs.j
    a_i, b_j = rounds.z_a[i], rounds.z_b[j]
    basis = _PAIR_BASIS[a_i << 3 | rounds.z_a[j] << 2 | rounds.z_b[i] << 1 | b_j]

    # X pair: bits and alignment angles from the phase-slice difference (the
    # uint8 difference wraps mod 256, a multiple of the 16 slices); the
    # angles match when the differences agree below the half-turn bit
    diff_a = (rounds.phase_a[j] - rounds.phase_a[i]) & (PHASE_SLICES - 1)
    diff_b = (rounds.phase_b[j] - rounds.phase_b[i]) & (PHASE_SLICES - 1)
    basis[(basis == X) & ((diff_a ^ diff_b) & (half - 1) != 0)] = DISCARD

    z, x = basis == Z, basis == X
    bit_a, bit_b = a_i.view(np.int8), b_j.view(np.int8)
    # Z pair: Alice's bit is 0 on z bits (0, 1), Bob's is 1 on (0, 1)
    kappa_a = np.where(z, bit_a, np.where(x, (diff_a >= half).view(np.int8), UNSET))
    kappa_b = np.where(z, bit_b, UNSET)
    error = np.where(z, bit_a ^ bit_b, UNSET)
    flip = rounds.detector[i[x]] != rounds.detector[j[x]]
    flip ^= rng.random(np.count_nonzero(x)) < scenario.params.e_d
    kappa_b[x] = (diff_b[x] >= half) ^ flip
    return Pairs(i=i, j=j, basis=basis, kappa_a=kappa_a, kappa_b=kappa_b, error=error)


@dataclass(frozen=True)
class Estimate:
    """A binomial frequency estimate with its standard error."""

    value: float
    std_error: float
    numerator: int
    denominator: int

    def within_sigmas(self, reference: float, sigmas: float = 3.0) -> bool:
        return abs(self.value - reference) <= sigmas * self.std_error


def _estimate(numerator: int, denominator: int) -> Estimate | None:
    if denominator == 0:
        return None
    value = numerator / denominator
    std_error = math.sqrt(max(value * (1.0 - value), 0.0) / denominator)
    return Estimate(value, std_error, numerator, denominator)


@dataclass(frozen=True)
class EmpiricalStats:
    """Empirical counterparts of the analytic per-round quantities.

    Estimates are None when their denominator is empty (flagged undefined).
    ``pairs_by_basis`` counts the pairs of each sift label, in ``BASES`` order.
    """

    p_hat: Estimate | None
    r_p_hat: Estimate | None
    r_s_hat: Estimate | None
    e_z_hat: Estimate | None
    q_bar_hat: Estimate | None
    pairs_by_basis: tuple[int, ...]


def estimate_statistics(
    pairs: Pairs, rounds: Rounds, scenario: Scenario, seed: int = 0
) -> EmpiricalStats:
    """Aggregate click, pairing, sifting and error frequencies.

    ``pairs`` must already be sifted.  The single-photon tag reads source
    photon numbers: exactly one photon per party in total across the pair.
    A Z pair holds one signal round of each party, so only those photon
    numbers are drawn, by ``_photons`` given the round's survived bit: one
    uniform per Z pair for Alice's, then one per Z pair for Bob's, in pair
    order, from the second key spawned from ``seed``, which neither the
    round streams of ``simulate_rounds`` nor ``sift_and_map`` use.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed).spawn(2)[1]))
    by_basis = tuple(int(np.count_nonzero(pairs.basis == code)) for code in range(len(BASES)))
    z = np.flatnonzero(pairs.basis == Z)
    z_pairs = by_basis[Z]
    z_errors = int(np.count_nonzero(pairs.error[z] == 1))
    i, j = pairs.i[z], pairs.j[z]
    one_each = np.ones(z_pairs, dtype=bool)
    for z_bits, survived, mu, eta in (
        (rounds.z_a, rounds.s_a, scenario.mu_a, scenario.eta_a),
        (rounds.z_b, rounds.s_b, scenario.mu_b, scenario.eta_b),
    ):
        signal = np.where(z_bits[i] == 1, i, j)
        one_each &= _photons(rng, survived[signal].view(bool), mu, eta) == 1
    single_photon = int(np.count_nonzero(one_each))
    return EmpiricalStats(
        p_hat=_estimate(rounds.index.size, len(rounds)),
        r_p_hat=_estimate(len(pairs), len(rounds)),
        r_s_hat=_estimate(z_pairs, len(pairs)),
        e_z_hat=_estimate(z_errors, z_pairs),
        q_bar_hat=_estimate(single_photon, z_pairs),
        pairs_by_basis=by_basis,
    )
