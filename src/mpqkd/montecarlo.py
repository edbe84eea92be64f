"""Protocol-level Monte Carlo oracle.

Simulates the per-round physics (intensity and phase choices, Poisson photon
numbers and whether any photon survives the channel, drawn jointly from one
uniform per signal round, dark counts, single-click detection), the greedy
maximal-interval pairing, basis sifting and key mapping, and aggregates
empirical statistics to validate the analytic model.

The detector model routes all surviving photons of a round to one uniformly
chosen detector and adds independent dark counts per detector; a round is
kept when exactly one detector fires.  This reproduces the analytic
click-probability formula up to O(p_d) double-click corrections and keeps
the Z-basis error exactly zero for p_d == 0.

Randomness comes from a counter-based Philox generator keyed by a 64-bit
seed: independent round streams jump the generator per stream index, and
sifting draws from a key spawned from the seed.
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
BLOCK = 1 << 16  # rounds per block of signal uniforms

# Sift labels; a pair's basis column holds the index into BASES.
BASES = ("Z", "X", "zero", "discard")
Z, X, ZERO, DISCARD = range(len(BASES))
# Value of a sift column that is not defined for a pair (or not yet sifted).
UNSET = -1


@dataclass
class Rounds:
    """Column-oriented round storage, one entry per protocol round.

    ``detector`` is 0 = L, 1 = R and meaningful only where ``clicked``;
    phases are slices in [0, 16).  The columns take 10 bytes per round:
    int16 photon numbers, one byte for each of the other six.
    """

    z_a: np.ndarray
    z_b: np.ndarray
    n_a: np.ndarray
    n_b: np.ndarray
    clicked: np.ndarray
    detector: np.ndarray
    phase_a: np.ndarray
    phase_b: np.ndarray

    def __len__(self) -> int:
        return len(self.z_a)


@dataclass
class Pairs:
    """Paired clicked rounds as columns, one entry per pair.

    ``i`` < ``j`` index the two rounds in ``Rounds``.  The sift columns are
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


def _signal_edges(mu: float, eta: float) -> np.ndarray:
    """Cumulative edges of a signal round's joint outcome (n, any photon survived).

    Cell 0 is n = 0; cells 2n - 1 and 2n are n >= 1 photons, none and some
    surviving: p_n (1 - eta)^n and p_n (1 - (1 - eta)^n), p_n = e^-mu mu^n / n!.
    The table stops before the first n >= 2 with p_n < 2^-65; its last cell
    absorbs that tail, below 1.5 p_n < 2^-64 as mu <= 1.
    """
    edges = [math.exp(-mu)]
    for n in itertools.count(1):
        p_n = math.exp(-mu) * mu**n / math.factorial(n)
        if n > 1 and p_n < 2.0**-65:
            return np.array(edges[:-1])
        edges += [edges[-1] + p_n * (1.0 - eta) ** n, edges[-1] + p_n]  # edges[-1] = F(n - 1)


def _photon_numbers(rng, z, survived, mu: float, eta: float) -> np.ndarray:
    """One party's photon numbers; marks ``survived`` where any photon survived.

    One uniform per signal round goes through ``_signal_edges``; only those
    at or above p_0 are searched.  Blocks of ``BLOCK`` rounds keep the
    transient small and draw the same uniforms as one whole-length call.
    """
    edges = _signal_edges(mu, eta)
    photons = np.zeros(z.size, dtype=np.int16)
    for start in range(0, z.size, BLOCK):
        signal = np.flatnonzero(z[start : start + BLOCK].view(bool))  # bool: ~8x faster
        u = rng.random(signal.size)
        carrying = np.flatnonzero(u >= edges[0])  # ~4x faster than a mask index
        rounds = signal[carrying] + start
        cell = np.searchsorted(edges, u[carrying], side="right")
        photons[rounds] = (cell + 1) >> 1
        survived[rounds] |= cell & 1 == 0
    return photons


def simulate_rounds(
    scenario: Scenario, n_rounds: int, seed: int, stream: int = 0
) -> Rounds:
    """Simulate the per-round preparation, channel and detection physics.

    Deterministic for fixed (scenario, n_rounds, seed, stream); separate
    streams are statistically independent.  The generator calls are part of
    the output: one byte per round (bits 0-2: z_a, z_b, photon port 1 = R;
    bits 4-7: phase a), phase b, one uniform per signal round of a, then of
    b (``_photon_numbers``), and for L then R a dark count
    K ~ Binomial(n_rounds, p_d) and a choice of K distinct rounds (the law
    of n_rounds Bernoulli(p_d) flags).  Changing their order or sizes
    changes the columns, so it is a deliberate numeric change.

    On top of the 10 B per round it returns, the transient peak is one
    block's indices and uniforms, about 1 MB.  ``choice`` shuffles an index
    array of all rounds, 8 B per round, only when K > n_rounds / 50
    (p_d >= 0.02).
    """
    for name, value, least in (("n_rounds", n_rounds, 1), ("stream", stream, 0)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
    rng = np.random.Generator(np.random.Philox(seed).jumped(stream))  # jumped(0): same state

    bits = rng.integers(0, 256, n_rounds, dtype=np.uint8)
    phase_b = rng.integers(0, PHASE_SLICES, n_rounds, dtype=np.uint8)
    z_a, z_b, fired_r = bits & 1, bits >> 1 & 1, (bits >> 2 & 1).view(bool)
    phase_a = np.right_shift(bits, 4, out=bits)

    # In place: fired_l holds "a photon survived" until the photon port
    # (fired_r, 1 = R) splits it, and ends as clicked; fired_r ends as detector.
    fired_l = np.zeros(n_rounds, dtype=bool)
    n_a = _photon_numbers(rng, z_a, fired_l, scenario.mu_a, scenario.eta_a)
    n_b = _photon_numbers(rng, z_b, fired_l, scenario.mu_b, scenario.eta_b)
    fired_r &= fired_l
    fired_l ^= fired_r
    for fired in (fired_l, fired_r):
        dark = rng.binomial(n_rounds, scenario.params.p_d)
        fired[rng.choice(n_rounds, dark, replace=False)] = True
    fired_l ^= fired_r  # exactly one detector fired
    return Rounds(z_a, z_b, n_a, n_b, fired_l, fired_r.view(np.uint8), phase_a, phase_b)


def pair_clicks(rounds: Rounds, lam: float) -> Pairs:
    """Greedy left-to-right pairing of clicked rounds.

    At most one clicked round is pending.  The next click pairs with it when
    the index gap is within the maximal interval; otherwise the stale click
    is dropped and the new one becomes pending.  Each click joins at most
    one pair.

    Vectorized by run parity: call a gap between consecutive clicks short
    when it is within the interval.  A maximal run of short gaps always
    starts with its first click pending, so greedy pairing takes the gaps
    at even offsets from the run start and skips the odd ones.
    """
    if not is_pairing_interval(lam):
        raise ValueError(f"pairing interval must be an integer >= 1 or inf, got {lam}")
    clicks = np.flatnonzero(rounds.clicked)
    short = np.diff(clicks) <= lam
    gap = np.arange(short.size)
    run_start = np.maximum.accumulate(np.where(short, 0, gap + 1))
    take = short & ((gap - run_start) % 2 == 0)
    i, j = clicks[:-1][take], clicks[1:][take]
    n = i.size
    return Pairs(i=i, j=j, basis=_unset(n), kappa_a=_unset(n), kappa_b=_unset(n), error=_unset(n))


def _party_label(bit_i: np.ndarray, bit_j: np.ndarray) -> np.ndarray:
    return np.where(bit_i != bit_j, Z, np.where(bit_i == 0, ZERO, X))


def sift_and_map(rounds: Rounds, pairs: Pairs, scenario: Scenario, seed: int = 0) -> Pairs:
    """Basis sifting and key mapping.

    Z pairs map key bits from which round carried the signal pulse (Alice
    and Bob use opposite conventions, so matching combinations agree).  X
    pairs derive bits from the phase-slice difference, keep only matching
    alignment angles, flip Bob's bit on an (L,R)/(R,L) detector pattern and
    then pass it through the misalignment channel, one uniform draw per kept
    X pair in pair order, from a key spawned from ``seed`` that no round
    stream of ``simulate_rounds`` uses.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed).spawn(1)[0]))
    half = PHASE_SLICES // 2
    i, j = pairs.i, pairs.j
    a_i, a_j = rounds.z_a[i], rounds.z_a[j]
    b_i, b_j = rounds.z_b[i], rounds.z_b[j]
    label = _party_label(a_i, a_j)
    basis = np.where(label == _party_label(b_i, b_j), label, DISCARD).astype(np.int8)

    # X pair: bits and alignment angles from the phase-slice difference
    diff_a = (rounds.phase_a[j].astype(np.int16) - rounds.phase_a[i]) % PHASE_SLICES
    diff_b = (rounds.phase_b[j].astype(np.int16) - rounds.phase_b[i]) % PHASE_SLICES
    basis[(basis == X) & (diff_a % half != diff_b % half)] = DISCARD

    kappa_a, kappa_b, error = _unset(i.size), _unset(i.size), _unset(i.size)
    z = basis == Z
    # Z pair: Alice's bit is 0 on z bits (0, 1), Bob's is 1 on (0, 1)
    kappa_a[z] = a_i[z]
    kappa_b[z] = b_j[z]
    error[z] = a_i[z] != b_j[z]
    x = basis == X
    flip = rounds.detector[i[x]] != rounds.detector[j[x]]
    flip ^= rng.random(np.count_nonzero(x)) < scenario.params.e_d
    kappa_a[x] = diff_a[x] >= half
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


def estimate_statistics(pairs: Pairs, rounds: Rounds) -> EmpiricalStats:
    """Aggregate click, pairing, sifting and error frequencies.

    ``pairs`` must already be sifted.  The single-photon tag uses the source
    photon numbers: exactly one photon per party in total across the pair.
    """
    clicks = int(np.count_nonzero(rounds.clicked))
    by_basis = tuple(int(np.count_nonzero(pairs.basis == code)) for code in range(len(BASES)))
    z = pairs.basis == Z
    z_pairs = by_basis[Z]
    z_errors = int(np.count_nonzero(pairs.error[z] == 1))
    i, j = pairs.i[z], pairs.j[z]
    one_each = (rounds.n_a[i] + rounds.n_a[j] == 1) & (rounds.n_b[i] + rounds.n_b[j] == 1)
    single_photon = int(np.count_nonzero(one_each))
    return EmpiricalStats(
        p_hat=_estimate(clicks, len(rounds)),
        r_p_hat=_estimate(len(pairs), len(rounds)),
        r_s_hat=_estimate(z_pairs, len(pairs)),
        e_z_hat=_estimate(z_errors, z_pairs),
        q_bar_hat=_estimate(single_photon, z_pairs),
        pairs_by_basis=by_basis,
    )
