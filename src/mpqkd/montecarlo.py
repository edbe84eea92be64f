"""Protocol-level Monte Carlo oracle.

Simulates the per-round physics (intensity and phase choices, Poisson photon
numbers, per-photon channel survival, dark counts, single-click detection),
the greedy maximal-interval pairing, basis sifting and key mapping, and
aggregates empirical statistics to validate the analytic model.

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


def _photon_numbers(rng: np.random.Generator, z: np.ndarray, mu: float) -> np.ndarray:
    """Poisson photon numbers of one party, drawn only for its signal rounds."""
    photons = np.zeros(z.size, dtype=np.int16)
    signal = np.flatnonzero(z.view(bool))  # a bool view is ~8x faster than uint8
    photons[signal] = rng.poisson(mu, signal.size)
    return photons


def _mark_survivors(
    rng: np.random.Generator, survived: np.ndarray, photons: np.ndarray, eta: float
) -> None:
    """Set ``survived`` where at least one of a round's photons survives."""
    carrying = np.flatnonzero(photons)
    survived[carrying[rng.binomial(photons[carrying], eta) > 0]] = True


def simulate_rounds(
    scenario: Scenario, n_rounds: int, seed: int, stream: int = 0
) -> Rounds:
    """Simulate the per-round preparation, channel and detection physics.

    Deterministic for fixed (scenario, n_rounds, seed, stream); separate
    streams are statistically independent.  The generator calls are part of
    the output: z_a, z_b, Poisson a, Poisson b, binomial a, binomial b,
    detector port, for L then R a dark count K ~ Binomial(n_rounds, p_d)
    and a choice of K distinct rounds (the law of n_rounds Bernoulli(p_d)
    flags), phase a, phase b.  Changing their order or sizes changes the
    columns, so it is a deliberate numeric change.

    On top of the 10 B per round it returns, the transient peak is one
    party's signal indices and Poisson draws: 16 B per signal round, about
    8 B per round.  ``choice`` shuffles an index array of all rounds, the
    same 8 B per round, only when K > n_rounds / 50 (p_d >= 0.02).
    """
    for name, value in (("n_rounds", n_rounds), ("stream", stream)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if n_rounds < 1:
        raise ValueError(f"need at least one round, got n_rounds={n_rounds}")
    if stream < 0:
        raise ValueError(f"stream must be >= 0, got {stream}")
    bit_gen = np.random.Philox(seed)
    if stream:
        bit_gen = bit_gen.jumped(stream)
    rng = np.random.Generator(bit_gen)

    z_a = rng.integers(0, 2, n_rounds, dtype=np.uint8)
    z_b = rng.integers(0, 2, n_rounds, dtype=np.uint8)
    n_a = _photon_numbers(rng, z_a, scenario.mu_a)
    n_b = _photon_numbers(rng, z_b, scenario.mu_b)

    # In place: fired_l holds "a photon survived" until the photon port
    # (1 = R) splits it, and ends as clicked; fired_r ends as detector.
    fired_l = np.zeros(n_rounds, dtype=bool)
    _mark_survivors(rng, fired_l, n_a, scenario.eta_a)
    _mark_survivors(rng, fired_l, n_b, scenario.eta_b)
    fired_r = rng.integers(0, 2, n_rounds, dtype=np.uint8).view(bool)
    fired_r &= fired_l
    fired_l ^= fired_r
    for fired in (fired_l, fired_r):
        dark = rng.binomial(n_rounds, scenario.params.p_d)
        fired[rng.choice(n_rounds, dark, replace=False)] = True
    fired_l ^= fired_r  # exactly one detector fired

    phase_a = rng.integers(0, PHASE_SLICES, n_rounds, dtype=np.uint8)
    phase_b = rng.integers(0, PHASE_SLICES, n_rounds, dtype=np.uint8)

    return Rounds(
        z_a=z_a,
        z_b=z_b,
        n_a=n_a,
        n_b=n_b,
        clicked=fired_l,
        detector=fired_r.view(np.uint8),
        phase_a=phase_a,
        phase_b=phase_b,
    )


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
        band = sigmas * self.std_error
        return abs(self.value - reference) <= band


def _estimate(numerator: int, denominator: int) -> Estimate | None:
    if denominator == 0:
        return None
    value = numerator / denominator
    return Estimate(
        value=value,
        std_error=math.sqrt(max(value * (1.0 - value), 0.0) / denominator),
        numerator=numerator,
        denominator=denominator,
    )


@dataclass(frozen=True)
class EmpiricalStats:
    """Empirical counterparts of the analytic per-round quantities.

    Estimates are None when their denominator is empty (flagged undefined).
    """

    p_hat: Estimate | None
    r_p_hat: Estimate | None
    r_s_hat: Estimate | None
    e_z_hat: Estimate | None
    q_bar_hat: Estimate | None


def estimate_statistics(pairs: Pairs, rounds: Rounds) -> EmpiricalStats:
    """Aggregate click, pairing, sifting and error frequencies.

    ``pairs`` must already be sifted.  The single-photon tag uses the source
    photon numbers: exactly one photon per party in total across the pair.
    """
    n_rounds = len(rounds)
    clicks = int(np.count_nonzero(rounds.clicked))
    z = pairs.basis == Z
    z_pairs = int(np.count_nonzero(z))
    z_errors = int(np.count_nonzero(pairs.error[z] == 1))
    i, j = pairs.i[z], pairs.j[z]
    single_photon = int(
        np.count_nonzero(
            (rounds.n_a[i] + rounds.n_a[j] == 1) & (rounds.n_b[i] + rounds.n_b[j] == 1)
        )
    )
    return EmpiricalStats(
        p_hat=_estimate(clicks, n_rounds),
        r_p_hat=_estimate(len(pairs), n_rounds),
        r_s_hat=_estimate(z_pairs, len(pairs)),
        e_z_hat=_estimate(z_errors, z_pairs),
        q_bar_hat=_estimate(single_photon, z_pairs),
    )
