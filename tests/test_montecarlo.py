"""Tests for the Monte Carlo protocol oracle."""
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpqkd.model import Scenario, SystemParams, key_rate, make_scenario, pairing_rate
from mpqkd.montecarlo import (
    BASES,
    PHASE_SLICES,
    UNSET,
    EmpiricalStats,
    Rounds,
    estimate_statistics,
    pair_clicks,
    sift_and_map,
    simulate_rounds,
)

NO_DARK = SystemParams(p_d=0.0)
ROUND_COLUMNS = ("z_a", "z_b", "n_a", "n_b", "clicked", "detector", "phase_a", "phase_b")


def oracle_photons(rng, z, mu: float, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """Reference photon numbers of one party, and where any photon survived.

    One whole-length call draws a uniform u per signal round.  n is the
    number of Poisson CDF values F(0), F(1), ... at or below u, up to the
    first n >= 1 whose tail P(N > n) is below 2^-64, which takes the rest;
    a round with n >= 1 photons lost them all iff u < F(n - 1) + p_n (1 - eta)^n.
    simulate_rounds may cut the tail one photon number later; that moves a
    round only when u lies within a few ulp of 1.
    """
    pmf = [math.exp(-mu) * mu**n / math.factorial(n) for n in range(40)]
    n_max = next(n for n in itertools.count(1) if math.fsum(pmf[n + 1 :]) < 2.0**-64)
    cdf = np.cumsum(pmf[:n_max])
    lost_below = [0.0] + [cdf[n - 1] + pmf[n] * (1.0 - eta) ** n for n in range(1, n_max + 1)]
    signal = np.flatnonzero(z)
    u = rng.random(signal.size)
    n = np.searchsorted(cdf, u, side="right")
    photons = np.zeros(z.size, dtype=np.int16)
    photons[signal] = n
    survived = np.zeros(z.size, dtype=bool)
    survived[signal] = (n > 0) & (u >= np.array(lost_below)[n])
    return photons, survived


def oracle_simulate_rounds(scenario, n_rounds: int, seed: int, stream: int = 0) -> Rounds:
    """Reference: simulate_rounds derived from the same raw draws, each taken
    in one whole-length call: the bits of one byte per round by explicit
    shifts, phase b, the photons of a then b (``oracle_photons``), and the
    dark counts as full-length flag arrays."""
    if n_rounds < 1:
        raise ValueError(f"need at least one round, got {n_rounds}")
    bit_gen = np.random.Philox(seed)
    if stream:
        bit_gen = bit_gen.jumped(stream)
    rng = np.random.Generator(bit_gen)

    byte = rng.integers(0, 256, n_rounds, dtype=np.uint8)
    phase_b = rng.integers(0, PHASE_SLICES, n_rounds, dtype=np.uint8)
    z_a = (byte >> 0) & 1
    z_b = (byte >> 1) & 1
    photon_port = (byte >> 2) & 1
    phase_a = (byte >> 4) & 15
    n_a, survived_a = oracle_photons(rng, z_a, scenario.mu_a, scenario.eta_a)
    n_b, survived_b = oracle_photons(rng, z_b, scenario.mu_b, scenario.eta_b)

    p_d = scenario.params.p_d
    dark_l = np.zeros(n_rounds, dtype=bool)
    dark_l[rng.choice(n_rounds, rng.binomial(n_rounds, p_d), replace=False)] = True
    dark_r = np.zeros(n_rounds, dtype=bool)
    dark_r[rng.choice(n_rounds, rng.binomial(n_rounds, p_d), replace=False)] = True

    got_photon = survived_a | survived_b
    fired_l = (got_photon & (photon_port == 0)) | dark_l
    fired_r = (got_photon & (photon_port == 1)) | dark_r
    clicked = fired_l ^ fired_r
    detector = np.where(fired_r, np.uint8(1), np.uint8(0))

    return Rounds(
        z_a=z_a,
        z_b=z_b,
        n_a=n_a,
        n_b=n_b,
        clicked=clicked,
        detector=detector,
        phase_a=phase_a,
        phase_b=phase_b,
    )


def assert_counts_within_5_sigma(counts, total: int, name: str = "") -> None:
    """Each (count, probability) lies within 5 binomial sigmas of total * probability."""
    for count, p in counts:
        sigma = math.sqrt(total * p * (1.0 - p))
        assert abs(count - total * p) <= 5.0 * sigma, (name, count, total * p, sigma)


def traced_peak(call) -> int:
    """Peak bytes that tracemalloc sees numpy and Python allocate during call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def synthetic_rounds(n: int, clicked_at=(), **column_overrides) -> Rounds:
    """Rounds filled with zeros except for the requested click positions."""
    columns = {
        "z_a": np.zeros(n, dtype=np.uint8),
        "z_b": np.zeros(n, dtype=np.uint8),
        "n_a": np.zeros(n, dtype=np.int16),
        "n_b": np.zeros(n, dtype=np.int16),
        "clicked": np.zeros(n, dtype=bool),
        "detector": np.zeros(n, dtype=np.uint8),
        "phase_a": np.zeros(n, dtype=np.uint8),
        "phase_b": np.zeros(n, dtype=np.uint8),
    }
    columns["clicked"][list(clicked_at)] = True
    columns.update(column_overrides)
    return Rounds(**columns)


def pair_rounds(z_i, z_j, det=(0, 0), phases=((0, 0), (0, 0)), copies=1) -> Rounds:
    """Two clicked rounds per copy with the given (Alice, Bob) z bits,
    detectors and phase slices; pair_clicks(.., 1) pairs each copy."""

    def column(first, second, dtype):
        return np.tile(np.array([first, second], dtype=dtype), copies)

    return synthetic_rounds(
        2 * copies,
        clicked_at=range(2 * copies),
        z_a=column(z_i[0], z_j[0], np.uint8),
        z_b=column(z_i[1], z_j[1], np.uint8),
        detector=column(det[0], det[1], np.uint8),
        phase_a=column(phases[0][0], phases[1][0], np.uint8),
        phase_b=column(phases[0][1], phases[1][1], np.uint8),
    )


def sift_one(sc, z_i, z_j, det=(0, 0), phases=((0, 0), (0, 0))) -> dict:
    """Sift columns of the single pair built by pair_rounds, as a dict."""
    rounds = pair_rounds(z_i, z_j, det, phases)
    sifted = sift_and_map(rounds, pair_clicks(rounds, 1), sc)
    assert len(sifted) == 1
    return {
        "basis": BASES[sifted.basis[0]],
        "kappa_a": int(sifted.kappa_a[0]),
        "kappa_b": int(sifted.kappa_b[0]),
        "error": int(sifted.error[0]),
    }


def index_pairs(pairs) -> list[tuple[int, int]]:
    return list(zip(pairs.i.tolist(), pairs.j.tolist()))


def sifted_pipeline(sc, rounds, seed=0):
    return sift_and_map(rounds, pair_clicks(rounds, sc.lam), sc, seed=seed)


def greedy_pairs(clicked, lam) -> list[tuple[int, int]]:
    """Reference: the one-pending-click greedy loop pair_clicks vectorizes."""
    pairs = []
    pending = None
    for k in np.flatnonzero(clicked).tolist():
        if pending is not None and k - pending <= lam:
            pairs.append((pending, k))
            pending = None
        else:
            pending = k
    return pairs


class TestSimulateRounds:
    def test_deterministic_for_fixed_seed(self):
        sc = make_scenario(100.0, 100.0, 0.5, 0.5, 100, NO_DARK)
        a = simulate_rounds(sc, 50_000, seed=7)
        b = simulate_rounds(sc, 50_000, seed=7)
        for name in ROUND_COLUMNS:
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_streams_differ(self):
        sc = make_scenario(100.0, 100.0, 0.5, 0.5, 100, NO_DARK)
        a = simulate_rounds(sc, 50_000, seed=7, stream=0)
        b = simulate_rounds(sc, 50_000, seed=7, stream=1)
        assert not np.array_equal(a.z_a, b.z_a)

    def test_negligible_signal_never_clicks(self):
        # 5e-324, the least intensity Scenario admits, makes p_0 = 1.0
        for mu in (1e-12, 5e-324):
            sc = make_scenario(100.0, 100.0, mu, mu, 100, NO_DARK)
            rounds = simulate_rounds(sc, 200_000, seed=3)
            assert not rounds.n_a.any() and not rounds.n_b.any(), mu
            assert int(np.count_nonzero(rounds.clicked)) == 0, mu

    @pytest.mark.parametrize("mu, eta", [(0.5, 0.1), (0.05, 0.9), (1.0, 1.0)])
    def test_photon_and_survival_law(self, mu, eta):
        # Party b sends no photon and p_d = 0, so a round clicks iff one of
        # a's photons survived; the detector of a click is the photon port.
        sc = Scenario(eta, eta, mu, 5e-324, 100, SystemParams(eta_d=1.0, p_d=0.0))
        rounds = simulate_rounds(sc, 2_000_000, seed=41)
        signal = rounds.z_a == 1
        n, survived = rounds.n_a[signal], rounds.clicked[signal]
        assert n.size >= 1_000_000
        assert not rounds.clicked[~signal].any()
        # cell 2n + survived; the survived cell of n = 0 has probability 0
        observed = np.bincount(2 * n.astype(np.int64) + survived, minlength=80)
        law = np.zeros(observed.size)
        law[0] = math.exp(-mu)
        for k in range(1, 40):
            p_k = math.exp(-mu) * mu**k / math.factorial(k)
            law[2 * k : 2 * k + 2] = p_k * (1.0 - eta) ** k, p_k * (1.0 - (1.0 - eta) ** k)
        # Cells expected fewer than 10 times are pooled into one tail cell;
        # a cell of probability 0 (lost cells at eta = 1) must stay empty.
        kept = (law * n.size >= 10.0) | (law == 0.0)
        counts = list(zip(observed[kept].tolist(), law[kept]))
        counts.append((int(observed[~kept].sum()), float(law[~kept].sum())))
        assert_counts_within_5_sigma(counts, n.size)

        uniform_columns = {
            "z_a": (rounds.z_a, 2),
            "z_b": (rounds.z_b, 2),
            "z_a x z_b": (2 * rounds.z_a + rounds.z_b, 4),
            "photon port": (rounds.detector[rounds.clicked], 2),
            "phase_a": (rounds.phase_a, PHASE_SLICES),
            "phase_b": (rounds.phase_b, PHASE_SLICES),
        }
        for name, (column, k) in uniform_columns.items():
            tally = np.bincount(column, minlength=k)
            assert tally.size == k, name
            assert_counts_within_5_sigma([(int(c), 1.0 / k) for c in tally], column.size, name)

    @pytest.mark.parametrize("p_d", [0.0, 1e-2, 0.3])
    def test_dark_counts_in_photonless_rounds(self, p_d):
        # A round that sent no photon clicks on one lone dark count, with
        # probability 2 p_d (1 - p_d), and as often on L as on R.  At 0.3
        # numpy's choice shuffles an index array of all rounds; at 1e-2 it
        # samples the K rounds one by one.
        sc = make_scenario(25.0, 25.0, 0.5, 0.5, 100, SystemParams(p_d=p_d))
        rounds = simulate_rounds(sc, 200_000, seed=19)
        photonless = (rounds.n_a == 0) & (rounds.n_b == 0)
        clicked = rounds.clicked[photonless]
        q = 2.0 * p_d * (1.0 - p_d)
        assert abs(clicked.mean() - q) <= 4.0 * math.sqrt(q * (1.0 - q) / clicked.size)
        right = rounds.detector[photonless][clicked]
        assert abs(right.sum() - right.size / 2.0) <= 4.0 * 0.5 * math.sqrt(right.size)

    def test_click_frequency_matches_model(self):
        sc = make_scenario(25.0, 25.0, 0.5, 0.5, 100, NO_DARK)
        rounds = simulate_rounds(sc, 1_000_000, seed=11)
        stats = estimate_statistics(sifted_pipeline(sc, rounds), rounds)
        assert stats.p_hat.within_sigmas(key_rate(sc).p)

    def test_single_detector_flag(self):
        sc = make_scenario(25.0, 25.0, 0.5, 0.5, 100, NO_DARK)
        rounds = simulate_rounds(sc, 10_000, seed=5)
        assert set(np.unique(rounds.detector[rounds.clicked])) <= {0, 1}

    def test_record_view(self):
        sc = make_scenario(25.0, 25.0, 0.5, 0.5, 100, NO_DARK)
        rounds = simulate_rounds(sc, 1_000, seed=5)
        assert len(rounds) == 1_000

    def test_rejects_empty_run(self):
        sc = make_scenario(25.0, 25.0, 0.5, 0.5, 100, NO_DARK)
        with pytest.raises(ValueError):
            simulate_rounds(sc, 0, seed=1)

    @pytest.mark.parametrize(
        "n_rounds, stream, name",
        [
            (2.5, 0, "n_rounds"),
            (1000.0, 0, "n_rounds"),
            (True, 0, "n_rounds"),
            (1000, -1, "stream"),
            (1000, 1.5, "stream"),
            (1000, 2.0, "stream"),
            (1000, True, "stream"),
        ],
    )
    def test_rejects_bad_round_count_or_stream(self, n_rounds, stream, name):
        sc = make_scenario(25.0, 25.0, 0.5, 0.5, 100, NO_DARK)
        with pytest.raises(ValueError, match=name):
            simulate_rounds(sc, n_rounds, seed=1, stream=stream)

    @settings(max_examples=60, deadline=None)
    @given(
        n_rounds=st.one_of(
            st.sampled_from([1, 2, 65_535, 65_536, 65_537, 131_072]),
            st.integers(1, 200_000),
        ),
        p_d=st.sampled_from([0.0, 1.2e-8, 1e-4, 1e-2, 0.3]),
        lossless=st.booleans(),
        distance_b=st.floats(0.0, 100.0),
        mu_a=st.floats(0.0, 1.0, exclude_min=True),
        mu_b=st.floats(0.0, 1.0, exclude_min=True),
        seed=st.integers(0, 2**64 - 1),
        stream=st.sampled_from([0, 3]),
    )
    def test_matches_full_length_oracle(
        self, n_rounds, p_d, lossless, distance_b, mu_a, mu_b, seed, stream
    ):
        # a lossless arm is eta = 1: a perfect detector at 0 km
        if lossless:
            sc = make_scenario(0.0, distance_b, mu_a, mu_b, 100, SystemParams(eta_d=1.0, p_d=p_d))
        else:
            sc = make_scenario(10.0, distance_b, mu_a, mu_b, 100, SystemParams(p_d=p_d))
        got = simulate_rounds(sc, n_rounds, seed, stream)
        want = oracle_simulate_rounds(sc, n_rounds, seed, stream)
        for name in ROUND_COLUMNS:
            column, expected = getattr(got, name), getattr(want, name)
            assert column.dtype == expected.dtype, name
            assert np.array_equal(column, expected), name

    def test_peak_memory(self):
        # 2e6 rounds keep 20 MB of columns (10 B/round); the transient peak
        # is one block's signal indices and uniforms on top (21.1 MB in all).
        # Whole-length Poisson draws peaked at 28.0 MB, the full-length
        # version at 64.3 MB.
        sc = make_scenario(10.0, 10.0, 0.5, 0.5, 100)
        peak = traced_peak(lambda: simulate_rounds(sc, 2_000_000, seed=1))
        assert peak <= 24e6


class TestPairClicks:
    def test_adjacent_clicks_pair(self):
        rounds = synthetic_rounds(4, clicked_at=[1, 2])
        assert index_pairs(pair_clicks(rounds, 1)) == [(1, 2)]

    def test_stale_click_discarded(self):
        rounds = synthetic_rounds(12, clicked_at=[1, 2, 5, 9])
        assert index_pairs(pair_clicks(rounds, 3)) == [(1, 2)]

    def test_gap_exactly_lambda_pairs(self):
        rounds = synthetic_rounds(10, clicked_at=[0, 3])
        assert index_pairs(pair_clicks(rounds, 3)) == [(0, 3)]
        assert len(pair_clicks(rounds, 2)) == 0

    def test_click_used_once(self):
        rounds = synthetic_rounds(10, clicked_at=[0, 1, 2, 3])
        assert index_pairs(pair_clicks(rounds, 5)) == [(0, 1), (2, 3)]

    def test_infinite_interval(self):
        rounds = synthetic_rounds(1000, clicked_at=[3, 900])
        assert index_pairs(pair_clicks(rounds, math.inf)) == [(3, 900)]

    @pytest.mark.parametrize("lam", [2.5, 0.5, 0, True, np.True_])
    def test_rejects_bad_interval(self, lam):
        rounds = synthetic_rounds(10, clicked_at=[0, 1])
        with pytest.raises(ValueError, match="pairing interval must be an integer >= 1 or inf"):
            pair_clicks(rounds, lam)

    def test_pair_validity_properties(self):
        sc = make_scenario(25.0, 25.0, 0.5, 0.5, 50, NO_DARK)
        rounds = simulate_rounds(sc, 500_000, seed=13)
        pairs = pair_clicks(rounds, sc.lam)
        used = set()
        for i, j in index_pairs(pairs):
            assert j - i <= sc.lam
            assert i not in used and j not in used
            used.add(i)
            used.add(j)
        assert 2 * len(pairs) <= int(np.count_nonzero(rounds.clicked))

    def test_bernoulli_pairing_rate_matches_formula(self):
        # clicks as a plain Bernoulli(p) stream: empirical pairs/round vs the
        # renewal formula, within 1% at N=1e7
        n, p, lam = 10_000_000, 0.01, 100
        rng = np.random.Generator(np.random.Philox(99))
        rounds = synthetic_rounds(n, clicked=rng.random(n) < p)
        empirical = len(pair_clicks(rounds, lam)) / n
        assert empirical == pytest.approx(pairing_rate(p, lam), rel=1e-2)

    @settings(max_examples=200, deadline=None)
    @given(
        clicked=st.lists(st.booleans(), max_size=2_000),
        lam=st.sampled_from([1, 2, 3, 100, math.inf]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_greedy_loop(self, clicked, lam, seed):
        n = len(clicked)
        rng = np.random.Generator(np.random.Philox(seed))
        rounds = synthetic_rounds(
            n,
            clicked=np.array(clicked, dtype=bool),
            z_a=rng.integers(0, 2, n, dtype=np.uint8),
            z_b=rng.integers(0, 2, n, dtype=np.uint8),
            detector=rng.integers(0, 2, n, dtype=np.uint8),
            phase_a=rng.integers(0, 16, n, dtype=np.uint8),
            phase_b=rng.integers(0, 16, n, dtype=np.uint8),
        )
        pairs = pair_clicks(rounds, lam)
        found = index_pairs(pairs)
        assert found == greedy_pairs(clicked, lam)
        members = [k for pair in found for k in pair]
        assert len(set(members)) == len(members)
        assert all(clicked[i] and clicked[j] and 0 < j - i <= lam for i, j in found)
        sc = make_scenario(25.0, 25.0, 0.5, 0.5, 100, SystemParams(e_d=0.5))
        basis = sift_and_map(rounds, pairs, sc, seed=seed).basis
        counts = [int(np.count_nonzero(basis == code)) for code in range(len(BASES))]
        assert sum(counts) == len(pairs)


class TestSiftAndMap:
    def test_matching_z_pair_without_error(self):
        sc = make_scenario(100.0, 100.0, 0.5, 0.5, 100, NO_DARK)
        sifted = sift_one(sc, z_i=(0, 1), z_j=(1, 0))
        assert sifted["basis"] == "Z"
        assert sifted["kappa_a"] == 0 and sifted["kappa_b"] == 0
        assert sifted["error"] == 0

    def test_same_round_signals_give_error(self):
        sc = make_scenario(100.0, 100.0, 0.5, 0.5, 100, NO_DARK)
        sifted = sift_one(sc, z_i=(0, 0), z_j=(1, 1))
        assert sifted["basis"] == "Z"
        assert sifted["error"] == 1

    def test_all_vacuum_pair_labeled_zero(self):
        sc = make_scenario(100.0, 100.0, 0.5, 0.5, 100, NO_DARK)
        sifted = sift_one(sc, z_i=(0, 0), z_j=(0, 0))
        assert sifted["basis"] == "zero"
        assert sifted["kappa_a"] == UNSET

    def test_basis_mismatch_discarded(self):
        sc = make_scenario(100.0, 100.0, 0.5, 0.5, 100, NO_DARK)
        assert sift_one(sc, z_i=(1, 0), z_j=(1, 1))["basis"] == "discard"

    def test_x_pair_alignment_angle_rule(self):
        sc = make_scenario(100.0, 100.0, 0.5, 0.5, 100, SystemParams(p_d=0.0, e_d=0.0))
        # same slice difference mod 8: kept; kappa from the half-turn bit
        sifted = sift_one(sc, z_i=(1, 1), z_j=(1, 1), phases=((0, 2), (9, 3)))
        assert sifted["basis"] == "X"
        assert sifted["kappa_a"] == 1  # slice diff 9 >= 8
        assert sifted["kappa_b"] == 0  # slice diff 1
        assert sifted["error"] == UNSET
        mismatched = sift_one(sc, z_i=(1, 1), z_j=(1, 1), phases=((0, 2), (9, 4)))
        assert mismatched["basis"] == "discard"

    def test_x_pair_detector_pattern_flip(self):
        sc = make_scenario(100.0, 100.0, 0.5, 0.5, 100, SystemParams(p_d=0.0, e_d=0.0))
        kept_same = sift_one(sc, z_i=(1, 1), z_j=(1, 1), det=(0, 0))
        kept_split = sift_one(sc, z_i=(1, 1), z_j=(1, 1), det=(0, 1))
        assert kept_same["kappa_b"] == 0
        assert kept_split["kappa_b"] == 1

    def test_misalignment_flips_with_probability(self):
        sc = make_scenario(100.0, 100.0, 0.5, 0.5, 100, SystemParams(p_d=0.0, e_d=0.5))
        rounds = pair_rounds(z_i=(1, 1), z_j=(1, 1), copies=4000)
        sifted = sift_and_map(rounds, pair_clicks(rounds, 1), sc, seed=17)
        assert len(sifted) == 4000
        flipped = int(np.count_nonzero(sifted.kappa_b == 1))
        assert 0.45 < flipped / len(sifted) < 0.55

    @pytest.mark.parametrize("stream", range(4))
    def test_misalignment_independent_of_rounds(self, stream):
        # Pair k's misalignment draw must share no generator word with the
        # rounds simulated at the same seed: among flipped pairs, Alice's z
        # bits of rounds 8k..8k+7 stay fair.
        sc = make_scenario(100.0, 100.0, 0.5, 0.5, 100, SystemParams(p_d=0.0, e_d=0.04))
        copies = 100_000
        rounds = pair_rounds(z_i=(1, 1), z_j=(1, 1), copies=copies)
        flipped = sift_and_map(rounds, pair_clicks(rounds, 1), sc, seed=7).kappa_b == 1
        z_a = simulate_rounds(sc, 8 * copies, seed=7, stream=stream).z_a.reshape(copies, 8)
        ones = z_a[flipped].mean(axis=0)
        assert np.all(np.abs(ones - 0.5) <= 4.0 * 0.5 / math.sqrt(np.count_nonzero(flipped)))

    def test_sifting_conservation(self):
        sc = make_scenario(25.0, 25.0, 0.5, 0.5, 100, NO_DARK)
        rounds = simulate_rounds(sc, 300_000, seed=23)
        pairs = sifted_pipeline(sc, rounds)
        by_basis = {
            name: int(np.count_nonzero(pairs.basis == code)) for code, name in enumerate(BASES)
        }
        assert sum(by_basis.values()) == len(pairs)
        assert by_basis["Z"] > 0 and by_basis["X"] > 0
        stats = estimate_statistics(pairs, rounds)
        assert stats.pairs_by_basis == tuple(by_basis.values())
        assert stats.r_s_hat.numerator == by_basis["Z"]


class TestEstimateStatistics:
    def test_no_clicks_flags_undefined(self):
        sc = make_scenario(100.0, 100.0, 0.5, 0.5, 100, NO_DARK)
        rounds = synthetic_rounds(100)
        stats = estimate_statistics(sifted_pipeline(sc, rounds), rounds)
        assert stats.p_hat.value == 0.0
        assert stats.r_s_hat is None
        assert stats.e_z_hat is None
        assert stats.q_bar_hat is None

    def test_no_darks_no_z_errors(self):
        sc = make_scenario(25.0, 25.0, 0.5, 0.5, 100, NO_DARK)
        rounds = simulate_rounds(sc, 1_000_000, seed=31)
        stats = estimate_statistics(sifted_pipeline(sc, rounds), rounds)
        assert stats.e_z_hat.value == 0.0

    def test_statistics_match_model_within_three_sigma(self):
        sc = make_scenario(25.0, 25.0, 0.5, 0.5, 100, NO_DARK)
        rounds = simulate_rounds(sc, 1_000_000, seed=37)
        stats = estimate_statistics(sifted_pipeline(sc, rounds), rounds)
        ref = key_rate(sc)
        assert stats.p_hat.within_sigmas(ref.p)
        assert stats.r_p_hat.within_sigmas(ref.r_p)
        assert stats.r_s_hat.within_sigmas(ref.r_s)
        assert stats.q_bar_hat.within_sigmas(ref.q_bar_11)

    def test_three_sigma_coverage_across_seeds(self):
        # reduced-N meta-test: every statistic within 3 reference standard
        # errors for at least 95% of seeds
        sc = make_scenario(25.0, 25.0, 0.5, 0.5, 100)
        ref = key_rate(sc)
        passed = 0
        n_seeds = 20
        for seed in range(n_seeds):
            rounds = simulate_rounds(sc, 150_000, seed=seed)
            stats = estimate_statistics(sifted_pipeline(sc, rounds, seed=seed), rounds)
            ok = True
            for name, est in (
                ("p", stats.p_hat),
                ("r_p", stats.r_p_hat),
                ("r_s", stats.r_s_hat),
                ("e_z", stats.e_z_hat),
            ):
                reference = getattr(ref, name)
                band = 3.0 * math.sqrt(reference * (1.0 - reference) / est.denominator)
                ok &= abs(est.value - reference) <= band
            passed += ok
        assert passed >= math.ceil(0.95 * n_seeds)
