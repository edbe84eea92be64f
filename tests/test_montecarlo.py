"""Tests for the Monte Carlo protocol oracle."""
import copy
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpqkd.montecarlo
from mpqkd.model import Scenario, SystemParams, key_rate, make_scenario, pairing_rate
from mpqkd.montecarlo import (
    BASES,
    PHASE_SLICES,
    UNSET,
    X,
    EmpiricalStats,
    Rounds,
    _click_cells,
    _click_positions,
    _invert_cdf,
    _photon_laws,
    _photons,
    estimate_statistics,
    pair_clicks,
    sift_and_map,
    simulate_rounds,
)
from oracles import reference_sift

NO_DARK = SystemParams(p_d=0.0)
CLICK_COLUMNS = ("index", "z_a", "z_b", "s_a", "s_b", "detector", "phase_a", "phase_b")


def reference_rounds(scenario, n_rounds: int, seed: int) -> tuple[Rounds, dict]:
    """Reference: every round drawn on its own, under the detector rule.

    z_a, z_b and the photon port are fair bits, phases uniform slices; a
    party that sends a signal emits Poisson(mu) photons, each surviving the
    channel with probability eta; L and R take independent dark counts with
    probability p_d; a round is kept when exactly one detector fires.
    Returns the clicks as ``Rounds`` and, per party, the photon numbers of
    the clicked rounds.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    z = rng.integers(0, 2, (2, n_rounds), dtype=np.uint8)
    port = rng.integers(0, 2, n_rounds, dtype=np.uint8)
    phases = rng.integers(0, PHASE_SLICES, (2, n_rounds), dtype=np.uint8)
    mu = np.array([[scenario.mu_a], [scenario.mu_b]])
    eta = np.array([[scenario.eta_a], [scenario.eta_b]])
    n = rng.poisson(mu * z).astype(np.int16)
    survived = rng.binomial(n, eta) > 0
    dark = rng.random((2, n_rounds)) < scenario.params.p_d
    photon = survived.any(axis=0)
    fired_l = (photon & (port == 0)) | dark[0]
    fired_r = (photon & (port == 1)) | dark[1]
    clicked = fired_l ^ fired_r
    rounds = Rounds(
        n_rounds,
        np.flatnonzero(clicked),
        *z[:, clicked],
        *survived[:, clicked].astype(np.uint8),
        fired_r[clicked].astype(np.uint8),
        *phases[:, clicked],
    )
    return rounds, {"a": n[0, clicked], "b": n[1, clicked]}


def assert_counts_within_5_sigma(counts, total: int, name: str = "") -> None:
    """Each (count, probability) lies within 5 binomial sigmas of total * probability."""
    for count, p in counts:
        sigma = math.sqrt(total * p * (1.0 - p))
        assert abs(count - total * p) <= 5.0 * sigma, (name, count, total * p, sigma)


def assert_same_law_within_5_sigma(first, second, name: str = "") -> None:
    """Two tallies over the same categories, each a multinomial sample of its
    own size, agree within 5 sigma per category, sigma from the pooled
    frequency.  Categories expected fewer than 10 times in the smaller
    sample are pooled into one tail category."""
    first, second = np.asarray(first, dtype=float), np.asarray(second, dtype=float)
    n_1, n_2 = first.sum(), second.sum()
    rare = (first + second) / (n_1 + n_2) * min(n_1, n_2) < 10.0
    for c_1, c_2 in [*zip(first[~rare], second[~rare]), (first[rare].sum(), second[rare].sum())]:
        p = (c_1 + c_2) / (n_1 + n_2)
        sigma = math.sqrt(p * (1.0 - p) * (1.0 / n_1 + 1.0 / n_2))
        assert abs(c_1 / n_1 - c_2 / n_2) <= 5.0 * sigma, (name, c_1, n_1, c_2, n_2)


def assert_law_within_5_sigma(observed, law, name: str = "") -> None:
    """The values ``observed`` follow the probabilities ``law`` over 0, 1, ...
    within 5 sigma per value.  Values expected fewer than 10 times are pooled
    into one tail value; a value of probability 0 must not occur."""
    law = np.asarray(law, dtype=float)
    tally = np.bincount(observed, minlength=law.size)
    assert tally.size == law.size, (name, tally.size)
    kept = (law * observed.size >= 10.0) | (law == 0.0)
    counts = list(zip(tally[kept].tolist(), law[kept]))
    counts.append((int(tally[~kept].sum()), float(law[~kept].sum())))
    assert_counts_within_5_sigma(counts, observed.size, name)


def traced_peak(call) -> int:
    """Peak bytes that tracemalloc sees numpy and Python allocate during call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def synthetic_rounds(n: int, clicked_at=(), **column_overrides) -> Rounds:
    """n rounds that click at the requested round numbers, with all-zero
    click columns unless overridden."""
    index = np.asarray(clicked_at, dtype=np.int64)
    columns = {
        "z_a": np.zeros(index.size, dtype=np.uint8),
        "z_b": np.zeros(index.size, dtype=np.uint8),
        "s_a": np.zeros(index.size, dtype=np.uint8),
        "s_b": np.zeros(index.size, dtype=np.uint8),
        "detector": np.zeros(index.size, dtype=np.uint8),
        "phase_a": np.zeros(index.size, dtype=np.uint8),
        "phase_b": np.zeros(index.size, dtype=np.uint8),
    }
    columns.update(column_overrides)
    return Rounds(n, index, **columns)


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


def round_pairs(rounds, pairs) -> list[tuple[int, int]]:
    """The pairs as (round number, round number)."""
    return list(zip(rounds.index[pairs.i].tolist(), rounds.index[pairs.j].tolist()))


def sifted_pipeline(sc, rounds, seed=0):
    return sift_and_map(rounds, pair_clicks(rounds, sc.lam), sc, seed=seed)


def greedy_pairs(index, lam) -> list[tuple[int, int]]:
    """Reference: the one-pending-click greedy loop pair_clicks vectorizes,
    over the round numbers of the clicks."""
    pairs = []
    pending = None
    for k in index:
        if pending is not None and k - pending <= lam:
            pairs.append((pending, k))
            pending = None
        else:
            pending = k
    return pairs


class FixedGaps:
    """A stand-in generator whose geometric draws all equal ``gap``."""

    def __init__(self, gap: int):
        self.gap = gap

    def geometric(self, p, size):
        return np.full(size, self.gap, dtype=np.int64)


class TestSimulateRounds:
    def test_deterministic_for_fixed_seed(self):
        sc = make_scenario(100.0, 100.0, 0.5, 0.5, 100, NO_DARK)
        a = simulate_rounds(sc, 50_000, seed=7)
        b = simulate_rounds(sc, 50_000, seed=7)
        for name in CLICK_COLUMNS:
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_streams_differ(self):
        sc = make_scenario(100.0, 100.0, 0.5, 0.5, 100, NO_DARK)
        a = simulate_rounds(sc, 50_000, seed=7, stream=0)
        b = simulate_rounds(sc, 50_000, seed=7, stream=1)
        assert not np.array_equal(a.index, b.index)

    def test_negligible_signal_never_clicks(self):
        # 5e-324, the least intensity Scenario admits, makes p_0 = 1.0 and,
        # with p_d = 0, the click probability exactly 0
        for mu in (1e-12, 5e-324):
            sc = make_scenario(100.0, 100.0, mu, mu, 100, NO_DARK)
            rounds = simulate_rounds(sc, 200_000, seed=3)
            assert rounds.index.size == 0, mu
            assert len(rounds) == 200_000
        assert _click_cells(sc).sum() == 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        distance_a=st.floats(0.0, 300.0),
        distance_b=st.floats(0.0, 300.0),
        mu_a=st.floats(1e-6, 1.0),
        mu_b=st.floats(1e-6, 1.0),
        p_d=st.sampled_from([0.0, 1.2e-8, 1e-4, 1e-2, 0.3]),
    )
    def test_click_probability_is_model_p_times_one_minus_p_d(
        self, distance_a, distance_b, mu_a, mu_b, p_d
    ):
        # The cells sum to the exact click probability of the detector rule,
        # which is the model's p = 1 - (1 - 2 p_d) E[e^-x] times 1 - p_d:
        # a surviving photon clicks only if the other detector stays dark.
        sc = make_scenario(distance_a, distance_b, mu_a, mu_b, 100, SystemParams(p_d=p_d))
        want = (1.0 - p_d) * key_rate(sc).p
        assert _click_cells(sc).sum() == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("p_d", [0.0, 1e-2, 0.3])
    def test_matches_per_round_reference(self, p_d):
        # Clicks drawn as a Bernoulli process with a cell per click against
        # every round drawn on its own: the (z_a, z_b, s_a, s_b, detector)
        # counts, the photon numbers given survived or lost, and the pair
        # counts agree.
        sc = make_scenario(10.0, 30.0, 0.5, 0.3, 100, SystemParams(p_d=p_d))
        n_rounds = 1_000_000
        got = simulate_rounds(sc, n_rounds, seed=29)
        want, photon_numbers = reference_rounds(sc, n_rounds, seed=29)

        def cells(rounds):
            code = 16 * rounds.z_a + 8 * rounds.z_b + 4 * rounds.s_a + 2 * rounds.s_b
            return np.bincount(code + rounds.detector, minlength=32)

        for k, (c_1, c_2) in enumerate(zip(cells(got), cells(want))):
            assert_same_law_within_5_sigma([c_1, n_rounds - c_1], [c_2, n_rounds - c_2], k)

        rng = np.random.Generator(np.random.Philox(29))
        for party, mu, eta in (("a", sc.mu_a, sc.eta_a), ("b", sc.mu_b, sc.eta_b)):
            signal = getattr(want, f"z_{party}") == 1
            flags = getattr(want, f"s_{party}")[signal].view(bool)
            drawn = _photons(rng, flags, mu, eta)
            photons = photon_numbers[party][signal]
            for flag in (False, True):
                at = flags == flag
                tallies = [np.bincount(n[at], minlength=32) for n in (drawn, photons)]
                assert_same_law_within_5_sigma(*tallies, (party, flag))

        pairs = [len(pair_clicks(rounds, sc.lam)) for rounds in (got, want)]
        assert_same_law_within_5_sigma(
            [pairs[0], n_rounds - pairs[0]], [pairs[1], n_rounds - pairs[1]], "pairs"
        )

    @pytest.mark.parametrize("mu, eta", [(0.5, 0.1), (0.05, 0.9), (1.0, 1.0)])
    def test_photon_and_survival_law(self, mu, eta):
        # Party b sends no photon and p_d = 0, so a round clicks iff it is a
        # signal round of a in which one of a's photons survived, with
        # probability q / 2; the detector of a click is the photon port.
        sc = Scenario(eta, eta, mu, 5e-324, 100, SystemParams(eta_d=1.0, p_d=0.0))
        n_rounds = 2_000_000
        rounds = simulate_rounds(sc, n_rounds, seed=41)
        q = -math.expm1(-mu * eta)
        clicks = rounds.index.size
        assert_counts_within_5_sigma([(clicks, q / 2.0)], n_rounds)
        assert np.all(rounds.z_a == 1) and np.all(rounds.s_a == 1) and not rounds.s_b.any()
        # photon numbers drawn at these clicks, as estimate_statistics draws
        # them: p_n (1 - (1 - eta)^n) / q, and n = 0 (probability 0) never
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(41).spawn(2)[1]))
        photons = _photons(rng, rounds.s_a.view(bool), mu, eta)
        p_k = [math.exp(-mu) * mu**k / math.factorial(k) for k in range(40)]
        law = [p * (1.0 - (1.0 - eta) ** k) / q for k, p in enumerate(p_k)]
        assert_law_within_5_sigma(photons, law)

        uniform_columns = {
            "z_b": (rounds.z_b, 2),
            "photon port": (rounds.detector, 2),
            "phase_a": (rounds.phase_a, PHASE_SLICES),
            "phase_b": (rounds.phase_b, PHASE_SLICES),
        }
        for name, (column, k) in uniform_columns.items():
            tally = np.bincount(column, minlength=k)
            assert tally.size == k, name
            assert_counts_within_5_sigma([(int(c), 1.0 / k) for c in tally], column.size, name)

    @pytest.mark.parametrize("p_d", [0.0, 1e-2, 0.3])
    def test_dark_counts_in_photonless_rounds(self, p_d):
        # A round in which no photon reached the detectors, with probability
        # (1 - q_a / 2)(1 - q_b / 2), q_x = 1 - e^(-mu_x eta_x), clicks on
        # one lone dark count, with probability 2 p_d (1 - p_d), and as
        # often on L as on R.
        sc = make_scenario(25.0, 25.0, 0.5, 0.5, 100, SystemParams(p_d=p_d))
        n_rounds = 200_000
        rounds = simulate_rounds(sc, n_rounds, seed=19)
        no_photon = (rounds.s_a == 0) & (rounds.s_b == 0)
        q = 2.0 * p_d * (1.0 - p_d)
        for mu, eta in ((sc.mu_a, sc.eta_a), (sc.mu_b, sc.eta_b)):
            q *= 1.0 + math.expm1(-mu * eta) / 2.0
        count = np.count_nonzero(no_photon)
        assert abs(count - n_rounds * q) <= 4.0 * math.sqrt(n_rounds * q * (1.0 - q))
        right = rounds.detector[no_photon]
        assert abs(right.sum() - right.size / 2.0) <= 4.0 * 0.5 * math.sqrt(right.size)

    def test_click_frequency_matches_model(self):
        sc = make_scenario(25.0, 25.0, 0.5, 0.5, 100, NO_DARK)
        rounds = simulate_rounds(sc, 1_000_000, seed=11)
        stats = estimate_statistics(sifted_pipeline(sc, rounds), rounds, sc)
        assert stats.p_hat.within_sigmas(key_rate(sc).p)

    def test_single_detector_flag(self):
        sc = make_scenario(25.0, 25.0, 0.5, 0.5, 100, NO_DARK)
        rounds = simulate_rounds(sc, 10_000, seed=5)
        assert set(np.unique(rounds.detector)) <= {0, 1}

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
        n_rounds=st.one_of(st.sampled_from([1, 2, 3]), st.integers(1, 200_000)),
        p_d=st.sampled_from([0.0, 1.2e-8, 1e-4, 1e-2, 0.3]),
        lossless=st.booleans(),
        distance_b=st.floats(0.0, 100.0),
        mu_a=st.floats(0.0, 1.0, exclude_min=True),
        mu_b=st.floats(0.0, 1.0, exclude_min=True),
        seed=st.integers(0, 2**64 - 1),
        stream=st.sampled_from([0, 3]),
    )
    def test_click_columns_well_formed(
        self, n_rounds, p_d, lossless, distance_b, mu_a, mu_b, seed, stream
    ):
        # a lossless arm is eta = 1: a perfect detector at 0 km
        if lossless:
            sc = make_scenario(0.0, distance_b, mu_a, mu_b, 100, SystemParams(eta_d=1.0, p_d=p_d))
        else:
            sc = make_scenario(10.0, distance_b, mu_a, mu_b, 100, SystemParams(p_d=p_d))
        rounds = simulate_rounds(sc, n_rounds, seed, stream)
        for name in CLICK_COLUMNS:
            column = getattr(rounds, name)
            dtype = np.int64 if name == "index" else np.uint8
            assert column.dtype == dtype and column.shape == rounds.index.shape, name
        index = rounds.index
        assert len(rounds) == n_rounds
        assert np.all(np.diff(index) > 0) and np.all((index >= 0) & (index < n_rounds))
        for name in ("z_a", "z_b", "s_a", "s_b", "detector"):
            assert getattr(rounds, name).max(initial=0) <= 1, name
        # no photon survives without a signal
        assert np.all(rounds.s_a <= rounds.z_a) and np.all(rounds.s_b <= rounds.z_b)
        assert max(rounds.phase_a.max(initial=0), rounds.phase_b.max(initial=0)) < PHASE_SLICES
        if p_d == 0.0:  # every click carries a surviving photon
            assert np.all((rounds.s_a == 1) | (rounds.s_b == 1))

    @pytest.mark.parametrize("n_rounds", [1, 2, 1_000, 10_007])
    def test_positions_in_several_chunks(self, n_rounds):
        # Unit gaps click in every round, far more than one chunk holds at
        # p = 0.01, so the chunks are summed one after another.
        index = _click_positions(FixedGaps(1), 0.01, n_rounds)
        assert np.array_equal(index, np.arange(n_rounds))

    def test_saturated_gaps_do_not_wrap(self):
        # numpy saturates a geometric draw at INT64_MAX for a tiny p; summing
        # such gaps must not wrap around into [0, n_rounds).
        assert _click_positions(FixedGaps(2**63 - 1), 1e-300, 1_000).size == 0

    def test_peak_memory(self):
        # 2e6 rounds at 10+10 km click ~120,000 times: 1.8 MB of columns
        # (15 B/click) plus per-click temporaries, measured 2.2 MB at the
        # peak.  Per-round columns alone would take 20 MB.
        sc = make_scenario(10.0, 10.0, 0.5, 0.5, 100)
        peak = traced_peak(lambda: simulate_rounds(sc, 2_000_000, seed=1))
        assert peak <= 7.3e6

    def test_peak_memory_at_1e8_rounds(self):
        # 1e8 rounds at 100+100 km click ~100,000 times; per-round columns
        # would take 1 GB.
        sc = make_scenario(100.0, 100.0, 0.5, 0.5, 100)
        peak = traced_peak(lambda: simulate_rounds(sc, 100_000_000, seed=1))
        assert peak < 16e6


class TestInvertCdf:
    @staticmethod
    def assert_matches_searchsorted(cdf):
        edges, total = cdf[:-1], cdf[-1]
        rng = np.random.Generator(np.random.Philox(5))
        x = np.concatenate(
            [
                [0.0, np.nextafter(total, 0.0)],
                edges,
                np.nextafter(edges, 0.0),
                rng.random(20_000) * total,
            ]
        )
        got = _invert_cdf(cdf, x)
        assert got.dtype == np.uint8
        assert np.array_equal(got, np.searchsorted(edges, x, "right"))

    @pytest.mark.parametrize(
        "mu, p_d",
        [(0.5, 0.0), (0.5, 1.2e-8), (0.5, 1e-2), (0.5, 0.3), (5e-324, 1.2e-8), (5e-324, 0.0)],
    )
    def test_click_cell_tables(self, mu, p_d):
        sc = make_scenario(10.0, 30.0, mu, mu, 100, SystemParams(p_d=p_d))
        self.assert_matches_searchsorted(np.cumsum(_click_cells(sc)))

    @pytest.mark.parametrize("mu, eta", [(0.5, 0.1), (0.05, 0.9), (1.0, 1.0)])
    def test_photon_tables(self, mu, eta):
        for law in _photon_laws(mu, eta):
            self.assert_matches_searchsorted(np.cumsum(law))


class TestPairClicks:
    def test_adjacent_clicks_pair(self):
        rounds = synthetic_rounds(4, clicked_at=[1, 2])
        assert round_pairs(rounds, pair_clicks(rounds, 1)) == [(1, 2)]

    def test_stale_click_discarded(self):
        rounds = synthetic_rounds(12, clicked_at=[1, 2, 5, 9])
        assert round_pairs(rounds, pair_clicks(rounds, 3)) == [(1, 2)]

    def test_gap_exactly_lambda_pairs(self):
        rounds = synthetic_rounds(10, clicked_at=[0, 3])
        assert round_pairs(rounds, pair_clicks(rounds, 3)) == [(0, 3)]
        assert len(pair_clicks(rounds, 2)) == 0

    def test_click_used_once(self):
        rounds = synthetic_rounds(10, clicked_at=[0, 1, 2, 3])
        assert round_pairs(rounds, pair_clicks(rounds, 5)) == [(0, 1), (2, 3)]

    def test_infinite_interval(self):
        rounds = synthetic_rounds(1000, clicked_at=[3, 900])
        assert round_pairs(rounds, pair_clicks(rounds, math.inf)) == [(3, 900)]

    @pytest.mark.parametrize("lam", [2.5, 0.5, 0, True, np.True_])
    def test_rejects_bad_interval(self, lam):
        rounds = synthetic_rounds(10, clicked_at=[0, 1])
        with pytest.raises(ValueError, match="pairing interval must be an integer >= 1 or inf"):
            pair_clicks(rounds, lam)

    def test_pair_validity_properties(self):
        sc = make_scenario(25.0, 25.0, 0.5, 0.5, 50, NO_DARK)
        rounds = simulate_rounds(sc, 500_000, seed=13)
        pairs = pair_clicks(rounds, sc.lam)
        assert np.array_equal(pairs.j, pairs.i + 1)
        used = set()
        for i, j in round_pairs(rounds, pairs):
            assert j - i <= sc.lam
            assert i not in used and j not in used
            used.add(i)
            used.add(j)
        assert 2 * len(pairs) <= rounds.index.size

    def test_bernoulli_pairing_rate_matches_formula(self):
        # clicks as a plain Bernoulli(p) stream: empirical pairs/round vs the
        # renewal formula, within 1% at N=1e7
        n, p, lam = 10_000_000, 0.01, 100
        rng = np.random.Generator(np.random.Philox(99))
        rounds = synthetic_rounds(n, clicked_at=np.flatnonzero(rng.random(n) < p))
        empirical = len(pair_clicks(rounds, lam)) / n
        assert empirical == pytest.approx(pairing_rate(p, lam), rel=1e-2)

    @settings(max_examples=200, deadline=None)
    @given(
        clicked=st.lists(st.booleans(), max_size=2_000),
        lam=st.sampled_from([1, 2, 3, 100, math.inf]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_greedy_loop(self, clicked, lam, seed):
        index = np.flatnonzero(np.array(clicked, dtype=bool))
        k = index.size
        rng = np.random.Generator(np.random.Philox(seed))
        rounds = synthetic_rounds(
            len(clicked),
            clicked_at=index,
            z_a=rng.integers(0, 2, k, dtype=np.uint8),
            z_b=rng.integers(0, 2, k, dtype=np.uint8),
            detector=rng.integers(0, 2, k, dtype=np.uint8),
            phase_a=rng.integers(0, 16, k, dtype=np.uint8),
            phase_b=rng.integers(0, 16, k, dtype=np.uint8),
        )
        pairs = pair_clicks(rounds, lam)
        found = round_pairs(rounds, pairs)
        assert found == greedy_pairs(index.tolist(), lam)
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
        # rounds simulated at the same seed: among flipped pairs, the
        # detectors of clicks 8k..8k+7 (fair bits) stay fair.  The lossless
        # arms click in about half the rounds.
        sc = make_scenario(100.0, 100.0, 0.5, 0.5, 100, SystemParams(p_d=0.0, e_d=0.04))
        copies = 100_000
        rounds = pair_rounds(z_i=(1, 1), z_j=(1, 1), copies=copies)
        flipped = sift_and_map(rounds, pair_clicks(rounds, 1), sc, seed=7).kappa_b == 1
        lossless = Scenario(1.0, 1.0, 1.0, 1.0, 100, SystemParams(eta_d=1.0, p_d=0.0))
        clicks = simulate_rounds(lossless, 20 * copies, seed=7, stream=stream)
        detector = clicks.detector[: 8 * copies].reshape(copies, 8)
        ones = detector[flipped].mean(axis=0)
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
        stats = estimate_statistics(pairs, rounds, sc)
        assert stats.pairs_by_basis == tuple(by_basis.values())
        assert stats.r_s_hat.numerator == by_basis["Z"]

    @staticmethod
    def assert_matches_reference(rounds, pairs, sc, seed):
        got, want = sift_and_map(rounds, pairs, sc, seed), reference_sift(rounds, pairs, sc, seed)
        for name in ("i", "j", "basis", "kappa_a", "kappa_b", "error"):
            column, expected = getattr(got, name), getattr(want, name)
            assert column.dtype == expected.dtype, name
            assert np.array_equal(column, expected), name

    @pytest.mark.parametrize("e_d", [0.0, 0.04, 0.5])
    @pytest.mark.parametrize(
        "distance_a, distance_b, lam", [(10.0, 10.0, 100), (0.0, 40.0, 1), (60.0, 5.0, math.inf)]
    )
    def test_matches_reference_on_simulated_rounds(self, distance_a, distance_b, lam, e_d):
        sc = make_scenario(distance_a, distance_b, 0.5, 0.3, lam, SystemParams(e_d=e_d))
        rounds = simulate_rounds(sc, 300_000, seed=43)
        self.assert_matches_reference(rounds, pair_clicks(rounds, sc.lam), sc, seed=43)

    @pytest.mark.parametrize("e_d", [0.0, 0.04, 0.5])
    def test_matches_reference_on_every_z_pattern(self, e_d):
        # random detectors and phase slices under each of the 16 z-bit
        # patterns (z_a[i], z_a[j], z_b[i], z_b[j])
        sc = make_scenario(25.0, 25.0, 0.5, 0.5, 100, SystemParams(e_d=e_d))
        rng = np.random.Generator(np.random.Philox(47))
        for a_i, a_j, b_i, b_j in itertools.product((0, 1), repeat=4):
            rounds = pair_rounds(z_i=(a_i, b_i), z_j=(a_j, b_j), copies=512)
            for name in ("detector", "phase_a", "phase_b"):
                high = 2 if name == "detector" else PHASE_SLICES
                getattr(rounds, name)[:] = rng.integers(0, high, 1024, dtype=np.uint8)
            self.assert_matches_reference(rounds, pair_clicks(rounds, 1), sc, seed=a_i + 2 * b_j)


class TestEstimateStatistics:
    def test_no_clicks_flags_undefined(self):
        sc = make_scenario(100.0, 100.0, 0.5, 0.5, 100, NO_DARK)
        rounds = synthetic_rounds(100)
        stats = estimate_statistics(sifted_pipeline(sc, rounds), rounds, sc)
        assert stats.p_hat.value == 0.0
        assert stats.r_s_hat is None
        assert stats.e_z_hat is None
        assert stats.q_bar_hat is None

    def test_no_darks_no_z_errors(self):
        sc = make_scenario(25.0, 25.0, 0.5, 0.5, 100, NO_DARK)
        rounds = simulate_rounds(sc, 1_000_000, seed=31)
        stats = estimate_statistics(sifted_pipeline(sc, rounds), rounds, sc)
        assert stats.e_z_hat.value == 0.0

    def test_statistics_match_model_within_three_sigma(self):
        sc = make_scenario(25.0, 25.0, 0.5, 0.5, 100, NO_DARK)
        rounds = simulate_rounds(sc, 1_000_000, seed=37)
        stats = estimate_statistics(sifted_pipeline(sc, rounds), rounds, sc)
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
            stats = estimate_statistics(sifted_pipeline(sc, rounds, seed=seed), rounds, sc, seed)
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

    def test_single_photon_draws(self, monkeypatch):
        # q-hat's photon numbers, recorded per Z pair with the uniforms they
        # come from: they repeat for a fixed seed, stay the same when only
        # sift_and_map's key changes, share no generator word with the
        # misalignment draws of the same seed, and follow the Poisson law
        # given each signal's survived bit.  Dark counts at p_d = 1e-2 put
        # lost signals in many Z pairs; e_d = 0.5 makes the misalignment
        # draws readable from the X key bits.
        sc = make_scenario(10.0, 10.0, 0.5, 0.5, 100, SystemParams(p_d=1e-2, e_d=0.5))
        rounds = simulate_rounds(sc, 2_000_000, seed=53)
        drawn = []

        def recording(rng, survived, mu, eta):
            uniforms = copy.deepcopy(rng).random(survived.size)
            photons = _photons(rng, survived, mu, eta)
            drawn.append((survived.copy(), photons, uniforms, mu, eta))
            return photons

        monkeypatch.setattr(mpqkd.montecarlo, "_photons", recording)

        def draws(sift_seed, seed):
            drawn.clear()
            pairs = sifted_pipeline(sc, rounds, seed=sift_seed)
            stats = estimate_statistics(pairs, rounds, sc, seed)
            (_, n_a, *_), (_, n_b, *_) = drawn
            assert n_a.size == n_b.size == stats.r_s_hat.numerator
            single = np.count_nonzero((n_a == 1) & (n_b == 1))
            assert stats.q_bar_hat.numerator == single
            return pairs, list(drawn)

        pairs, first = draws(sift_seed=7, seed=7)
        other_sift, again = draws(sift_seed=8, seed=7)
        assert not np.array_equal(pairs.kappa_b, other_sift.kappa_b)
        for (s_1, n_1, *_), (s_2, n_2, *_) in zip(first, again):
            assert np.array_equal(s_1, s_2) and np.array_equal(n_1, n_2)
        _, reseeded = draws(sift_seed=7, seed=8)
        assert not np.array_equal(first[0][1], reseeded[0][1])

        # X pair k's misalignment flip against Alice's photon uniform k
        x = np.flatnonzero(pairs.basis == X)
        i, j = pairs.i[x], pairs.j[x]
        diff_b = (rounds.phase_b[j].astype(np.int16) - rounds.phase_b[i]) % PHASE_SLICES
        pattern = rounds.detector[i] != rounds.detector[j]
        misaligned = (pairs.kappa_b[x] == 1) ^ (diff_b >= PHASE_SLICES // 2) ^ pattern
        uniforms = first[0][2]
        k = min(x.size, uniforms.size)
        below = uniforms[:k][misaligned[:k]] < 0.5
        assert abs(below.mean() - 0.5) <= 4.0 * 0.5 / math.sqrt(below.size)

        for survived, photons, _, mu, eta in first:
            for flag, law in zip((False, True), _photon_laws(mu, eta)):
                at = survived == flag
                assert at.any(), flag
                assert_law_within_5_sigma(photons[at], law / law.sum(), flag)
