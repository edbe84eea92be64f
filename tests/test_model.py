"""Tests for the analytic channel and key-rate model."""
import dataclasses
import math
import pickle
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpqkd
from mpqkd.decoy import single_photon_z_yield
from mpqkd.model import (
    KeyRateBreakdown,
    ModelDegenerateError,
    Scenario,
    SystemParams,
    binary_entropy,
    click_prob_given_mean,
    click_prob_given_photons,
    distance_from_transmittance,
    is_pairing_interval,
    key_rate,
    key_rate_grid,
    make_scenario,
    pairing_rate,
    parse_pairing_interval,
    transmittance_from_distance,
    x_gain_and_phase_error,
)
from oracles import (
    chain_pairing_rate,
    interval_rule,
    linearized_key_rate,
    scenario_problem,
    unit_interval_problem,
)

PARAMS = SystemParams()
NO_DARK = SystemParams(p_d=0.0)
INTERVALS = (1.0, 2.0, 100.0, 1e6, math.inf)
DARK_COUNT_RATES = (0.0, 1.2e-8, 1e-4, 1e-2)


def scenario_at(
    d_a=100.0, d_b=100.0, mu_a=0.5, mu_b=0.5, lam=1e6, params=PARAMS
) -> Scenario:
    return make_scenario(d_a, d_b, mu_a, mu_b, lam, params)


def scenario_with_etas(eta_a, eta_b, mu_a, mu_b, lam=1e6, params=NO_DARK) -> Scenario:
    """Scenario built directly from transmittances."""
    return Scenario(eta_a, eta_b, mu_a, mu_b, lam, params)


def selector_clicks(sc: Scenario) -> tuple[float, float, float, float]:
    """Click probabilities of the 00, 01, 10 and 11 intensity selectors."""
    x_a, x_b = sc.eta_a * sc.mu_a, sc.eta_b * sc.mu_b
    return tuple(click_prob_given_mean(x, sc.params.p_d) for x in (0.0, x_b, x_a, x_a + x_b))


class TestParamsAndTypes:
    def test_default_params(self):
        assert PARAMS.eta_d == 0.2
        assert PARAMS.alpha == 0.2
        assert PARAMS.p_d == 1.2e-8
        assert PARAMS.f == 1.15
        assert PARAMS.e_d == 0.04

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eta_d": 0.0},
            {"eta_d": 1.5},
            {"alpha": 0.0},
            {"p_d": -1e-9},
            {"p_d": 1.0},
            {"f": 0.99},
            {"e_d": -0.01},
            {"e_d": 0.51},
            {"f": math.inf},
            *({field.name: math.nan} for field in dataclasses.fields(SystemParams)),
        ],
    )
    def test_invalid_params(self, kwargs):
        with pytest.raises(ValueError):
            SystemParams(**kwargs)

    def test_params_hash_is_the_field_tuples(self):
        # the hash is computed once per instance: a replaced field and a
        # pickled copy, as a pool worker gets it, hash as their fields do
        replaced = dataclasses.replace(PARAMS, p_d=1e-4)
        copied = pickle.loads(pickle.dumps(SystemParams(e_d=0.12)))
        assert copied == SystemParams(e_d=0.12)
        for params in (PARAMS, replaced, copied):
            assert hash(params) == hash(dataclasses.astuple(params))

    def test_package_exports_resolve(self):
        for name in mpqkd.__all__:
            assert getattr(mpqkd, name) is not None, name

    def test_scenario_rejects_bad_transmittance(self):
        for eta in (0.0, -0.01, 0.3):  # 0.3 exceeds the default eta_d = 0.2
            for etas in ((eta, 0.01), (0.01, eta)):
                with pytest.raises(ValueError, match=r"eta_[ab] must be in \(0, eta_d=0.2\]"):
                    Scenario(*etas, 0.5, 0.5, 1e6, PARAMS)
        lossless = Scenario(1.0, 1.0, 0.5, 0.5, 1e6, SystemParams(eta_d=1.0))
        assert (lossless.eta_a, lossless.eta_b) == (1.0, 1.0)

    @pytest.mark.parametrize("lam", [0, 0.5, 2.5, -3, True, np.True_])
    def test_scenario_rejects_bad_interval(self, lam):
        with pytest.raises(ValueError, match="pairing interval must be an integer >= 1 or inf"):
            make_scenario(100, 100, 0.5, 0.5, lam)

    @pytest.mark.parametrize("lam", [True, False, np.True_, np.False_])
    def test_bool_is_no_interval(self, lam):
        # True == 1 and float(True) == 1.0, but a flag is no interval
        assert not is_pairing_interval(lam)
        with pytest.raises(ValueError, match="pairing interval must be an integer >= 1 or inf"):
            pairing_rate(0.5, lam)

    @pytest.mark.parametrize(
        "value, expected",
        [("inf", math.inf), ("Infinite", math.inf), ("INFINITY", math.inf), ("1e6", 1e6), (10, 10.0)],
    )
    def test_parse_pairing_interval(self, value, expected):
        assert parse_pairing_interval(value) == expected

    def test_parse_pairing_interval_rejects_words(self):
        with pytest.raises(ValueError, match="cannot parse pairing interval 'abc'"):
            parse_pairing_interval("abc")

    def test_scenario_rejects_bad_intensities(self):
        with pytest.raises(ValueError):
            make_scenario(100, 100, 0.0, 0.5, 1e6)
        with pytest.raises(ValueError):
            make_scenario(100, 100, 0.5, 1.2, 1e6)
        with pytest.raises(ValueError):
            make_scenario(100, 100, 0.5, 0.5, 1e6, nu_a=0.6)


# Numbers at and around the domain edges of the model's checks, and anywhere.
EDGES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, 0.2, 1e-300, -1e-3, 1.5]
numbers = st.one_of(st.sampled_from(EDGES), st.floats(0.0, 1.0), st.floats())
intervals = st.one_of(
    st.sampled_from([1, 2.0, 1e6, math.inf, -math.inf, math.nan, 0, 0.5, 2.5, 10**20]),
    st.sampled_from([True, False, np.True_, np.False_, np.float64(7.0), np.int64(3)]),
    st.integers(-5, 10**7),
    st.floats(),
)


@st.composite
def scenario_fields(draw) -> dict:
    params = SystemParams(eta_d=draw(st.sampled_from([0.2, 1.0, 1e-3])))
    mu_a, mu_b = draw(numbers), draw(numbers)
    return dict(
        eta_a=draw(st.one_of(st.just(params.eta_d), numbers)),
        eta_b=draw(st.one_of(st.just(params.eta_d), numbers)),
        mu_a=mu_a,
        mu_b=mu_b,
        lam=draw(intervals),
        params=params,
        nu_a=draw(st.one_of(st.just(0.0), st.just(mu_a), numbers)),
        nu_b=draw(st.one_of(st.just(0.0), st.just(mu_b), numbers)),
    )


def assert_raises_exactly(message, call, *args, **kwargs):
    """call raises ValueError with this message, or, for None, no ValueError."""
    if message is None:
        with np.errstate(all="ignore"):
            call(*args, **kwargs)
    else:
        with pytest.raises(ValueError) as raised:
            call(*args, **kwargs)
        assert str(raised.value) == message


class TestDomainChecks:
    """The model's checks against their field-by-field statement in
    tests/oracles.py: the same inputs pass, and a failure has its message."""

    @settings(max_examples=400, deadline=None)
    @given(fields=scenario_fields())
    def test_scenario(self, fields):
        assert_raises_exactly(scenario_problem(**fields), Scenario, **fields)

    @settings(max_examples=300, deadline=None)
    @given(fields=scenario_fields())
    def test_scenario_replace(self, fields):
        eta_d = fields["params"].eta_d
        valid = Scenario(eta_d, eta_d / 10.0, 0.5, 0.5, 1e6, fields["params"])
        changes = {name: fields[name] for name in ("mu_a", "nu_b", "lam", "eta_b")}
        expected = scenario_problem(**{**dataclasses.asdict(valid), **changes, "params": valid.params})
        assert_raises_exactly(expected, dataclasses.replace, valid, **changes)

    @settings(max_examples=300, deadline=None)
    @given(lam=intervals)
    def test_interval(self, lam):
        assert is_pairing_interval(lam) == interval_rule(lam)

    @settings(max_examples=300, deadline=None)
    @given(
        p=st.one_of(
            st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -1e-300, 5e-324]),
            st.floats(0.0, 1.0),
            st.floats(0.0, 1e-150),
            st.floats(max_value=-1e-300),
            st.floats(min_value=1.0),
            st.lists(
                st.one_of(st.just(math.nan), st.floats(0.0, 1e-150), st.floats(0.0, 2.0)),
                min_size=1,
                max_size=3,
            ).map(np.array),
        ),
        lam=intervals,
    )
    def test_pairing_rate(self, p, lam):
        message = unit_interval_problem(p, "click probability")
        if message is None and not interval_rule(lam):
            message = f"pairing interval must be an integer >= 1 or inf, got {lam}"
        assert_raises_exactly(message, pairing_rate, p, lam)

    @settings(max_examples=300, deadline=None)
    @given(x=st.one_of(numbers, st.lists(numbers, min_size=1, max_size=3).map(np.array)))
    def test_binary_entropy(self, x):
        message = unit_interval_problem(x, "binary entropy argument")
        assert_raises_exactly(message, binary_entropy, x)


class TestTransmittance:
    def test_zero_length_returns_detector_efficiency(self):
        assert transmittance_from_distance(0.0, PARAMS) == pytest.approx(0.2, rel=1e-15)

    def test_100km(self):
        assert transmittance_from_distance(100.0, PARAMS) == pytest.approx(0.002, rel=1e-12)

    def test_50km(self):
        assert transmittance_from_distance(50.0, PARAMS) == pytest.approx(0.02, rel=1e-12)

    def test_strictly_decreasing(self):
        etas = [transmittance_from_distance(d, PARAMS) for d in (0, 10, 50, 120, 400)]
        assert all(a > b for a, b in zip(etas, etas[1:]))

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            transmittance_from_distance(-1.0, PARAMS)

    def test_inverse_values(self):
        assert distance_from_transmittance(0.2, PARAMS) == pytest.approx(0.0, abs=1e-12)
        assert distance_from_transmittance(0.002, PARAMS) == pytest.approx(100.0, rel=1e-12)

    @pytest.mark.parametrize("distance", [1.0, 37.5, 250.0])
    def test_round_trip(self, distance):
        eta = transmittance_from_distance(distance, PARAMS)
        assert distance_from_transmittance(eta, PARAMS) == pytest.approx(distance, rel=1e-10)

    def test_out_of_domain_rejected(self):
        with pytest.raises(ValueError):
            distance_from_transmittance(0.0, PARAMS)
        with pytest.raises(ValueError):
            distance_from_transmittance(0.25, PARAMS)

    @pytest.mark.parametrize("helper", [transmittance_from_distance, distance_from_transmittance])
    def test_nan_rejected(self, helper):
        with pytest.raises(ValueError, match="got nan"):
            helper(math.nan, PARAMS)


class TestClickProbabilities:
    def test_vacuum_no_dark_never_clicks(self):
        assert click_prob_given_mean(0.0, NO_DARK.p_d) == 0.0

    def test_vacuum_dark_counts_only(self):
        assert click_prob_given_mean(0.0, PARAMS.p_d) == pytest.approx(2.4e-8, rel=1e-9)

    def test_signal_signal_exponential(self):
        # eta_a mu_a = 1e-3, eta_b mu_b = 2e-3: the 11 round clicks with
        # 1 - exp(-3e-3), and p averages it with the 01, 10 and 00 rounds
        sc = scenario_with_etas(0.002, 0.004, 0.5, 0.5)
        expected = 1.0 - math.exp(-0.003)
        assert click_prob_given_mean(0.003, 0.0) == pytest.approx(expected, rel=1e-12)
        p = (0.0 + (1.0 - math.exp(-0.002)) + (1.0 - math.exp(-0.001)) + expected) / 4.0
        assert key_rate(sc).p == pytest.approx(p, rel=1e-12, abs=0.0)

    def test_photon_vacuum(self):
        sc = scenario_at(params=NO_DARK)
        assert click_prob_given_photons(0, 0, sc) == 0.0

    def test_single_photon_clicks_with_arm_transmittance(self):
        sc = scenario_at(params=NO_DARK)
        assert click_prob_given_photons(1, 0, sc) == pytest.approx(sc.eta_a, rel=1e-12)

    def test_multiphoton(self):
        sc = scenario_with_etas(0.01, 0.001, 0.5, 0.5)
        expected = 1.0 - (0.99**2) * 0.999
        assert click_prob_given_photons(2, 1, sc) == pytest.approx(expected, rel=1e-12)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            click_prob_given_photons(-1, 0, scenario_at())

    def test_lossless_arm(self):
        # eta_d = 1 at 0 km is a valid arm that never loses a photon
        params = SystemParams(eta_d=1.0)
        sc = make_scenario(0.0, 10.0, 0.5, 0.5, 1e6, params)
        assert click_prob_given_photons(1, 0, sc) == 1.0
        assert click_prob_given_photons(0, 1, sc) < 1.0
        assert click_prob_given_photons(0, 0, sc) == 2.0 * params.p_d
        assert math.isfinite(key_rate(sc).rate)
        assert math.isfinite(single_photon_z_yield(sc))

    def test_probability_range_random_points(self):
        rng = random.Random(7)
        for _ in range(200):
            sc = scenario_with_etas(
                rng.uniform(1e-6, 0.2),
                rng.uniform(1e-6, 0.2),
                rng.uniform(1e-3, 1.0),
                rng.uniform(1e-3, 1.0),
                params=SystemParams(p_d=rng.uniform(0, 0.4)),
            )
            for pr in selector_clicks(sc):
                assert 0.0 <= pr <= 1.0
            assert 0.0 <= click_prob_given_photons(rng.randrange(5), rng.randrange(5), sc) <= 1.0


class TestRoundClickProb:
    def test_blackout(self):
        sc = scenario_with_etas(1e-300, 1e-300, 0.5, 0.5)
        assert sum(selector_clicks(sc)) / 4.0 < 1e-200
        # arms faint enough to underflow only p * p still evaluate, at p = eta mu
        sc = scenario_with_etas(1e-150, 1e-150, 0.5, 0.5)
        assert key_rate(sc).p == pytest.approx(5e-151, rel=1e-12, abs=0.0)

    def test_linearization_within_tenth_percent(self):
        sc = scenario_with_etas(0.002, 0.002, 0.5, 0.5)  # eta*mu = 1e-3 per arm
        linear = (sc.eta_a * sc.mu_a + sc.eta_b * sc.mu_b) / 2.0
        assert abs(key_rate(sc).p - linear) / linear < 1e-3

    def test_half_dark_rate_saturates(self):
        sc = scenario_at(params=SystemParams(p_d=0.5))
        assert key_rate(sc).p == pytest.approx(1.0, abs=1e-15)


class TestPairingRate:
    def test_infinite_interval(self):
        assert pairing_rate(0.5, math.inf) == 0.25

    def test_unit_interval(self):
        assert pairing_rate(0.5, 1) == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_finite_between_limits(self):
        r = pairing_rate(0.01, 100)
        assert 0.01**2 / 1.01 < r < 0.005

    def test_zero_click_limit(self):
        assert pairing_rate(0.0, 100) == 0.0

    @pytest.mark.parametrize("lam", INTERVALS)
    def test_endpoints_and_arrays(self, lam):
        assert pairing_rate(0.0, lam) == 0.0
        assert pairing_rate(1.0, lam) == 0.5
        p = np.array([0.0, 1e-4, 0.3, 0.9, 1.0])
        expected = [pairing_rate(float(x), lam) for x in p]
        assert pairing_rate(p, lam).tolist() == pytest.approx(expected, rel=1e-14, abs=0.0)
        with pytest.raises(ValueError):
            pairing_rate(np.array([0.5, 1.1]), lam)

    @pytest.mark.parametrize("lam", [1, 2.0, 1000])
    def test_underflowed_rate_is_zero(self, lam):
        # p w below the smallest normal double gives 0.0, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in (1e-170, 1e-300, 5e-324):
                assert pairing_rate(p, lam) == 0.0
            rates = pairing_rate(np.array([1e-170, 5e-324, 0.0, 0.5]), lam)
            assert rates.tolist() == [0.0, 0.0, 0.0, pairing_rate(0.5, lam)]
            assert pairing_rate(1e-309, 1e300) == 0.0
            assert pairing_rate(1e-150, 2.0) == pytest.approx(2e-300, rel=1e-12)

    def test_negative_click_rejected(self):
        with pytest.raises(ValueError):
            pairing_rate(-0.1, 10)
        with pytest.raises(ValueError):
            pairing_rate(1.1, 10)
        with pytest.raises(ValueError):
            pairing_rate(0.5, 0.5)

    @pytest.mark.parametrize(
        "p, lam",
        [
            (math.nan, 10),
            (np.array([0.5, math.nan]), 10),
            (0.5, math.nan),
            (0.5, 2.5),
            (0.5, -math.inf),
        ],
    )
    def test_rejects_what_scenario_rejects(self, p, lam):
        # the click probability must lie in [0, 1], the interval be one
        # Scenario accepts; NaN fails both
        with pytest.raises(ValueError):
            pairing_rate(p, lam)

    @pytest.mark.parametrize("lam", [1, 2, 3, 10, 100, 1000])
    def test_matches_stationary_pairing_chain(self, lam):
        # the closed form against the pairing rule solved as a Markov chain
        for p in (1e-6, 1e-3, 0.01, 0.1, 0.5, 0.9):
            assert pairing_rate(p, float(lam)) == pytest.approx(
                chain_pairing_rate(p, lam), rel=1e-12, abs=0.0
            ), p

    @pytest.mark.parametrize("p", [1e-4, 1e-3, 0.05, 0.3, 0.9])
    def test_nondecreasing_in_interval_bounded_by_half_p(self, p):
        lams = [1, 2, 5, 10, 100, 1000, 1e5, math.inf]
        rates = [pairing_rate(p, lam) for lam in lams]
        assert all(a <= b + 1e-18 for a, b in zip(rates, rates[1:]))
        assert all(r <= p / 2.0 + 1e-18 for r in rates)
        assert rates[0] == pytest.approx(p * p / (1.0 + p), rel=1e-12)
        # an interval lam gains less than a factor lam: the bound behind acceptance 07
        assert all(pairing_rate(p, lam) < lam * rates[0] for lam in (2, 10, 1000, 1e5))


class TestZPairQuantities:
    def test_z_ratio_linearized_closed_form(self):
        # small intensities: r_s -> eta_a eta_b mu_a mu_b / (8 p^2)
        sc = scenario_with_etas(0.002, 0.002, 0.5, 0.5)
        bd = key_rate(sc)
        closed = sc.eta_a * sc.eta_b * sc.mu_a * sc.mu_b / (8.0 * bd.p * bd.p)
        assert bd.r_s == pytest.approx(closed, rel=2e-3)

    def test_arm_swap_symmetry(self):
        sc = scenario_with_etas(0.01, 0.0007, 0.3, 0.8)
        swapped = scenario_with_etas(0.0007, 0.01, 0.8, 0.3)
        assert key_rate(sc).r_s == pytest.approx(key_rate(swapped).r_s, rel=1e-14)

    def test_bit_error_zero_without_darks(self):
        assert key_rate(scenario_at(params=NO_DARK)).e_z == 0.0

    def test_bit_error_small_positive_with_darks(self):
        e = key_rate(scenario_at(100.0, 100.0, 0.5, 0.5)).e_z
        assert 0.0 < e < 1e-4

    def test_single_photon_ratio_approaches_one(self):
        sc = scenario_at(mu_a=1e-6, mu_b=1e-6, params=NO_DARK)
        assert key_rate(sc).q_bar_11 == pytest.approx(1.0, abs=1e-4)

    def test_single_photon_ratio_in_unit_interval(self):
        q = key_rate(scenario_at()).q_bar_11
        assert 0.0 < q < 1.0

    def test_linearization_consistency(self):
        # eta*mu <= 1e-3, p_d = 0: exact p, r_s, q_bar within 0.5% of the
        # linearized closed forms.
        rng = random.Random(3)
        for _ in range(50):
            eta_a = rng.uniform(1e-5, 2e-3)
            eta_b = rng.uniform(1e-5, 2e-3)
            mu_a = rng.uniform(0.05, min(1.0, 1e-3 / eta_a))
            mu_b = rng.uniform(0.05, min(1.0, 1e-3 / eta_b))
            sc = scenario_with_etas(eta_a, eta_b, mu_a, mu_b)
            lin = linearized_key_rate(sc)
            bd = key_rate(sc)
            assert bd.p == pytest.approx(lin.p, rel=5e-3)
            assert bd.r_s == pytest.approx(lin.r_s, rel=5e-3)
            assert bd.q_bar_11 == pytest.approx(lin.q_bar_11, rel=5e-3)


class TestXGainAndPhaseError:
    def test_no_darks_reduces_to_misalignment(self):
        sc = scenario_at(params=NO_DARK)
        gain, err = x_gain_and_phase_error(sc)
        assert gain == pytest.approx(sc.eta_a * sc.eta_b / 2.0, rel=1e-12)
        assert err == pytest.approx(0.04, rel=1e-12)

    def test_all_noise_limit(self):
        sc = scenario_at(params=SystemParams(e_d=0.5))
        _, err = x_gain_and_phase_error(sc)
        assert err == pytest.approx(0.5, abs=1e-15)

    def test_dark_counts_lift_error_above_misalignment(self):
        sc = scenario_with_etas(0.002, 0.0002, 0.5, 0.5, params=PARAMS)
        _, err = x_gain_and_phase_error(sc)
        assert 0.04 < err < 0.041


class TestBinaryEntropy:
    def test_limits(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        x = np.array([0.0, 0.04, 0.5, 1.0])
        expected = [0.0, binary_entropy(0.04), 1.0, 0.0]
        assert binary_entropy(x).tolist() == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_maximum(self):
        assert binary_entropy(0.5) == 1.0

    def test_misalignment_value(self):
        expected = -0.04 * math.log2(0.04) - 0.96 * math.log2(0.96)
        assert binary_entropy(0.04) == pytest.approx(expected, rel=1e-14)
        assert binary_entropy(0.04) == pytest.approx(0.2422921890, rel=1e-9)

    @pytest.mark.parametrize(
        "x", [-0.01, 1.01, np.array([0.2, 1.01]), math.nan, np.array([0.2, math.nan])]
    )
    def test_domain(self, x):
        with pytest.raises(ValueError):
            binary_entropy(x)

    def test_symmetry(self):
        for x in (0.01, 0.2, 0.37):
            assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), rel=1e-13)


class TestKeyRate:
    def test_vanishing_signal_gives_zero(self):
        bd = key_rate(scenario_at(mu_a=1e-6, mu_b=1e-6, lam=1))
        assert bd.rate == 0.0 or bd.rate < 1e-15

    def test_clamping_keeps_raw(self):
        # long distance + strong misalignment drives the balance negative
        bd = key_rate(scenario_at(350.0, 350.0, 0.5, 0.5, params=SystemParams(e_d=0.48)))
        assert bd.rate == 0.0
        assert bd.raw_rate < 0.0

    def test_arm_swap_symmetry(self):
        a = key_rate(scenario_at(80.0, 140.0, 0.24, 0.76))
        b = key_rate(scenario_at(140.0, 80.0, 0.76, 0.24))
        assert a.rate == pytest.approx(b.rate, rel=1e-12, abs=0.0)
        assert a.r_s == pytest.approx(b.r_s, rel=1e-12, abs=0.0)
        assert a.e_z == pytest.approx(b.e_z, rel=1e-12, abs=0.0)

    def test_monotone_in_distance(self):
        rates = [
            key_rate(scenario_at(d, d + 50.0, 0.3, 0.7)).rate for d in (40, 80, 120, 160, 200)
        ]
        assert all(a >= b for a, b in zip(rates, rates[1:]))
        rates_b = [key_rate(scenario_at(100.0, d_b, 0.3, 0.7)).rate for d_b in (100, 150, 200, 250)]
        assert all(a >= b for a, b in zip(rates_b, rates_b[1:]))

    def test_breakdown_fields_are_probabilities(self):
        bd = key_rate(scenario_at(100.0, 150.0, 0.2402, 0.7594))
        for value in (bd.p, bd.r_p, bd.r_s, bd.q_bar_11, bd.e_z, bd.y_11, bd.e_11, bd.rate):
            assert 0.0 <= value <= 1.0

    def test_linearized_symmetric_closed_form(self):
        # symmetric linearized model at lam=inf matches the closed form
        # [1 - H(e_d)]/8 * ea eb ma mb e^{-ma-mb} / (ea ma + eb mb)
        sc = scenario_with_etas(0.002, 0.0002, 0.4, 0.8, lam=math.inf)
        lin = linearized_key_rate(sc)
        expected = (
            (1.0 - binary_entropy(0.04))
            / 8.0
            * sc.eta_a
            * sc.eta_b
            * sc.mu_a
            * sc.mu_b
            * math.exp(-sc.mu_a - sc.mu_b)
            / (sc.eta_a * sc.mu_a + sc.eta_b * sc.mu_b)
        )
        assert lin.rate == pytest.approx(expected, rel=1e-12)

    def test_memo_cold_and_warm_give_equal_breakdowns(self):
        # the same arms under two parameter sets, and a second arm pair
        scenarios = [
            scenario_at(80.0, 140.0, 0.24, 0.76),
            scenario_at(80.0, 140.0, 0.24, 0.76, params=SystemParams(p_d=1e-4, e_d=0.1)),
            scenario_at(20.0, 20.0, 0.5, 0.5, lam=1.0),
        ]
        axis = np.linspace(0.05, 1.0, 5)
        cold = []
        for sc in scenarios:
            mpqkd.model._fixed_terms.cache_clear()
            cold.append((key_rate(sc), key_rate_grid(sc, axis[:, None], axis)))
        mpqkd.model._fixed_terms.cache_clear()
        for _ in range(2):  # the second pass reads every term from the memo
            for sc, (breakdown, grid) in zip(scenarios, cold):
                assert key_rate(sc) == breakdown
                assert np.array_equal(key_rate_grid(sc, axis[:, None], axis), grid)
        info = mpqkd.model._fixed_terms.cache_info()
        assert (info.misses, info.currsize) == (3, 3)
        assert info.maxsize is not None and info.maxsize <= 256

    def test_intensity_prior_weights_sum_to_one(self):
        # the four selector vectors are equally likely
        total = 4 * (1.0 / 4.0)
        assert total == 1.0


# Reference oracle: the per-term scalar chain key_rate ran before the key
# rate had one implementation for floats and arrays.  It recomputes the four
# selector click probabilities in every term, through math only.


def oracle_click_prob(z_a: int, z_b: int, scenario: Scenario) -> float:
    x = scenario.eta_a * scenario.mu_a * z_a + scenario.eta_b * scenario.mu_b * z_b
    return -math.expm1(-x) + 2.0 * scenario.params.p_d * math.exp(-x)


def oracle_round_click_prob(scenario: Scenario) -> float:
    total = 0.0
    for z_a in (0, 1):
        for z_b in (0, 1):
            total += oracle_click_prob(z_a, z_b, scenario)
    return total / 4.0


def oracle_pairing_rate(p: float, lam: float) -> float:
    if p < 0.0 or p > 1.0:
        raise ValueError(f"click probability must be in [0, 1], got {p}")
    if p == 0.0:
        return 0.0
    if math.isinf(lam):
        return p / 2.0
    window_hit = -math.expm1(lam * math.log1p(-p)) if p < 1.0 else 1.0
    return 1.0 / (1.0 / (p * window_hit) + 1.0 / p)


def oracle_z_combination_products(scenario: Scenario) -> tuple[float, float]:
    pr = {
        (z_a, z_b): oracle_click_prob(z_a, z_b, scenario) for z_a in (0, 1) for z_b in (0, 1)
    }
    return pr[(0, 0)] * pr[(1, 1)], pr[(0, 1)] * pr[(1, 0)]


def oracle_z_pair_ratio(scenario: Scenario) -> float:
    p = oracle_round_click_prob(scenario)
    if p <= 0.0:
        raise ModelDegenerateError("zero click probability: Z-pair ratio undefined")
    same, cross = oracle_z_combination_products(scenario)
    return 2.0 * (same + cross) / (16.0 * p * p)


def oracle_z_bit_error(scenario: Scenario) -> float:
    same, cross = oracle_z_combination_products(scenario)
    if same + cross <= 0.0:
        raise ModelDegenerateError("zero Z-pair probability: bit error undefined")
    return same / (same + cross)


def oracle_single_photon_ratio(scenario: Scenario) -> float:
    same, cross = oracle_z_combination_products(scenario)
    denominator = same + cross
    if denominator <= 0.0:
        raise ModelDegenerateError("zero Z-pair probability: single-photon ratio undefined")
    weight = (
        scenario.mu_a
        * math.exp(-scenario.mu_a)
        * scenario.mu_b
        * math.exp(-scenario.mu_b)
    )
    y_same = click_prob_given_photons(0, 0, scenario) * click_prob_given_photons(1, 1, scenario)
    y_cross = click_prob_given_photons(1, 0, scenario) * click_prob_given_photons(0, 1, scenario)
    return weight * (y_same + y_cross) / denominator


def oracle_binary_entropy(x: float) -> float:
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def oracle_key_rate(scenario: Scenario) -> KeyRateBreakdown:
    p = oracle_round_click_prob(scenario)
    r_p = oracle_pairing_rate(p, scenario.lam)
    r_s = oracle_z_pair_ratio(scenario)
    e_z = oracle_z_bit_error(scenario)
    q_bar = oracle_single_photon_ratio(scenario)
    y_11, e_11 = x_gain_and_phase_error(scenario)
    raw = r_p * r_s * (
        q_bar * (1.0 - oracle_binary_entropy(e_11))
        - scenario.params.f * oracle_binary_entropy(e_z)
    )
    return KeyRateBreakdown(p, r_p, r_s, q_bar, e_z, y_11, e_11, raw, max(raw, 0.0))


def _rate_scale(breakdown) -> float:
    """Size of the key rate before the privacy and correction terms cancel."""
    return breakdown.r_p * breakdown.r_s * breakdown.q_bar_11


grid_cases = dict(
    distance_a=st.floats(0.0, 300.0),
    distance_b=st.floats(0.0, 300.0),
    mu_a=st.lists(st.floats(1e-6, 1.0, exclude_min=True), min_size=1, max_size=4),
    mu_b=st.lists(st.floats(1e-6, 1.0, exclude_min=True), min_size=1, max_size=4),
    lam=st.sampled_from(INTERVALS),
    p_d=st.sampled_from(DARK_COUNT_RATES),
)


class TestKeyRateOracle:
    @settings(max_examples=200, deadline=None)
    @given(**grid_cases)
    def test_matches_scalar_chain_bit_for_bit(
        self, distance_a, distance_b, mu_a, mu_b, lam, p_d
    ):
        params = SystemParams(p_d=p_d)
        for m_a in mu_a:
            for m_b in mu_b:
                scenario = make_scenario(distance_a, distance_b, m_a, m_b, lam, params)
                value, reference = key_rate(scenario), oracle_key_rate(scenario)
                for name in KeyRateBreakdown._fields:
                    assert getattr(value, name) == getattr(reference, name), name


class TestKeyRateGrid:
    @settings(max_examples=200, deadline=None)
    @given(**grid_cases)
    def test_matches_scalar(self, distance_a, distance_b, mu_a, mu_b, lam, p_d):
        params = SystemParams(p_d=p_d)
        scenario = make_scenario(distance_a, distance_b, 1.0, 1.0, lam, params)
        rates = key_rate_grid(scenario, np.array(mu_a)[:, None], np.array(mu_b))
        assert rates.shape == (len(mu_a), len(mu_b))
        for i, m_a in enumerate(mu_a):
            for j, m_b in enumerate(mu_b):
                scalar = key_rate(make_scenario(distance_a, distance_b, m_a, m_b, lam, params))
                assert rates[i, j] == pytest.approx(
                    scalar.rate, rel=1e-13, abs=1e-13 * _rate_scale(scalar)
                )
                assert (rates[i, j] == 0.0) == (scalar.rate == 0.0)

    @pytest.mark.parametrize(
        "scenario, error",
        [
            (scenario_with_etas(1e-300, 1e-300, 0.5, 0.5, math.inf), ModelDegenerateError),
            (scenario_with_etas(1e-300, 1e-300, 0.5, 0.5, 1e6), ModelDegenerateError),
            (scenario_at(params=SystemParams(p_d=0.6)), ValueError),
            # without dark counts, party a's pulse never clicks: no Z pair
            (scenario_with_etas(0.1, 0.1, 5e-324, 0.5), ModelDegenerateError),
        ],
        ids=["blackout", "blackout-finite-interval", "click-above-one", "no-z-pair"],
    )
    def test_rejects_degenerate_scenarios(self, scenario, error):
        # at the blackouts p * p and p * w underflow to zero
        with pytest.raises(error):
            key_rate_grid(scenario, np.array([scenario.mu_a]), np.array([scenario.mu_b]))
        with pytest.raises(error):
            key_rate(scenario)

    @pytest.mark.parametrize("mu", [0.0, -0.5, 1.5, 2.0, math.nan])
    def test_rejects_intensities_scenario_rejects(self, mu):
        scenario = scenario_at()
        with pytest.raises(ValueError, match=r"mu_a must be in \(0, 1\]"):
            key_rate_grid(scenario, np.array([0.5, mu])[:, None], np.array([0.5]))
        with pytest.raises(ValueError, match=r"mu_b must be in \(0, 1\]"):
            key_rate_grid(scenario, np.array([0.5]), np.array(mu))
        with pytest.raises(ValueError, match=r"mu_a must be in \(0, 1\]"):
            dataclasses.replace(scenario, mu_a=mu)

    @settings(max_examples=100, deadline=None)
    @given(**grid_cases)
    def test_arm_swap_symmetry(self, distance_a, distance_b, mu_a, mu_b, lam, p_d):
        params = SystemParams(p_d=p_d)
        forward = key_rate_grid(
            make_scenario(distance_a, distance_b, 1.0, 1.0, lam, params),
            np.array(mu_a)[:, None],
            np.array(mu_b),
        )
        swapped = key_rate_grid(
            make_scenario(distance_b, distance_a, 1.0, 1.0, lam, params),
            np.array(mu_b)[:, None],
            np.array(mu_a),
        )
        for i, m_a in enumerate(mu_a):
            for j, m_b in enumerate(mu_b):
                scale = _rate_scale(
                    key_rate(make_scenario(distance_a, distance_b, m_a, m_b, lam, params))
                )
                assert swapped[j, i] == pytest.approx(forward[i, j], rel=1e-13, abs=1e-13 * scale)
