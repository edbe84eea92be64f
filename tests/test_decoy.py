"""Tests for decoy-state observables, bounds and the decoy key rate."""
import functools
import math
import random
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import _linprog_highs, linprog
from scipy.optimize._highspy import _core

import mpqkd.decoy
from mpqkd.decoy import (
    DecoyConfig,
    DecoyObservables,
    ObservablesInconsistentError,
    PairIntensityVector,
    bound_single_photon,
    decoy_config_for,
    decoy_key_rate,
    expected_observables,
    pair_intensity_prior,
    poisson_pair_prob,
    posterior_intensity_given_photons,
    single_photon_z_error_yield,
    single_photon_z_yield,
)
from mpqkd.model import E_0, SystemParams, click_prob_given_photons, key_rate, make_scenario
from oracles import (
    coupled_decoy_bounds,
    decoy_lp_rows,
    off_grid_mass,
    vacuum_weak_decoy_bounds,
)

# Dark-count rates spanning none, the default and strongly noisy detectors.
DARK_COUNT_RATES = (0.0, 1.2e-8, 1e-4, 1e-2)
# Photon cutoff of the reference fold.  The largest summed intensity is 2
# (an X pair at mu = 1), whose Poisson mass beyond 20 photons is ~5e-15.
ORACLE_CUTOFF = 20
OBSERVABLES = ("z_total", "z_error", "x_total", "x_error")


def reference_scenario(params=None):
    return make_scenario(100.0, 150.0, 0.2402, 0.7594, 1e6, params, nu_a=0.05, nu_b=0.05)


def fold_observables(scenario, config):
    """Reference forward model: photon-class yields summed over the Poisson
    photon statistics of each setting, up to ORACLE_CUTOFF photons for a
    non-vacuum party and k = 0 for a vacuum one.

    Returns the OBSERVABLES dicts in order, keyed like
    :class:`DecoyObservables`.
    """
    e_d = scenario.params.e_d

    @functools.cache
    def click(n_a, n_b, dark):
        if dark:
            return click_prob_given_photons(n_a, n_b, scenario)
        log_pass = n_a * math.log1p(-scenario.eta_a) + n_b * math.log1p(-scenario.eta_b)
        return -math.expm1(log_pass)

    def z_yields(k_a, k_b):
        # A party's photons ride its single non-vacuum round; two of the four
        # equally likely interleavings stack both signals in one round, and
        # only those err.
        y = lambda a, b: click(a, b, True)
        stacked = y(0, 0) * y(k_a, k_b)
        return 0.5 * (stacked + y(k_a, 0) * y(0, k_b)), 0.5 * stacked

    @functools.cache
    def x_yield(k_a, k_b, dark):
        # Both of a party's rounds carry the same intensity, so its photons
        # split binomially between them.
        total = 0.0
        for j_a in range(k_a + 1):
            for j_b in range(k_b + 1):
                weight = math.comb(k_a, j_a) * math.comb(k_b, j_b) * 0.5 ** (k_a + k_b)
                total += weight * click(j_a, j_b, dark) * click(k_a - j_a, k_b - j_b, dark)
        return total

    def x_yields(k_a, k_b):
        # Vacuum-noise error on every detection, reduced to the misalignment
        # error on the photon-only coincidences.
        total = x_yield(k_a, k_b, True)
        return total, E_0 * total - (E_0 - e_d) * x_yield(k_a, k_b, False)

    def fold(settings, yields):
        totals, errors = {}, {}
        for vec in settings:
            total = error = 0.0
            for k_a in range(ORACLE_CUTOFF + 1 if vec.sum_a > 0.0 else 1):
                for k_b in range(ORACLE_CUTOFF + 1 if vec.sum_b > 0.0 else 1):
                    weight = poisson_pair_prob((k_a, k_b), vec)
                    y, e = yields(k_a, k_b)
                    total += weight * y
                    error += weight * e
            totals[vec], errors[vec] = total, error
        return totals, errors

    return (*fold(config.z_settings(), z_yields), *fold(config.x_settings(), x_yields))


def oracle_basis_lp(settings, totals, errors):
    """Reference LPs: :func:`oracle_lp_model` of the totals (min) and of the
    errors (max) solved through scipy's own HiGHS wrapper, the function
    ``linprog(method="highs")`` calls, with the options dict that linprog
    hands it; a run that ends neither optimal nor infeasible is run again
    without presolve, as in :func:`mpqkd.decoy.linprog`."""
    target = ORACLE_CUTOFF + 2  # the (1, 1) class
    results = []
    for observed, objective_sign in ((totals, 1.0), (errors, -1.0)):
        matrix, lhs, rhs, ceilings = oracle_lp_model(settings, observed)
        a = sparse.csc_array(matrix)
        c = np.zeros(matrix.shape[1])
        c[target] = objective_sign
        model = (c, a.indptr, a.indices, a.data, lhs, rhs)
        bounds = (np.zeros(matrix.shape[1]), np.ones(matrix.shape[1]), np.empty(0, dtype=np.uint8))
        res = _linprog_highs._highs_wrapper(*model, *bounds, linprog_highs_options())
        if res["status"] not in (_core.HighsModelStatus.kOptimal, _core.HighsModelStatus.kInfeasible):
            # the decoy LPs' second run, without presolve
            options = {**linprog_highs_options(), "presolve": False}
            res = _linprog_highs._highs_wrapper(*model, *bounds, options)
        if res["status"] == _core.HighsModelStatus.kInfeasible:
            raise ObservablesInconsistentError("no photon-class yields reproduce the observables")
        if res["status"] != _core.HighsModelStatus.kOptimal:
            raise RuntimeError(f"decoy LP failed: {res['message']}")
        results.append(min(max(res["x"][target] * ceilings[target], 0.0), 1.0))
    return results[0], results[1]


def oracle_lp_model(settings, observed):
    """Dense constraint matrix, row bounds and column ceilings of one of a
    basis's two LPs (:func:`decoy_lp_rows`), built apart from
    :func:`_solve_basis_lp`: one scalar :func:`poisson_pair_prob` weight at
    a time, with ORACLE_CUTOFF photons per party.  Every column lies in
    [0, 1]."""
    classes = [(k_a, k_b) for k_a in range(ORACLE_CUTOFF + 1) for k_b in range(ORACLE_CUTOFF + 1)]
    weights = np.array([[poisson_pair_prob(k, vec) for k in classes] for vec in settings])
    tails = [off_grid_mass(vec, ORACLE_CUTOFF) for vec in settings]
    return decoy_lp_rows(weights, tails, [observed[vec] for vec in settings])


# The feasibility tolerances that the decoy LPs set on top of linprog's defaults.
LP_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-9}


class _Handed(Exception):
    """Stops scipy's linprog once it has handed its model to HiGHS."""


@functools.cache
def linprog_highs_options():
    """The options dict that scipy's linprog(method="highs") passes to its
    HiGHS wrapper when given LP_OPTIONS."""
    with mock.patch.object(_linprog_highs, "_highs_wrapper", side_effect=_Handed) as wrapper:
        with pytest.raises(_Handed):
            linprog([1.0], bounds=[(0.0, 1.0)], method="highs", options=LP_OPTIONS)
    return wrapper.call_args.args[-1]


def option_values(options):
    """Every option of a HighsOptions, by name."""
    return {name: getattr(options, name) for name in dir(options) if not name.startswith("_")}


def copy_options(options):
    copy = _core.HighsOptions()
    for name, value in option_values(options).items():
        setattr(copy, name, value)
    return copy


def scipy_highs_options(options):
    """Every option of the HighsOptions that scipy's HiGHS wrapper builds from
    linprog's options dict: unset ones and the objective sense are skipped,
    presolve True/False becomes "on"/"off"."""
    skipped = {key for key, value in options.items() if value is None} | {"sense", "presolve"}
    highs_options = _core.HighsOptions()
    for key, value in options.items():
        if key not in skipped:
            setattr(highs_options, key, value)
    highs_options.presolve = "on" if options["presolve"] else "off"
    return option_values(highs_options)


def lp_fields(lp):
    """The vectors of a HighsLp as HiGHS holds them, read back as arrays,
    plus its sizes and matrix format."""
    vectors = ("col_cost_", "col_lower_", "col_upper_", "row_lower_", "row_upper_", "integrality_")
    fields = {name: np.array(getattr(lp, name)) for name in vectors}
    matrix = lp.a_matrix_
    fields.update({name: np.array(getattr(matrix, name)) for name in ("start_", "index_", "value_")})
    fields["shape"] = (lp.num_row_, lp.num_col_, lp.a_matrix_.num_row_, lp.a_matrix_.num_col_)
    fields["format"] = lp.a_matrix_.format_
    return fields


def decoy_lp_inputs(settings, totals, errors):
    """Each solve of _solve_basis_lp, as a dict: the ``lp`` and ``column``
    given to linprog, the ``fields`` of the model and the ``options`` values
    that HiGHS received."""
    solves = []
    real = mpqkd.decoy.linprog

    class RecordingHighs(_core._Highs):
        def passOptions(self, options):
            solves[-1]["options"] = option_values(options)
            return super().passOptions(options)

        def passModel(self, lp):
            solves[-1]["fields"] = lp_fields(lp)
            return super().passModel(lp)

    def recording_linprog(lp, column):
        solves.append({"lp": lp, "column": column})
        return real(lp, column)

    with mock.patch.object(mpqkd.decoy, "linprog", recording_linprog), mock.patch.object(
        _core, "_Highs", RecordingHighs
    ):
        mpqkd.decoy._solve_basis_lp(settings, totals, errors)
    return solves


def assert_same_bits(new, old, name):
    assert (new.dtype, new.shape) == (old.dtype, old.shape), name
    assert new.tobytes() == old.tobytes(), name


def basis_observables(observables, config):
    """(settings, totals, errors) of the Z and the X basis."""
    return (
        (config.z_settings(), observables.z_total, observables.z_error),
        (config.x_settings(), observables.x_total, observables.x_error),
    )


def oracle_bounds(observables, config):
    """:func:`bound_single_photon` with every LP solved by the oracle."""
    with mock.patch.object(mpqkd.decoy, "_solve_basis_lp", oracle_basis_lp):
        return bound_single_photon(observables, config)


def hex_bounds(bounds):
    return tuple(None if value is None else float(value).hex() for value in astuple(bounds))


class TestConfig:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            DecoyConfig(0.5, 0.5, 0.05, 0.05, 0.5, 0.1, 0.5)

    def test_nu_below_mu(self):
        with pytest.raises(ValueError):
            DecoyConfig(0.5, 0.5, 0.6, 0.05, 0.5, 0.1, 0.4)

    def test_half_mu_decoy_rejected_as_ambiguous(self):
        with pytest.raises(ValueError):
            DecoyConfig(0.5, 0.5, 0.25, 0.05, 0.5, 0.1, 0.4)

    @pytest.mark.parametrize("index", range(7))
    def test_nan_field_rejected(self, index):
        fields = [0.5, 0.5, 0.05, 0.05, 0.5, 0.1, 0.4]
        fields[index] = math.nan
        with pytest.raises(ValueError):
            DecoyConfig(*fields)

    def test_nan_decoy_probability_rejected(self):
        sc = reference_scenario()
        with pytest.raises(ValueError):
            decoy_config_for(sc, s_nu=math.nan)

    def test_z_settings_exclude_vacuum_vacuum(self):
        cfg = DecoyConfig(0.5, 0.5, 0.05, 0.05, 0.5, 0.1, 0.4)
        settings = cfg.z_settings()
        assert PairIntensityVector(0.0, 0.0) not in settings
        assert len(settings) == 8

    def test_x_settings_mirror_z_structure(self):
        cfg = DecoyConfig(0.5, 0.5, 0.05, 0.05, 0.5, 0.1, 0.4)
        settings = cfg.x_settings()
        assert PairIntensityVector(0.0, 0.0) not in settings
        assert PairIntensityVector(1.0, 1.0) in settings
        assert len(settings) == 8


class TestPrior:
    def test_all_vacuum(self):
        cfg = DecoyConfig(0.5, 0.5, 0.05, 0.05, 1.0, 0.0, 0.0)
        prior = pair_intensity_prior(cfg)
        assert prior[PairIntensityVector(0.0, 0.0)] == 1.0
        assert sum(prior.values()) == pytest.approx(1.0, abs=1e-15)

    def test_uniform_orderings_counted(self):
        cfg = DecoyConfig(0.5, 0.5, 0.05, 0.05, 1 / 3, 1 / 3, 1 / 3)
        prior = pair_intensity_prior(cfg)
        # nu + mu arises from two orderings per party
        value = prior[PairIntensityVector(0.55, 0.55)]
        assert value == pytest.approx((2.0 / 9.0) ** 2, rel=1e-12)

    def test_double_signal_mass(self):
        cfg = DecoyConfig(0.5, 0.5, 0.05, 0.05, 0.25, 0.25, 0.5)
        prior = pair_intensity_prior(cfg)
        assert prior[PairIntensityVector(1.0, 1.0)] == pytest.approx(0.5**4, rel=1e-12)

    def test_normalization_random_configs(self):
        rng = random.Random(5)
        for _ in range(20):
            s_mu = rng.uniform(0.1, 0.8)
            s_nu = rng.uniform(0.0, 1.0 - s_mu)
            cfg = DecoyConfig(0.6, 0.4, 0.11, 0.07, 1.0 - s_mu - s_nu, s_nu, s_mu)
            assert sum(pair_intensity_prior(cfg).values()) == pytest.approx(1.0, abs=1e-12)


class TestPoissonPair:
    def test_vacuum_emits_nothing(self):
        vec = PairIntensityVector(0.0, 0.0)
        assert poisson_pair_prob((0, 0), vec) == 1.0
        assert poisson_pair_prob((1, 0), vec) == 0.0

    def test_single_photon_pair(self):
        vec = PairIntensityVector(0.1, 0.1)
        assert poisson_pair_prob((1, 1), vec) == pytest.approx(
            math.exp(-0.2) * 0.01, rel=1e-12
        )

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            poisson_pair_prob((-1, 0), PairIntensityVector(0.1, 0.1))

    def test_normalization_within_cutoff(self):
        # posterior normalization support: mass within k <= 20 for sums <= 1
        vec = PairIntensityVector(1.0, 0.5)
        total = sum(
            poisson_pair_prob((k_a, k_b), vec) for k_a in range(21) for k_b in range(21)
        )
        assert total >= 1.0 - 1e-12


class TestPosterior:
    def test_vacuum_only_config(self):
        cfg = DecoyConfig(0.5, 0.5, 0.05, 0.05, 1.0, 0.0, 0.0)
        post = posterior_intensity_given_photons((0, 0), cfg)
        assert post[PairIntensityVector(0.0, 0.0)] == pytest.approx(1.0, abs=1e-15)

    def test_normalization(self):
        cfg = DecoyConfig(0.5, 0.5, 0.05, 0.05, 1 / 3, 1 / 3, 1 / 3)
        for k in ((0, 0), (1, 1), (2, 0), (3, 4)):
            post = posterior_intensity_given_photons(k, cfg)
            assert sum(post.values()) == pytest.approx(1.0, abs=1e-12)

    def test_zero_likelihood_settings_eliminated(self):
        cfg = DecoyConfig(0.5, 0.5, 0.05, 0.05, 1 / 3, 1 / 3, 1 / 3)
        post = posterior_intensity_given_photons((1, 1), cfg)
        vacuum_a = sum(v for vec, v in post.items() if vec.sum_a == 0.0)
        assert vacuum_a == 0.0

    def test_unreachable_photons_rejected(self):
        cfg = DecoyConfig(0.5, 0.5, 0.05, 0.05, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            posterior_intensity_given_photons((1, 0), cfg)


class TestObservables:
    def test_blackout_channel_gives_zero(self):
        params = SystemParams(p_d=0.0)
        sc = make_scenario(8000.0, 8000.0, 0.5, 0.5, 1e6, params, nu_a=0.05, nu_b=0.05)
        obs = expected_observables(sc, decoy_config_for(sc))
        assert all(v < 1e-30 for v in obs.z_total.values())
        assert all(v < 1e-30 for v in obs.x_total.values())

    def test_errors_bounded_by_totals(self):
        sc = reference_scenario()
        obs = expected_observables(sc, decoy_config_for(sc))
        for vec, total in obs.z_total.items():
            assert 0.0 <= obs.z_error[vec] <= total
        for vec, total in obs.x_total.items():
            assert 0.0 <= obs.x_error[vec] <= total

    def test_mismatched_config_rejected(self):
        sc = reference_scenario()
        cfg = DecoyConfig(0.3, 0.3, 0.05, 0.05, 0.4995, 0.001, 0.4995)
        with pytest.raises(ValueError):
            expected_observables(sc, cfg)
        cfg = DecoyConfig(sc.mu_a, sc.mu_b, 0.1, 0.12, 0.4995, 0.001, 0.4995)  # nu only
        with pytest.raises(ValueError, match="config intensities disagree"):
            expected_observables(sc, cfg)

    def test_closed_form_cross_check(self):
        # the closed form equals the truncated photon-number fold, in all
        # four observables and across dark-count regimes
        for p_d in DARK_COUNT_RATES:
            sc = reference_scenario(SystemParams(p_d=p_d))
            cfg = decoy_config_for(sc)
            obs = expected_observables(sc, cfg)
            for name, reference in zip(OBSERVABLES, fold_observables(sc, cfg)):
                observed = getattr(obs, name)
                assert observed.keys() == reference.keys()
                for vec, value in reference.items():
                    expected = pytest.approx(value, rel=1e-12, abs=0.0)
                    assert observed[vec] == expected, (p_d, name, vec)

    def test_forward_model_matches_analytic_intermediates(self):
        for p_d in DARK_COUNT_RATES[1:]:
            sc = reference_scenario(SystemParams(p_d=p_d))
            cfg = decoy_config_for(sc)
            obs = expected_observables(sc, cfg)
            breakdown = key_rate(sc)
            signal = cfg.signal_vector()
            # the signal-setting observables reproduce the analytic Z-pair
            # normalization: e_z equals the error/total ratio at (mu_a, mu_b)
            assert obs.z_error[signal] / obs.z_total[signal] == pytest.approx(
                breakdown.e_z, rel=1e-12, abs=0.0
            )
            # and the Poisson-weighted single-photon share reproduces q_bar
            q_bar = (
                poisson_pair_prob((1, 1), signal)
                * single_photon_z_yield(sc)
                / obs.z_total[signal]
            )
            assert q_bar == pytest.approx(breakdown.q_bar_11, rel=1e-12, abs=0.0)

    @settings(max_examples=100, deadline=None)
    @given(
        distance_a=st.floats(40.0, 120.0),
        gap=st.floats(0.0, 60.0),
        mu_a=st.floats(0.2, 0.9),
        mu_b=st.floats(0.2, 0.9),
        nu_frac_a=st.floats(0.1, 0.35),
        nu_frac_b=st.floats(0.1, 0.35),
        p_d=st.sampled_from(DARK_COUNT_RATES),
    )
    def test_arm_swap_symmetry(self, distance_a, gap, mu_a, mu_b, nu_frac_a, nu_frac_b, p_d):
        # swapping the arms together with their intensities mirrors every
        # observable onto the swapped pair-intensity vector
        params = SystemParams(p_d=p_d)
        nu_a, nu_b = mu_a * nu_frac_a, mu_b * nu_frac_b
        sc = make_scenario(
            distance_a, distance_a + gap, mu_a, mu_b, 1e6, params, nu_a=nu_a, nu_b=nu_b
        )
        swapped = make_scenario(
            distance_a + gap, distance_a, mu_b, mu_a, 1e6, params, nu_a=nu_b, nu_b=nu_a
        )
        obs = expected_observables(sc, decoy_config_for(sc))
        mirrored = expected_observables(swapped, decoy_config_for(swapped))
        for name in OBSERVABLES:
            direct, other = getattr(obs, name), getattr(mirrored, name)
            assert other.keys() == {PairIntensityVector(v.sum_b, v.sum_a) for v in direct}
            for vec, value in direct.items():
                assert other[PairIntensityVector(vec.sum_b, vec.sum_a)] == pytest.approx(
                    value, rel=1e-14, abs=0.0
                )

    def test_observable_constructor_rejects_error_above_total(self):
        vec = PairIntensityVector(0.5, 0.5)
        with pytest.raises(ValueError):
            DecoyObservables({vec: 1e-9}, {vec: 2e-9}, {}, {})

    @pytest.mark.parametrize("basis", ["Z", "X"])
    @pytest.mark.parametrize("missing", ["error", "total"])
    def test_observable_constructor_rejects_mismatched_settings(self, basis, missing):
        vec = PairIntensityVector(0.5, 0.5)
        entry = {vec: 1e-9}
        pair = ({}, entry) if missing == "total" else (entry, {})
        observables = (*pair, {}, {}) if basis == "Z" else ({}, {}, *pair)
        with pytest.raises(ValueError, match=f"{basis} totals and errors must cover"):
            DecoyObservables(*observables)


class TestBounds:
    def test_bracketing_reference_point(self):
        sc = reference_scenario()
        cfg = decoy_config_for(sc)
        bounds = bound_single_photon(expected_observables(sc, cfg), cfg)
        assert 0.0 < bounds.m_z_11_lower <= single_photon_z_yield(sc)
        assert bounds.e_z_11_upper >= single_photon_z_error_yield(sc)
        assert bounds.m_z_11_lower / single_photon_z_yield(sc) > 0.9

    def test_per_setting_projection(self):
        sc = reference_scenario()
        cfg = decoy_config_for(sc)
        obs = expected_observables(sc, cfg)
        bounds = bound_single_photon(obs, cfg)
        signal = cfg.signal_vector()
        assert bounds.q_bar_lower == pytest.approx(
            poisson_pair_prob((1, 1), signal) * bounds.m_z_11_lower / obs.z_total[signal],
            rel=1e-12,
            abs=0.0,
        )

    def test_two_intensity_config_gives_trivial_bound(self):
        sc = make_scenario(100.0, 150.0, 0.24, 0.76, 1e6)
        cfg = decoy_config_for(sc, s_nu=0.0)
        bounds = bound_single_photon(expected_observables(sc, cfg), cfg)
        assert bounds.m_z_11_lower == 0.0

    def test_weaker_decoy_tightens_bound(self):
        gaps = {}
        for frac in (0.4, 0.1):
            sc = make_scenario(
                100.0, 150.0, 0.24, 0.76, 1e6, nu_a=0.24 * frac, nu_b=0.76 * frac
            )
            cfg = decoy_config_for(sc)
            bounds = bound_single_photon(expected_observables(sc, cfg), cfg)
            gaps[frac] = single_photon_z_yield(sc) - bounds.m_z_11_lower
        assert gaps[0.1] <= gaps[0.4]

    def test_inconsistent_observables_raise(self):
        # a near-zero signal observable cannot coexist with a large decoy
        # one: the shared photon-class yields couple the settings
        sc = reference_scenario()
        cfg = decoy_config_for(sc)
        obs = expected_observables(sc, cfg)
        signal = cfg.signal_vector()
        totals = dict(obs.z_total)
        errors = dict(obs.z_error)
        totals[signal] = totals[signal] * 1e-6
        errors[signal] = 0.0
        corrupted = DecoyObservables(totals, errors, dict(obs.x_total), dict(obs.x_error))
        for solve in (bound_single_photon, oracle_bounds):
            with pytest.raises(ObservablesInconsistentError):
                solve(corrupted, cfg)

    def test_bracketing_randomized(self):
        rng = random.Random(11)
        for _ in range(6):
            d_a = rng.uniform(40, 120)
            sc = make_scenario(
                d_a,
                d_a + rng.uniform(0, 80),
                rng.uniform(0.15, 0.9),
                rng.uniform(0.15, 0.9),
                1e6,
            )
            sc = replace(
                sc,
                nu_a=sc.mu_a * rng.uniform(0.08, 0.4),
                nu_b=sc.mu_b * rng.uniform(0.08, 0.4),
            )
            cfg = decoy_config_for(sc)
            bounds = bound_single_photon(expected_observables(sc, cfg), cfg)
            assert bounds.m_z_11_lower <= single_photon_z_yield(sc) * (1 + 1e-9)
            assert bounds.e_z_11_upper >= single_photon_z_error_yield(sc) * (1 - 1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        distance_a=st.floats(40.0, 120.0),
        gap=st.floats(0.0, 60.0),
        mu_a=st.floats(0.2, 0.9),
        mu_b=st.floats(0.2, 0.9),
        nu_frac=st.sampled_from((0.001, 0.01, 0.3)),
    )
    # HiGHS ended these in "Unknown" or "Solve error" while the LP's columns
    # were yields in [0, 1] or its tail slacks were columns of their own
    @example(distance_a=54.0, gap=0.25, mu_a=0.2, mu_b=0.2, nu_frac=0.001)
    @example(distance_a=44.0, gap=0.0, mu_a=0.3, mu_b=0.3, nu_frac=0.01)
    @example(distance_a=112.0, gap=0.0, mu_a=0.3, mu_b=0.3, nu_frac=0.001)
    # presolve left this one's Z error LP "Unknown"
    @example(distance_a=43.859375, gap=0.0, mu_a=0.2, mu_b=0.2, nu_frac=0.3)
    def test_bounds_bracket_the_truth(self, distance_a, gap, mu_a, mu_b, nu_frac):
        # on criterion 11's geometry and intensities, down to weak decoys
        # whose Poisson weights reach 1e-89: Z brackets the exact (1, 1)
        # yields, and the X lower bound stays below the model's y_11, which
        # the decoy X (1, 1) yield matches to ~2 p_d relative
        sc = make_scenario(
            distance_a,
            distance_a + gap,
            mu_a,
            mu_b,
            1e6,
            nu_a=mu_a * nu_frac,
            nu_b=mu_b * nu_frac,
        )
        cfg = decoy_config_for(sc)
        bounds = bound_single_photon(expected_observables(sc, cfg), cfg)
        assert bounds.m_z_11_lower <= single_photon_z_yield(sc) * (1 + 1e-9)
        assert bounds.e_z_11_upper >= single_photon_z_error_yield(sc) * (1 - 1e-9)
        assert bounds.m_x_11_lower <= key_rate(sc).y_11 * (1 + 1e-6)

    def test_starts_no_thread(self):
        sc = reference_scenario()
        cfg = decoy_config_for(sc)
        obs = expected_observables(sc, cfg)
        refused = AssertionError("bound_single_photon started a thread")
        with mock.patch.object(threading.Thread, "start", side_effect=refused):
            bound_single_photon(obs, cfg)

    @pytest.mark.parametrize("error", [ObservablesInconsistentError, RuntimeError])
    def test_x_failure_keeps_its_type(self, error):
        sc = reference_scenario()
        cfg = decoy_config_for(sc)
        obs = expected_observables(sc, cfg)
        expected = bound_single_photon(obs, cfg)
        real = mpqkd.decoy._solve_basis_lp

        def x_fails(settings, totals, errors):
            if totals is obs.x_total:
                raise error("injected X failure")
            return real(settings, totals, errors)

        with mock.patch.object(mpqkd.decoy, "_solve_basis_lp", x_fails):
            with pytest.raises(error, match="injected X failure") as raised:
                bound_single_photon(obs, cfg)
        assert type(raised.value) is error
        # the failure leaves nothing behind for the next bound
        assert bound_single_photon(obs, cfg) == expected

    def test_concurrent_callers_get_serial_bounds(self):
        problems = []
        for distance_a in (40.0, 70.0, 100.0, 130.0):
            sc = make_scenario(
                distance_a, distance_a + 50.0, 0.2402, 0.7594, 1e6, nu_a=0.05, nu_b=0.05
            )
            cfg = decoy_config_for(sc)
            problems.append((expected_observables(sc, cfg), cfg))
        serial = [hex_bounds(bound_single_photon(*problem)) for problem in problems]
        start = threading.Barrier(len(problems))

        def solve(problem):
            start.wait()
            return hex_bounds(bound_single_photon(*problem))

        with ThreadPoolExecutor(max_workers=len(problems)) as callers:
            assert list(callers.map(solve, problems)) == serial


class TestClosedFormOracle:
    """The LP against the vacuum + weak-decoy bound on criterion 11's ranges:
    a valid bound built from a subset of the LP's constraints cannot be
    tighter than the LP optimum.  Over 6,400 random draws on these ranges
    the upper bounds sat at most 4.3e-9 (e_z_11_upper) and 1.9e-9
    (e_x_11_upper) above the closed form; they get 0.1%, room for HiGHS's
    solve-path noise, which reached ~5e-4 on earlier forms of these LPs."""

    @staticmethod
    def lp_and_closed_form(sc):
        """The LP's bounds and the closed form's (m_z, e_z, m_x, e_x), with
        the LP at least as tight as the closed form."""
        cfg = decoy_config_for(sc)
        obs = expected_observables(sc, cfg)
        closed_form = m_z, e_z, m_x, e_x = vacuum_weak_decoy_bounds(obs, cfg)
        bounds = bound_single_photon(obs, cfg)
        assert m_z <= bounds.m_z_11_lower
        assert m_x <= bounds.m_x_11_lower
        assert bounds.e_z_11_upper <= e_z * (1 + 1e-3)
        assert bounds.e_x_11_upper <= e_x * (1 + 1e-3)
        return bounds, closed_form

    @settings(max_examples=20, deadline=None)
    @given(
        distance_a=st.floats(40.0, 120.0),
        gap=st.floats(0.0, 60.0),
        mu_a=st.floats(0.2, 0.9),
        mu_b=st.floats(0.2, 0.9),
        nu_frac_a=st.floats(0.1, 0.35),
        nu_frac_b=st.floats(0.1, 0.35),
    )
    def test_lp_at_least_as_tight(self, distance_a, gap, mu_a, mu_b, nu_frac_a, nu_frac_b):
        nu_a, nu_b = mu_a * nu_frac_a, mu_b * nu_frac_b
        sc = make_scenario(distance_a, distance_a + gap, mu_a, mu_b, 1e6, nu_a=nu_a, nu_b=nu_b)
        _, (m_z, e_z, _, _) = self.lp_and_closed_form(sc)
        # the oracle brackets the truth on its own
        assert m_z <= single_photon_z_yield(sc) * (1 + 1e-9)
        assert e_z >= single_photon_z_error_yield(sc) * (1 - 1e-9)

    @settings(max_examples=25, deadline=None)
    @given(
        distance_a=st.floats(40.0, 120.0),
        gap=st.floats(0.0, 60.0),
        mu_a=st.floats(0.2, 0.9),
        mu_b=st.floats(0.2, 0.9),
    )
    def test_weak_decoy_certifies_a_key(self, distance_a, gap, mu_a, mu_b):
        # at nu / mu = 0.01 the X bound is positive and the decoy rate keeps
        # a share of the analytic one: 0.32 or more on 99% of a 2,304-point
        # grid over these ranges, 0.180 at its worst, the far corner (120 km,
        # +60 km, mu_a = mu_b = 0.9)
        sc = make_scenario(
            distance_a, distance_a + gap, mu_a, mu_b, 1e6, nu_a=mu_a / 100, nu_b=mu_b / 100
        )
        bounds, _ = self.lp_and_closed_form(sc)
        assert bounds.m_x_11_lower > 0.0
        breakdown = key_rate(sc)
        rate = decoy_key_rate(bounds, breakdown.r_p * breakdown.r_s, breakdown.e_z, sc.params)
        assert rate >= 0.15 * breakdown.rate


class TestLinearProgram:
    """The array-built LP against the row-by-row oracle, compared with ==."""

    @settings(max_examples=20, deadline=None)
    @given(
        distance_a=st.floats(40.0, 120.0),
        gap=st.floats(0.0, 60.0),
        mu_a=st.floats(0.2, 0.9),
        mu_b=st.floats(0.2, 0.9),
        nu_frac_a=st.floats(0.1, 0.35),
        nu_frac_b=st.floats(0.1, 0.35),
        p_d=st.sampled_from(DARK_COUNT_RATES),
    )
    # presolve left this one's Z error LP "Unknown"
    @example(
        distance_a=98.0, gap=0.0, mu_a=0.3, mu_b=0.3, nu_frac_a=0.3, nu_frac_b=0.3, p_d=1.2e-8
    )
    def test_bounds_equal_oracle(self, distance_a, gap, mu_a, mu_b, nu_frac_a, nu_frac_b, p_d):
        sc = make_scenario(
            distance_a,
            distance_a + gap,
            mu_a,
            mu_b,
            1e6,
            SystemParams(p_d=p_d),
            nu_a=mu_a * nu_frac_a,
            nu_b=mu_b * nu_frac_b,
        )
        cfg = decoy_config_for(sc)
        obs = expected_observables(sc, cfg)
        assert bound_single_photon(obs, cfg) == oracle_bounds(obs, cfg)

    def test_two_intensity_config_equals_oracle(self):
        for p_d in DARK_COUNT_RATES:
            sc = make_scenario(100.0, 150.0, 0.24, 0.76, 1e6, SystemParams(p_d=p_d))
            cfg = decoy_config_for(sc, s_nu=0.0)
            obs = expected_observables(sc, cfg)
            assert bound_single_photon(obs, cfg) == oracle_bounds(obs, cfg), p_d

    def test_highs_keeps_every_matrix_entry(self):
        # no entry is at or below HiGHS's small_matrix_value, which it would
        # drop, and none exceeds its row's upper bound, about 1, also for
        # weak decoys and no dark counts, whose zero error observables get
        # the capped row scale
        for p_d in DARK_COUNT_RATES:
            for nu in (0.05, 0.00024):
                sc = make_scenario(
                    100.0, 150.0, 0.2402, 0.7594, 1e6, SystemParams(p_d=p_d), nu_a=nu, nu_b=nu
                )
                cfg = decoy_config_for(sc)
                for basis in basis_observables(expected_observables(sc, cfg), cfg):
                    for solve in decoy_lp_inputs(*basis):
                        fields = solve["fields"]
                        entries = np.abs(fields["value_"])
                        assert np.all(entries > solve["options"]["small_matrix_value"])
                        rows = fields["index_"].astype(int)
                        assert np.all(entries <= fields["row_upper_"][rows])
                        assert fields["row_upper_"].max() <= 1.0 + 1e-9

    def test_one_model_without_scalar_weights(self):
        # each solve hands HiGHS one HighsLp of its own, built from the
        # weight arrays: the totals' LP and the errors' LP scale their rows
        # by different observables
        sc = reference_scenario()
        cfg = decoy_config_for(sc)
        obs = expected_observables(sc, cfg)
        with mock.patch.object(
            mpqkd.decoy, "poisson_pair_prob", side_effect=AssertionError("scalar weight")
        ):
            first, second = decoy_lp_inputs(cfg.z_settings(), obs.z_total, obs.z_error)
        assert isinstance(first["lp"], _core.HighsLp) and first["lp"] is not second["lp"]
        assert first["column"] == second["column"] == ORACLE_CUTOFF + 2
        assert not np.array_equal(first["fields"]["value_"], second["fields"]["value_"])

    @settings(max_examples=12, deadline=None)
    @given(
        distance_a=st.floats(40.0, 120.0),
        gap=st.floats(0.0, 60.0),
        mu_a=st.floats(0.2, 0.9),
        mu_b=st.floats(0.2, 0.9),
        nu_frac=st.sampled_from((0.001, 0.01, 0.3)),
        p_d=st.sampled_from(DARK_COUNT_RATES),
    )
    def test_split_lps_relax_the_coupled_lp(self, distance_a, gap, mu_a, mu_b, nu_frac, p_d):
        # each basis's two LPs drop the coupling e_k <= m_k, so their min
        # cannot exceed the coupled LP's, nor their max fall below it,
        # beyond HiGHS's path noise on this model (~5e-4 relative)
        sc = make_scenario(
            distance_a,
            distance_a + gap,
            mu_a,
            mu_b,
            1e6,
            SystemParams(p_d=p_d),
            nu_a=mu_a * nu_frac,
            nu_b=mu_b * nu_frac,
        )
        cfg = decoy_config_for(sc)
        for basis in basis_observables(expected_observables(sc, cfg), cfg):
            m_lower, e_upper = mpqkd.decoy._solve_basis_lp(*basis)
            coupled_m_lower, coupled_e_upper = coupled_decoy_bounds(*basis)
            assert m_lower <= coupled_m_lower * (1 + 5e-4)
            assert e_upper >= coupled_e_upper * (1 - 5e-4)

    @settings(max_examples=25, deadline=None)
    @given(
        distance_a=st.floats(40.0, 120.0),
        gap=st.floats(0.0, 60.0),
        mu_a=st.floats(0.2, 0.9),
        mu_b=st.floats(0.2, 0.9),
        nu_frac=st.sampled_from((0.01, 0.1, 0.35)),
        s_nu=st.sampled_from((1e-3, 0.0)),
        p_d=st.sampled_from(DARK_COUNT_RATES),
    )
    def test_highs_gets_the_reference_model(self, distance_a, gap, mu_a, mu_b, nu_frac, s_nu, p_d):
        # HiGHS receives the reference models, one ranged row per setting in
        # each, and the options that scipy's linprog hands its HiGHS
        # wrapper: the float vectors bit for bit and in the same dtype, the
        # CSC index arrays (which HiGHS stores in its own integer type) value
        # for value
        sc = make_scenario(
            distance_a,
            distance_a + gap,
            mu_a,
            mu_b,
            1e6,
            SystemParams(p_d=p_d),
            nu_a=mu_a * nu_frac,
            nu_b=mu_b * nu_frac,
        )
        cfg = decoy_config_for(sc, s_nu=s_nu)
        options = scipy_highs_options(linprog_highs_options())
        for basis in basis_observables(expected_observables(sc, cfg), cfg):
            solves = decoy_lp_inputs(*basis)
            assert len(solves) == 2
            for observed, objective_sign, solve in zip(basis[1:], (1.0, -1.0), solves):
                matrix, lhs, rhs, _ = oracle_lp_model(basis[0], observed)
                assert matrix.shape == (len(basis[0]), (ORACLE_CUTOFF + 1) ** 2)
                a = sparse.csc_array(matrix)
                c = np.zeros(matrix.shape[1])
                c[ORACLE_CUTOFF + 2] = objective_sign
                assert solve["column"] == ORACLE_CUTOFF + 2
                fields = solve["fields"]
                floats = {
                    "col_cost_": c,
                    "value_": a.data,
                    "row_lower_": lhs,
                    "row_upper_": rhs,
                    "col_lower_": np.zeros(matrix.shape[1]),
                    "col_upper_": np.ones(matrix.shape[1]),
                }
                for name, old in floats.items():
                    assert_same_bits(fields[name], old, name)
                for name, old in (("start_", a.indptr), ("index_", a.indices)):
                    # an empty list reads back as floats
                    kind = fields[name].dtype.kind if fields[name].size else "i"
                    assert kind == old.dtype.kind == "i", name
                    assert np.array_equal(fields[name], old), name
                assert fields["integrality_"].size == 0
                assert fields["shape"] == (*matrix.shape, *matrix.shape)
                assert fields["format"] == _core.MatrixFormat.kColwise
                assert solve["options"] == options

    def test_iteration_limit_is_a_failure(self):
        sc = reference_scenario()
        cfg = decoy_config_for(sc)
        obs = expected_observables(sc, cfg)
        core, options = mpqkd.decoy.load_highs()
        limited = copy_options(options)
        limited.simplex_iteration_limit = 0
        with mock.patch.object(mpqkd.decoy, "load_highs", return_value=(core, limited)):
            with pytest.raises(RuntimeError, match="decoy LP failed: Iteration limit reached"):
                mpqkd.decoy._solve_basis_lp(cfg.z_settings(), obs.z_total, obs.z_error)

    def test_unknown_status_is_solved_again_without_presolve(self):
        # a run that ends "Unknown" is not a failure until the same model,
        # solved from scratch without presolve, fails too
        sc = reference_scenario()
        cfg = decoy_config_for(sc)
        obs = expected_observables(sc, cfg)
        solve = decoy_lp_inputs(cfg.z_settings(), obs.z_total, obs.z_error)[0]
        core, options = mpqkd.decoy.load_highs()
        whole = copy_options(options)
        whole.presolve = "off"
        with mock.patch.object(mpqkd.decoy, "load_highs", return_value=(core, whole)):
            expected = mpqkd.decoy.linprog(solve["lp"], solve["column"])
        runs = []

        class UnknownOnceHighs(_core._Highs):
            def run(self):
                runs.append(self.getOptionValue("presolve")[1])
                return super().run()

            def getModelStatus(self):
                if len(runs) == 1:
                    return _core.HighsModelStatus.kUnknown
                return super().getModelStatus()

        with mock.patch.object(_core, "_Highs", UnknownOnceHighs):
            assert mpqkd.decoy.linprog(solve["lp"], solve["column"]) == expected
        assert runs == ["on", "off"]

    @pytest.mark.parametrize("rejected", ["options", "model"])
    def test_rejected_lp_is_a_failure(self, rejected):
        # HiGHS refusing the options or the model is a failed solve, not
        # evidence against the observables
        sc = reference_scenario()
        cfg = decoy_config_for(sc)
        obs = expected_observables(sc, cfg)
        solve = decoy_lp_inputs(cfg.z_settings(), obs.z_total, obs.z_error)[0]
        lp, (core, options) = solve["lp"], mpqkd.decoy.load_highs()
        if rejected == "options":
            options = copy_options(options)
            options.presolve = "sometimes"
        else:
            lp.col_upper_ = solve["fields"]["col_upper_"][:-1]  # one column bound short
        with mock.patch.object(mpqkd.decoy, "load_highs", return_value=(core, options)):
            with pytest.raises(RuntimeError) as raised:
                mpqkd.decoy.linprog(lp, solve["column"])
        assert type(raised.value) is RuntimeError
        assert str(raised.value) == "decoy LP failed: HiGHS rejected the options or the model"


class TestDecoyKeyRate:
    def test_maximal_phase_error_clamps_to_zero(self):
        sc = reference_scenario()
        cfg = decoy_config_for(sc)
        bounds = bound_single_photon(expected_observables(sc, cfg), cfg)
        forced = type(bounds)(
            **{
                **bounds.__dict__,
                "phase_error_upper": 0.5,
            }
        )
        assert decoy_key_rate(forced, 1e-5, 0.0, sc.params) == 0.0

    def test_degenerate_x_bound_gives_zero(self):
        sc = reference_scenario()
        cfg = decoy_config_for(sc)
        bounds = bound_single_photon(expected_observables(sc, cfg), cfg)
        degenerate = type(bounds)(**{**bounds.__dict__, "phase_error_upper": None})
        assert decoy_key_rate(degenerate, 1e-5, 0.0, sc.params) == 0.0
        # no X observable at all: the X bounds are the trivial (0, 1)
        observables = replace(expected_observables(sc, cfg), x_total={}, x_error={})
        no_x = bound_single_photon(observables, cfg)
        assert (no_x.m_x_11_lower, no_x.e_x_11_upper, no_x.phase_error_upper) == (0.0, 1.0, None)
        assert astuple(no_x)[:2] == astuple(bounds)[:2]
        assert decoy_key_rate(no_x, 1e-5, 0.0, sc.params) == 0.0

    def test_zero_observed_error_drops_correction_term(self):
        sc = reference_scenario()
        cfg = decoy_config_for(sc)
        bounds = bound_single_photon(expected_observables(sc, cfg), cfg)
        phase_error = min(bounds.phase_error_upper, 0.5)
        expected = 1e-5 * bounds.q_bar_lower * (
            1.0 - (-phase_error * math.log2(phase_error)
                   - (1 - phase_error) * math.log2(1 - phase_error))
        )
        assert decoy_key_rate(bounds, 1e-5, 0.0, sc.params) == pytest.approx(
            expected, rel=1e-12
        )

    def test_never_exceeds_analytic_rate(self):
        sc = reference_scenario()
        cfg = decoy_config_for(sc)
        bounds = bound_single_photon(expected_observables(sc, cfg), cfg)
        breakdown = key_rate(sc)
        rate = decoy_key_rate(bounds, breakdown.r_p * breakdown.r_s, breakdown.e_z, sc.params)
        assert rate <= breakdown.rate + 1e-12
        # the bounds are tight enough to certify a usable fraction here
        assert rate > 0.25 * breakdown.rate

    def test_results_are_python_floats(self):
        sc = reference_scenario()
        cfg = decoy_config_for(sc)
        bounds = bound_single_photon(expected_observables(sc, cfg), cfg)
        breakdown = key_rate(sc)
        rate = decoy_key_rate(bounds, breakdown.r_p * breakdown.r_s, breakdown.e_z, sc.params)
        for name, value in {**bounds.__dict__, "decoy_key_rate": rate}.items():
            assert type(value) is float, name

    def test_rejects_out_of_range_observations(self):
        sc = reference_scenario()
        cfg = decoy_config_for(sc)
        bounds = bound_single_photon(expected_observables(sc, cfg), cfg)
        with pytest.raises(ValueError):
            decoy_key_rate(bounds, -0.1, 0.0, sc.params)
        with pytest.raises(ValueError):
            decoy_key_rate(bounds, 0.1, 1.5, sc.params)
