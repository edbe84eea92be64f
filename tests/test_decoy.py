"""Tests for decoy-state observables, bounds and the decoy key rate."""
import functools
import math
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
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
from mpqkd.decoy import _EQUALITY_TOL
from mpqkd.model import SystemParams, click_prob_given_photons, key_rate, make_scenario
from oracles import vacuum_weak_decoy_bounds

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
    e_0, e_d = scenario.params.e_0, scenario.params.e_d

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
        return total, e_0 * total - (e_0 - e_d) * x_yield(k_a, k_b, False)

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
    """Reference LP: the same program built one row and one scalar Poisson
    weight at a time, on a dense constraint matrix, with ORACLE_CUTOFF
    photons per party."""
    classes = [(k_a, k_b) for k_a in range(ORACLE_CUTOFF + 1) for k_b in range(ORACLE_CUTOFF + 1)]
    index = {k: i for i, k in enumerate(classes)}
    n = len(classes)
    n_settings = len(settings)
    n_vars = 2 * n + 2 * n_settings
    unit = max(max(totals[vec] for vec in settings), 1e-300)

    rows, rhs = [], []

    def add_equality(coeffs, value):
        scaled = value / unit
        tol = _EQUALITY_TOL * scaled
        rows.append(coeffs)
        rhs.append(scaled + tol)
        rows.append(-coeffs)
        rhs.append(-(scaled - tol))

    tails = []
    for s_idx, vec in enumerate(settings):
        weights = np.array([poisson_pair_prob(k, vec) for k in classes])
        tails.append(max(0.0, 1.0 - float(weights.sum())))
        row_m = np.zeros(n_vars)
        row_m[:n] = weights
        row_m[2 * n + s_idx] = 1.0
        add_equality(row_m, totals[vec])
        row_e = np.zeros(n_vars)
        row_e[n : 2 * n] = weights
        row_e[2 * n + n_settings + s_idx] = 1.0
        add_equality(row_e, errors[vec])

    for i in range(n):  # e_k <= m_k
        row = np.zeros(n_vars)
        row[n + i] = 1.0
        row[i] = -1.0
        rows.append(row)
        rhs.append(0.0)

    bounds = (
        [(0.0, 1.0 / unit)] * (2 * n)
        + [(0.0, t / unit) for t in tails]
        + [(0.0, t / unit) for t in tails]
    )
    target = index[(1, 1)]
    results = []
    for objective_sign, column in ((1.0, target), (-1.0, n + target)):
        c = np.zeros(n_vars)
        c[column] = objective_sign
        res = linprog(
            c,
            A_ub=np.array(rows),
            b_ub=np.array(rhs),
            bounds=bounds,
            method="highs",
            options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-9},
        )
        if res.status == 2:
            raise ObservablesInconsistentError("no photon-class yields reproduce the observables")
        if not res.success:
            raise RuntimeError(f"decoy LP failed: {res.message}")
        results.append(res.x[column] * unit)
    return min(max(results[0], 0.0), 1.0), min(max(results[1], 0.0), 1.0)


def oracle_lp_model(settings, totals, errors):
    """Constraint matrix, right-hand side and bounds of one basis's LP, built
    apart from :func:`_solve_basis_lp`: weights from :func:`poisson_pair_prob`,
    the matrix from :func:`oracle_constraint_matrix`."""
    classes = [(k_a, k_b) for k_a in range(ORACLE_CUTOFF + 1) for k_b in range(ORACLE_CUTOFF + 1)]
    weights = np.array([[poisson_pair_prob(k, vec) for k in classes] for vec in settings])
    tails = np.maximum(1.0 - weights.sum(axis=1), 0.0)
    observed = np.array([[totals[vec], errors[vec]] for vec in settings])
    unit = max(observed[:, 0].max(), 1e-300)
    scaled = observed / unit
    tol = _EQUALITY_TOL * scaled
    n = len(classes)
    b_ub = np.concatenate([np.stack([scaled + tol, -(scaled - tol)], axis=2).ravel(), np.zeros(n)])
    upper = np.concatenate([np.ones(2 * n), tails, tails]) / unit
    bounds = np.column_stack([np.zeros(len(upper)), upper])
    return oracle_constraint_matrix(weights), b_ub, bounds


def oracle_constraint_matrix(weights):
    """Reference assembly of the constraint matrix: sparse blocks, their rows
    regrouped into +m, -m, +e, -e per setting, then e_k <= m_k."""
    n_settings, n = weights.shape
    w = sparse.csr_matrix(weights)
    eye_s, eye_n = sparse.identity(n_settings, format="csr"), sparse.identity(n, format="csr")
    blocks = [
        [w, None, eye_s, None],
        [-w, None, -eye_s, None],
        [None, w, None, eye_s],
        [None, -w, None, -eye_s],
        [-eye_n, eye_n, None, None],
    ]
    order = np.arange(4 * n_settings + n)
    order[: 4 * n_settings] = order[: 4 * n_settings].reshape(4, n_settings).T.ravel()
    return sparse.bmat(blocks, format="csr")[order]


# The feasibility tolerances that the decoy LPs set on top of linprog's defaults.
LP_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-9}


class _Handed(Exception):
    """Stops scipy's linprog once it has handed its model to HiGHS."""


def scipy_highs_inputs(c, A_ub, b_ub, bounds, options):
    """The arguments scipy's linprog(method="highs") passes to its HiGHS
    wrapper: c, CSC indptr/indices/data, row bounds, column bounds,
    integrality and the options dict."""
    with mock.patch.object(_linprog_highs, "_highs_wrapper", side_effect=_Handed) as wrapper:
        with pytest.raises(_Handed):
            linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs", options=options)
    return wrapper.call_args.args


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


def hex_bounds(bounds):
    return tuple(None if value is None else float(value).hex() for value in astuple(bounds))


class TestBasesAtOnce:
    """The X basis solves on a worker thread while the caller solves Z."""

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
        # the worker serves the next bound
        assert bound_single_photon(obs, cfg) == expected

    def test_z_failure_waits_for_x(self):
        # X finishes, and fails too, well after Z fails: the call waits for
        # X and raises Z's error
        sc = reference_scenario()
        cfg = decoy_config_for(sc)
        obs = expected_observables(sc, cfg)
        real = mpqkd.decoy._solve_basis_lp
        x_done = threading.Event()

        def z_fails(settings, totals, errors):
            if totals is obs.z_total:
                raise ObservablesInconsistentError("injected Z failure")
            real(settings, totals, errors)
            time.sleep(0.1)
            x_done.set()
            raise RuntimeError("injected X failure")

        with mock.patch.object(mpqkd.decoy, "_solve_basis_lp", z_fails):
            with pytest.raises(ObservablesInconsistentError, match="injected Z failure"):
                try:
                    bound_single_photon(obs, cfg)
                finally:
                    finished = x_done.is_set()
        assert finished

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
    tighter than the LP optimum.  The upper bounds get 1% because HiGHS's
    e_x_11_upper sits up to 0.53% above the closed form at nu / mu = 0.001."""

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
        cfg = decoy_config_for(sc)
        obs = expected_observables(sc, cfg)
        m_z, e_z, m_x, e_x = vacuum_weak_decoy_bounds(obs, cfg)
        bounds = bound_single_photon(obs, cfg)
        assert m_z <= bounds.m_z_11_lower
        assert m_x <= bounds.m_x_11_lower
        assert bounds.e_z_11_upper <= e_z * (1 + 1e-2)
        assert bounds.e_x_11_upper <= e_x * (1 + 1e-2)
        # the oracle brackets the truth on its own
        assert m_z <= single_photon_z_yield(sc) * (1 + 1e-9)
        assert e_z >= single_photon_z_error_yield(sc) * (1 - 1e-9)


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

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="open defect (ROADMAP item 1): the LP's Poisson weights fall far below HiGHS's "
        "small_matrix_value, which drops them, so HiGHS solves a different LP",
    )
    def test_highs_keeps_every_matrix_entry(self):
        sc = reference_scenario()
        cfg = decoy_config_for(sc)
        for basis in basis_observables(expected_observables(sc, cfg), cfg):
            for solve in decoy_lp_inputs(*basis):
                entries = np.abs(solve["fields"]["value_"])
                assert entries.min() >= solve["options"]["small_matrix_value"]

    def test_one_model_without_scalar_weights(self):
        # both solves hand HiGHS one HighsLp, built from the weight arrays,
        # whose objective alone changes between them
        sc = reference_scenario()
        cfg = decoy_config_for(sc)
        obs = expected_observables(sc, cfg)
        with mock.patch.object(
            mpqkd.decoy, "poisson_pair_prob", side_effect=AssertionError("scalar weight")
        ):
            first, second = decoy_lp_inputs(cfg.z_settings(), obs.z_total, obs.z_error)
        assert isinstance(first["lp"], _core.HighsLp) and first["lp"] is second["lp"]
        for name, value in first["fields"].items():
            if name != "col_cost_":
                assert np.array_equal(value, second["fields"][name]), name

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
    def test_highs_gets_the_linprog_model(self, distance_a, gap, mu_a, mu_b, nu_frac, s_nu, p_d):
        # HiGHS receives the model and options that scipy's linprog hands its
        # HiGHS wrapper for the block-built matrix: the float vectors bit for
        # bit and in the same dtype, the CSC index arrays (which HiGHS stores
        # in its own integer type) value for value
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
        for basis in basis_observables(expected_observables(sc, cfg), cfg):
            solves = decoy_lp_inputs(*basis)
            assert len(solves) == 2
            a_ub, b_ub, bounds = oracle_lp_model(*basis)
            for objective_sign, solve in zip((1.0, -1.0), solves):
                c = np.zeros(a_ub.shape[1])
                c[solve["column"]] = objective_sign
                handed = scipy_highs_inputs(c, a_ub, b_ub, bounds, LP_OPTIONS)
                c, indptr, indices, data, lhs, rhs, lb, ub, integrality, options = handed
                fields = solve["fields"]
                floats = {
                    "col_cost_": c,
                    "value_": data,
                    "row_lower_": lhs,
                    "row_upper_": rhs,
                    "col_lower_": lb,
                    "col_upper_": ub,
                }
                for name, old in floats.items():
                    assert_same_bits(fields[name], old, name)
                for name, old in (("start_", indptr), ("index_", indices)):
                    assert fields[name].dtype.kind == old.dtype.kind == "i", name
                    assert np.array_equal(fields[name], old), name
                assert fields["integrality_"].size == integrality.size == 0
                assert fields["shape"] == (*a_ub.shape, *a_ub.shape)
                assert fields["format"] == _core.MatrixFormat.kColwise
                assert solve["options"] == scipy_highs_options(options)

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

    def test_rejects_out_of_range_observations(self):
        sc = reference_scenario()
        cfg = decoy_config_for(sc)
        bounds = bound_single_photon(expected_observables(sc, cfg), cfg)
        with pytest.raises(ValueError):
            decoy_key_rate(bounds, -0.1, 0.0, sc.params)
        with pytest.raises(ValueError):
            decoy_key_rate(bounds, 0.1, 1.5, sc.params)
