"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion."""
import math
import time

import numpy as np
import pytest

from mpqkd.decoy import (
    bound_single_photon,
    decoy_config_for,
    decoy_key_rate,
    expected_observables,
    posterior_intensity_given_photons,
    single_photon_z_error_yield,
    single_photon_z_yield,
)
from mpqkd.model import (
    SystemParams,
    binary_entropy,
    distance_from_transmittance,
    key_rate,
    make_scenario,
    pairing_rate,
    transmittance_from_distance,
)
from mpqkd.montecarlo import estimate_statistics, pair_clicks, sift_and_map, simulate_rounds
from mpqkd.optimize import (
    OptimizationProblem,
    closed_form_asymptotic,
    optimize_intensities,
    plob_bound,
)
from mpqkd.sweep import af_problem, oi_problem
from oracles import LinearizedProblem

PARAMS = SystemParams()


def _criterion(number: int, label: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE {number:02d} {label}: {status}{suffix}"
    print(line)
    assert passed, line


def _oi_rate(total_km: float, delta_km: float, lam: float, e_d: float = PARAMS.e_d) -> float:
    return optimize_intensities(oi_problem(total_km, delta_km, lam, e_d)).r_star


def test_criterion_01_table2():
    started = time.time()
    expected = {1.0: (0.4998, 0.4998), 10.0: (0.2402, 0.7594), 100.0: (0.0901, 0.9011)}
    ok = True
    details = []
    for delta, (mu_a, mu_b) in expected.items():
        report = optimize_intensities(OptimizationProblem(100.0, delta, 1e6))
        ok &= abs(report.mu_a_star - mu_a) <= 5e-3
        ok &= abs(report.mu_b_star - mu_b) <= 5e-3
        ok &= abs(report.mu_b_star / report.mu_a_star - mu_b / mu_a) <= 2e-2
        details.append(f"d{delta:g}=({report.mu_a_star:.4f},{report.mu_b_star:.4f})")
    elapsed = time.time() - started
    ok &= elapsed < 60.0
    _criterion(1, "table2-optimal-intensities", ok, ", ".join(details) + f", {elapsed:.1f}s")


def test_criterion_02_table3():
    expected = {1.0: (0.9962, 0.9962), 10.0: (0.9802, 0.9962), 100.0: (0.8682, 0.9812)}
    ok = True
    details = []
    for delta, (mu_a, mu_b) in expected.items():
        report = optimize_intensities(OptimizationProblem(100.0, delta, 1))
        ok &= abs(report.mu_a_star - mu_a) <= 5e-3
        ok &= abs(report.mu_b_star - mu_b) <= 5e-3
        details.append(f"d{delta:g}=({report.mu_a_star:.4f},{report.mu_b_star:.4f})")
    _criterion(2, "table3-unit-interval-optima", ok, ", ".join(details))


def test_criterion_03_table4():
    tabulated = {
        1.0: 1.0163,
        10.0: 1.0284,
        1e2: 1.1299,
        1e3: 1.6761,
        1e4: 2.9218,
        1e5: 3.1647,
        1e6: 3.1615,
    }
    ratios = {}
    for lam in tabulated:
        report = optimize_intensities(OptimizationProblem(100.0, 10.0, lam))
        ratios[lam] = report.mu_b_star / report.mu_a_star
    ok = all(abs(ratios[lam] - ref) <= 2e-2 for lam, ref in tabulated.items())
    trend = [ratios[lam] for lam in (1.0, 10.0, 1e2, 1e3, 1e4, 1e5)]
    ok &= all(a <= b + 1e-9 for a, b in zip(trend, trend[1:]))
    _criterion(
        3,
        "table4-interval-trend",
        ok,
        " ".join(f"{ratios[lam]:.4f}" for lam in tabulated),
    )


def test_criterion_04_table5():
    tabulated = {
        1.0: 0.9962,
        10.0: 0.9838,
        1e2: 0.8915,
        1e3: 0.6424,
        1e4: 0.5008,
        1e5: 0.5005,
        1e6: 0.4998,
    }
    ok = True
    values = []
    for lam, ref in tabulated.items():
        report = optimize_intensities(OptimizationProblem(100.0, 1.0, lam))
        ok &= abs(report.mu_a_star - ref) <= 5e-3
        ok &= abs(report.mu_a_star - report.mu_b_star) <= 1e-3
        values.append(report.mu_a_star)
    ok &= all(a >= b - 1e-4 for a, b in zip(values, values[1:]))
    _criterion(4, "table5-symmetric-optima", ok, " ".join(f"{v:.4f}" for v in values))


def test_criterion_05_closed_form_oracle():
    ok = True
    worst = 0.0
    for delta in (1.0, 2.0, 10.0, 100.0):
        report = optimize_intensities(
            LinearizedProblem(100.0, delta, math.inf, SystemParams(p_d=0.0))
        )
        mu_a, mu_b = closed_form_asymptotic(delta, "lambda_infinite")
        err = max(abs(report.mu_a_star - mu_a), abs(report.mu_b_star - mu_b))
        worst = max(worst, err)
        ok &= err <= 1e-6
    _criterion(5, "closed-form-oracle", ok, f"worst coordinate error {worst:.2e}")


def test_criterion_06_unit_interval_limit():
    report = optimize_intensities(LinearizedProblem(100.0, 1.0, 1, SystemParams(p_d=0.0)))
    err = max(abs(report.mu_a_star - 1.0), abs(report.mu_b_star - 1.0))
    _criterion(6, "unit-interval-boundary-limit", err <= 1e-3, f"distance to (1,1) {err:.2e}")


def test_criterion_07_plob_crossover_and_interval_gain():
    crossover = False
    for total in range(275, 330, 5):
        if _oi_rate(total, 50.0, 1e3) > plob_bound(total, PARAMS, include_detector=True):
            crossover = True
            break
    # Only r_p depends on the pairing interval, so the optimized rate ratio
    # lies between the r_p ratios at the two optima's click probabilities.
    # It leaves the bracket if either optimum is missed or another key-rate
    # term starts to depend on lam.  By the pairing_rate bound it stays below
    # 1e3 at any geometry (~208 here).
    rate = {}
    click = {}
    for lam in (1e3, 1):
        problem = oi_problem(200.0, 50.0, lam, PARAMS.e_d)
        report = optimize_intensities(problem)
        rate[lam] = report.r_star
        click[lam] = key_rate(problem.scenario(report.mu_a_star, report.mu_b_star)).p
    ratio = rate[1e3] / rate[1]
    lower = pairing_rate(click[1], 1e3) / pairing_rate(click[1], 1)
    upper = pairing_rate(click[1e3], 1e3) / pairing_rate(click[1e3], 1)
    bracketed = lower * (1.0 - 1e-9) <= ratio <= upper * (1.0 + 1e-9)
    ok = crossover and bracketed
    _criterion(
        7,
        "plob-crossover-and-interval-gain",
        ok,
        f"crossover_in_[275,325]={crossover}, rate ratio at 200 km = {ratio:.1f} "
        f"in r_p bracket [{lower:.1f}, {upper:.1f}]",
    )


def test_criterion_08_method_dominance_and_150km_gap_reach():
    dominance = True
    for delta_km in (50.0, 100.0, 150.0):
        for total in np.arange(delta_km + 20.0, 401.0, 25.0):
            oi = _oi_rate(total, delta_km, 1e6)
            af = optimize_intensities(af_problem(total, delta_km, 1e6, PARAMS.e_d)).r_star
            if oi > 0.0 and af > 0.0:
                dominance &= oi > af
    reach = False
    for total in range(325, 380, 10):
        if _oi_rate(total, 150.0, 1e6) > plob_bound(total, PARAMS, include_detector=True):
            reach = True
            break
    ok = dominance and reach
    _criterion(
        8,
        "optimal-vs-adding-fiber-dominance",
        ok,
        f"dominance={dominance}, 150km-gap crossover in [325,375]={reach}",
    )


def test_criterion_09_misalignment_robustness():
    params = SystemParams(e_d=0.20)
    reach = False
    for total in range(280, 420, 10):
        oi_rate = _oi_rate(total, 100.0, 1e6, params.e_d)
        if oi_rate > plob_bound(total, params, include_detector=True):
            reach = True
            break
    _criterion(9, "misalignment-20pct-still-beats-plob", reach, f"crossover found={reach}")


def test_criterion_10_monte_carlo_agreement():
    started = time.time()
    scenario = make_scenario(100.0, 100.0, 0.5, 0.5, 100, SystemParams(p_d=0.0))
    rounds = simulate_rounds(scenario, 10_000_000, seed=20240817)
    pairs = sift_and_map(rounds, pair_clicks(rounds, scenario.lam), scenario)
    stats = estimate_statistics(pairs, rounds, scenario)
    reference = key_rate(scenario)
    ok = True
    details = []
    for name, estimate in (("p", stats.p_hat), ("r_p", stats.r_p_hat), ("r_s", stats.r_s_hat)):
        ref = getattr(reference, name)
        band = 3.0 * math.sqrt(ref * (1.0 - ref) / estimate.denominator)
        good = abs(estimate.value - ref) <= band
        ok &= good
        details.append(f"{name} dev={abs(estimate.value - ref):.2e} band={band:.2e}")
    ok &= stats.e_z_hat.value == 0.0
    elapsed = time.time() - started
    ok &= elapsed < 120.0
    _criterion(10, "monte-carlo-agreement", ok, "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_11_decoy_bracketing():
    import random

    rng = random.Random(20240817)
    ok = True
    worst_margin = math.inf
    for _ in range(10):
        distance_a = rng.uniform(40.0, 120.0)
        gap = rng.uniform(0.0, 60.0)
        mu_a = rng.uniform(0.2, 0.9)
        mu_b = rng.uniform(0.2, 0.9)
        scenario = make_scenario(
            distance_a,
            distance_a + gap,
            mu_a,
            mu_b,
            1e6,
            nu_a=mu_a * rng.uniform(0.1, 0.35),
            nu_b=mu_b * rng.uniform(0.1, 0.35),
        )
        config = decoy_config_for(scenario)
        bounds = bound_single_photon(expected_observables(scenario, config), config)
        true_m = single_photon_z_yield(scenario)
        true_e = single_photon_z_error_yield(scenario)
        breakdown = key_rate(scenario)
        rate = decoy_key_rate(bounds, breakdown.r_p * breakdown.r_s, breakdown.e_z, scenario.params)
        ok &= bounds.m_z_11_lower <= true_m
        ok &= bounds.e_z_11_upper >= true_e
        ok &= rate <= breakdown.rate + 1e-12
        worst_margin = min(worst_margin, breakdown.rate + 1e-12 - rate)
    _criterion(11, "decoy-bracketing", ok, f"10 scenarios, min rate margin {worst_margin:.2e}")


def test_criterion_12_property_suites():
    ok = True
    # arm-swap symmetry at 1e-12 relative
    front = key_rate(make_scenario(80.0, 140.0, 0.24, 0.76, 1e6))
    back = key_rate(make_scenario(140.0, 80.0, 0.76, 0.24, 1e6))
    ok &= abs(front.rate - back.rate) <= 1e-12 * max(front.rate, 1e-300)
    # pairing-rate monotonicity in the interval
    for p in (1e-4, 1e-2, 0.3):
        rates = [pairing_rate(p, lam) for lam in (1, 2, 5, 20, 100, 1e4, math.inf)]
        ok &= all(a <= b + 1e-18 for a, b in zip(rates, rates[1:]))
    # entropy endpoints
    ok &= binary_entropy(0.0) == 0.0
    ok &= binary_entropy(0.5) == 1.0
    # distance <-> transmittance round trip at 1e-10 relative
    for distance in (1.0, 37.5, 250.0):
        eta = transmittance_from_distance(distance, PARAMS)
        ok &= abs(distance_from_transmittance(eta, PARAMS) - distance) <= 1e-10 * distance
    # posterior normalization at 1e-12
    scenario = make_scenario(100.0, 150.0, 0.5, 0.5, 1e6, nu_a=0.05, nu_b=0.05)
    config = decoy_config_for(scenario)
    for k in ((0, 0), (1, 1), (2, 1), (0, 3)):
        posterior = posterior_intensity_given_photons(k, config)
        ok &= abs(sum(posterior.values()) - 1.0) <= 1e-12
    _criterion(12, "property-suites", ok)
