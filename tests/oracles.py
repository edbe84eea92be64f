"""Test oracles shared by the test modules: objectives, models and
optimizers that the package itself does not ship."""
import functools
import math

import numpy as np
from scipy.optimize import linprog, minimize

from mpqkd.decoy import (
    _EQUALITY_TOL,
    DecoyConfig,
    DecoyObservables,
    PairIntensityVector,
    poisson_pair_prob,
)
from mpqkd.model import (
    KeyRateBreakdown,
    ModelDegenerateError,
    Scenario,
    binary_entropy,
    pairing_rate,
)
from mpqkd.montecarlo import DISCARD, PHASE_SLICES, UNSET, ZERO, Pairs, Rounds, X, Z
from mpqkd.optimize import (
    _GRID_RESOLUTION,
    _GRID_TIE_TOL,
    _MU_MAX,
    _MU_MIN,
    OptimizationProblem,
    OptimumReport,
    _grid_scan,
    _newton_polish,
    _stationary,
)


def linearized_key_rate(scenario: Scenario) -> KeyRateBreakdown:
    """Small-intensity closed-form model used as an optimizer oracle.

    Dark counts are dropped and the click probability is Taylor-linearized,
    which collapses the intermediates to:

        p     = (eta_a mu_a + eta_b mu_b) / 2
        r_s   = eta_a eta_b mu_a mu_b / (8 p^2)
        q_bar = exp(-mu_a - mu_b)
        e_z   = 0,  e_11 = e_d

    The pairing rate keeps its two limit forms exactly: p/2 for an unbounded
    interval and p^2 for lam == 1 (small-p limit); other intervals use the
    finite formula on the linearized p.
    """
    eta_a, eta_b = scenario.eta_a, scenario.eta_b
    mu_a, mu_b = scenario.mu_a, scenario.mu_b
    p = (eta_a * mu_a + eta_b * mu_b) / 2.0
    if p <= 0.0:
        raise ModelDegenerateError("zero click probability in linearized model")
    if math.isinf(scenario.lam):
        r_p = p / 2.0
    elif scenario.lam == 1:
        r_p = p * p
    else:
        r_p = pairing_rate(p, scenario.lam)
    r_s = eta_a * eta_b * mu_a * mu_b / (8.0 * p * p)
    q_bar = math.exp(-mu_a - mu_b)
    e_11 = scenario.params.e_d
    raw = r_p * r_s * q_bar * (1.0 - binary_entropy(e_11))
    return KeyRateBreakdown(
        p=p,
        r_p=r_p,
        r_s=r_s,
        q_bar_11=q_bar,
        e_z=0.0,
        y_11=eta_a * eta_b / 2.0,
        e_11=e_11,
        raw_rate=raw,
        rate=max(raw, 0.0),
    )


class LinearizedProblem(OptimizationProblem):
    """An optimization problem whose objective is the linearized closed-form
    model (:func:`linearized_key_rate`), so the optimizer can be
    checked against the model's closed-form stationary points.  The grid
    scan, which only picks the refinement's start, still runs on the full
    model's :func:`mpqkd.model.key_rate_grid`."""

    def rate(self, mu_a: float, mu_b: float) -> float:
        return linearized_key_rate(self.scenario(mu_a, mu_b)).rate


def loop_grid_best(rates) -> int:
    """The grid scan's choice as one Python loop over every rate, the way
    :func:`mpqkd.optimize._grid_scan` made it before it skipped the rates
    that are no new running maximum."""
    best, k_best = -math.inf, 0
    for k, r in enumerate(np.asarray(rates).tolist()):
        if r > best + _GRID_TIE_TOL:
            best, k_best = r, k
    return k_best


def pairing_chain(p: float, lam: int) -> np.ndarray:
    """Transition matrix of the pairing rule as a Markov chain over the age of
    the pending click, one step per round.

    State 0 holds no pending click.  State k (1 <= k <= lam) holds a click
    that was made k - 1 rounds ago and may still pair.  In state 0 a click
    becomes pending.  In state k a click pairs with the pending one, which
    leaves no pending click; without a click the pending one ages, and after
    lam rounds without a partner it is dropped.
    """
    matrix = np.zeros((lam + 1, lam + 1))
    matrix[0, 0], matrix[0, 1] = 1.0 - p, p
    for k in range(1, lam + 1):
        matrix[k, 0] += p  # paired
        matrix[k, k + 1 if k < lam else 0] += 1.0 - p  # aged, or dropped
    return matrix


def stationary_distribution(matrix: np.ndarray) -> np.ndarray:
    """Stationary distribution of an irreducible stochastic matrix by
    Grassmann-Taksar-Heyman state reduction.

    The reduction never subtracts, so every probability keeps a small
    relative error, small ones included.  A state's mass is rescaled onto the
    states before it through its nonzero entries only, so a sparse chain
    costs little more than its nonzeros.
    """
    reduced = np.array(matrix, dtype=float)
    n = len(reduced)
    for k in range(n - 1, 0, -1):
        leave = reduced[k, :k].sum()  # 1 - P[k, k] without the subtraction
        rows = np.flatnonzero(reduced[:k, k])
        cols = np.flatnonzero(reduced[k, :k])
        reduced[rows, k] /= leave
        reduced[np.ix_(rows, cols)] += np.outer(reduced[rows, k], reduced[k, cols])
    weights = np.zeros(n)
    weights[0] = 1.0
    for k in range(1, n):
        weights[k] = weights[:k] @ reduced[:k, k]
    return weights / weights.sum()


def chain_pairing_rate(p: float, lam: int) -> float:
    """Pairs formed per round in the stationary pairing chain: the mass of the
    pending states times the click probability that pairs them."""
    return p * stationary_distribution(pairing_chain(p, lam))[1:].sum()


def scipy_nelder_mead(f, simplex, xatol, fatol, maxiter=500, maxfev=1200):
    """scipy's bounded Nelder-Mead on f(a, b) over [_MU_MIN, _MU_MAX]^2 from an
    initial simplex, as the optimizer called it before it had its own loop."""
    x0 = np.clip(np.array(simplex[0], dtype=float), _MU_MIN, _MU_MAX)
    return minimize(
        lambda v: f(v[0], v[1]),
        x0=x0,
        method="Nelder-Mead",
        bounds=[(_MU_MIN, _MU_MAX), (_MU_MIN, _MU_MAX)],
        options={
            "xatol": xatol,
            "fatol": fatol,
            "maxiter": maxiter,
            "maxfev": maxfev,
            "initial_simplex": np.array(simplex, dtype=float),
        },
    )


def scipy_optimize_intensities(problem: OptimizationProblem) -> OptimumReport:
    """:func:`mpqkd.optimize.optimize_intensities` with its refinement on
    scipy's ``minimize(method="Nelder-Mead")`` and numpy arrays, the way it
    ran before the module had its own Nelder-Mead loop."""
    rate = functools.cache(problem.rate)
    mu_a0, mu_b0 = _grid_scan(problem)
    r_grid = rate(mu_a0, mu_b0)
    if r_grid <= 0.0:
        return OptimumReport(mu_a0, mu_b0, 0.0, 0, False, 1)
    pull = 1.0 / _GRID_RESOLUTION
    x = np.clip(np.array([mu_a0, mu_b0]), _MU_MIN + pull, _MU_MAX - pull)
    iterations = 0
    for simplex_step in (1.0 / (2.0 * _GRID_RESOLUTION), 2e-3):
        simplex = [x.copy()]
        for k in range(2):
            vertex = x.copy()
            vertex[k] += simplex_step if vertex[k] + simplex_step <= _MU_MAX else -simplex_step
            simplex.append(vertex)
        result = scipy_nelder_mead(
            lambda a, b: -rate(a, b), simplex, 1e-9, 1e-13 * max(r_grid, 1e-300)
        )
        iterations += int(result.nit)
        candidate = np.clip(result.x, _MU_MIN, _MU_MAX)
        if rate(candidate[0], candidate[1]) >= rate(x[0], x[1]):
            x = candidate
    if rate(x[0], x[1]) < r_grid:
        x = np.array([mu_a0, mu_b0])
    a, b, polish_steps = _newton_polish(rate, *x.tolist())
    r_star = rate(a, b)
    converged = _stationary(rate, a, b, r_star)
    return OptimumReport(
        a, b, r_star, iterations + polish_steps, converged, rate.cache_info().misses
    )


def vacuum_weak_decoy_basis(totals, errors, weak, signal):
    """Closed-form vacuum + weak-decoy bounds of one basis: a lower bound on
    the (1, 1) class's yield y_11 and an upper bound on its error yield
    e_11 y_11, from the observables at the pair sums {0, weak, signal} per
    party (Xu, Curty, Qi, Lo, New J. Phys. 15, 113007 (2013); Zhou, Yu, Wang,
    Phys. Rev. A 93, 042324 (2016)).

    With G(A, B) = exp(A + B) Q(A, B) = sum_k A**k_a B**k_b / (k_a! k_b!) y_k,
    H = G(nu_a, nu_b) - G(nu_a, 0) - G(0, nu_b) is the sum over classes with
    a photon from each party, less y_00.  H' is the same at the signal sums,
    r = max(nu_a / mu_a, nu_b / mu_b) and c = r nu_a nu_b / (mu_a mu_b), so
    H - c H' weighs y_11 by nu_a nu_b (1 - r) and every other class with a
    photon from each party by at most 0; the y_00 term, whose weight is
    1 - c >= 0, is dropped.  The error yields give H_E + e_00 >= nu_a nu_b
    e_11 y_11, with e_00 <= min(G_E(nu_a, 0), G_E(0, nu_b)).
    """
    (nu_a, nu_b), (mu_a, mu_b) = weak, signal

    def g(observed, a, b):
        return math.exp(a + b) * observed[PairIntensityVector(a, b)]

    def h(observed, a, b):
        return g(observed, a, b) - g(observed, a, 0.0) - g(observed, 0.0, b)

    r = max(nu_a / mu_a, nu_b / mu_b)
    c = r * nu_a * nu_b / (mu_a * mu_b)
    y_11 = (h(totals, nu_a, nu_b) - c * h(totals, mu_a, mu_b)) / (nu_a * nu_b * (1.0 - r))
    vacuum_error = min(g(errors, nu_a, 0.0), g(errors, 0.0, nu_b))
    return y_11, (h(errors, nu_a, nu_b) + vacuum_error) / (nu_a * nu_b)


def vacuum_weak_decoy_bounds(observables: DecoyObservables, config: DecoyConfig):
    """(m_z_11_lower, e_z_11_upper, m_x_11_lower, e_x_11_upper) in closed
    form: :func:`vacuum_weak_decoy_basis` on the Z sums {0, nu, mu} and on
    the X sums {0, 2 nu, 2 mu}.  The lower bounds are not clamped at 0."""
    weak, signal = (config.nu_a, config.nu_b), (config.mu_a, config.mu_b)
    return (
        *vacuum_weak_decoy_basis(observables.z_total, observables.z_error, weak, signal),
        *vacuum_weak_decoy_basis(
            observables.x_total,
            observables.x_error,
            tuple(2.0 * nu for nu in weak),
            tuple(2.0 * mu for mu in signal),
        ),
    )


def off_grid_mass(vec: PairIntensityVector, cutoff: int = 20) -> float:
    """Each party's Poisson mass beyond ``cutoff`` photons, summed over the
    next ``cutoff`` terms and over the two parties: at least the pair's mass
    off the class grid, which is the same less the product of the two."""
    beyond = range(cutoff + 1, 2 * cutoff + 1)
    return sum(
        math.fsum(poisson_pair_prob((k, 0), PairIntensityVector(mean, 0.0)) for k in beyond)
        for mean in vec
    )


def decoy_lp_rows(weights: np.ndarray, tails, observed):
    """The rows of one decoy LP, built one row and one class at a time from
    the setting x class weights, each setting's mass off the grid and its
    observable: row s scaled by c_s = min(1 / O_s, 1e12); class k's column
    in units of its ceiling u_k = min(1, min_s c_s O_s (1 + tol) / (c_s
    w_sk)), the most that any row lets its yield be; entries at or below
    1e-9 (which HiGHS would drop) set to 0 and given up, with c_s times the
    mass off the grid, from the row's lower bound.

    Returns (matrix, row lower bounds, row upper bounds, ceilings).
    """
    n_rows, n = weights.shape
    scales = [min(1.0 / value, 1e12) if value > 0.0 else 1e12 for value in observed]
    uppers = [scale * value * (1.0 + _EQUALITY_TOL) for scale, value in zip(scales, observed)]
    ceilings = np.ones(n)
    for k in range(n):
        for s_idx in range(n_rows):
            scaled = weights[s_idx, k] * scales[s_idx]
            if scaled > 0.0:
                ceilings[k] = min(ceilings[k], uppers[s_idx] / scaled)
    matrix, lowers = [], []
    for s_idx, (scale, tail, value) in enumerate(zip(scales, tails, observed)):
        entries = weights[s_idx] * scale * ceilings
        small = entries <= 1e-9
        unseen = scale * tail + float(np.where(small, entries, 0.0).sum())
        matrix.append(np.where(small, 0.0, entries))
        lowers.append(scale * value * (1.0 - _EQUALITY_TOL) - unseen)
    return np.array(matrix), np.array(lowers), np.array(uppers), ceilings


def coupled_decoy_bounds(settings, totals, errors, cutoff: int = 20) -> tuple[float, float]:
    """Min single-photon yield and max single-photon error yield of one basis
    from the LP that couples them: the rows of both of the basis's LPs
    (:func:`decoy_lp_rows`), over the yields m_k and the error yields e_k,
    plus e_k <= m_k for every class, solved by scipy's
    ``linprog(method="highs")`` with each ranged row as two inequalities.

    In column units the coupling reads u_k^e z_k^e - u_k^m z_k^m <= 0,
    scaled so that the larger ceiling is 1.  A coupling row whose smaller
    entry HiGHS would drop is left out, which only relaxes the LP.  The two
    LPs without any coupling relax this one, so their min cannot exceed its
    min, nor their max fall below its max.
    """
    classes = [(k_a, k_b) for k_a in range(cutoff + 1) for k_b in range(cutoff + 1)]
    n = len(classes)
    weights = np.array([[poisson_pair_prob(k, vec) for k in classes] for vec in settings])
    tails = [off_grid_mass(vec, cutoff) for vec in settings]
    m_rows, m_lower, m_upper, m_ceilings = decoy_lp_rows(
        weights, tails, [totals[vec] for vec in settings]
    )
    e_rows, e_lower, e_upper, e_ceilings = decoy_lp_rows(
        weights, tails, [errors[vec] for vec in settings]
    )
    zeros = np.zeros_like(m_rows)
    rows = [np.hstack([m_rows, zeros]), np.hstack([zeros, e_rows])]
    a_ub = [rows[0], -rows[0], rows[1], -rows[1]]
    b_ub = [m_upper, -m_lower, e_upper, -e_lower]
    for k in range(n):
        larger = max(m_ceilings[k], e_ceilings[k])
        if min(m_ceilings[k], e_ceilings[k]) > 1e-9 * larger:
            row = np.zeros((1, 2 * n))
            row[0, k], row[0, n + k] = -m_ceilings[k] / larger, e_ceilings[k] / larger
            a_ub.append(row)
            b_ub.append([0.0])
    options = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-9}
    results = []
    target = cutoff + 2  # the (1, 1) class
    for sign, column, ceilings in ((1.0, target, m_ceilings), (-1.0, n + target, e_ceilings)):
        cost = np.zeros(2 * n)
        cost[column] = sign
        res = linprog(
            cost,
            np.vstack(a_ub),
            np.concatenate(b_ub),
            bounds=(0.0, 1.0),
            method="highs",
            options=options,
        )
        if res.status != 0:
            raise RuntimeError(f"coupled decoy LP failed: {res.message}")
        results.append(min(max(float(res.x[column]) * ceilings[target], 0.0), 1.0))
    return results[0], results[1]


def interval_rule(lam) -> bool:
    """The maximal pairing interval rule written out: an integer >= 1, or
    inf, and no bool (True == 1 would pass the arithmetic)."""
    if isinstance(lam, (bool, np.bool_)):
        return False
    return lam == math.inf or (lam >= 1 and float(lam).is_integer())


def scenario_problem(eta_a, eta_b, mu_a, mu_b, lam, params, nu_a=0.0, nu_b=0.0):
    """The message of the first check a Scenario with these fields fails, or
    None: one check per field, in the order and with the messages Scenario
    had when it checked its fields one at a time."""
    for name, mu in (("mu_a", mu_a), ("mu_b", mu_b)):
        if not 0.0 < mu <= 1.0:
            return f"{name} must be in (0, 1], got {mu}"
    for name, nu, mu in (("nu_a", nu_a, mu_a), ("nu_b", nu_b, mu_b)):
        if not 0.0 <= nu < mu:
            return f"{name} must be in [0, {name.replace('nu', 'mu')}), got {nu}"
    if not interval_rule(lam):
        return f"pairing interval must be an integer >= 1 or inf, got {lam}"
    for name, eta in (("eta_a", eta_a), ("eta_b", eta_b)):
        if not 0.0 < eta <= params.eta_d:
            return f"{name} must be in (0, eta_d={params.eta_d}], got {eta}"
    return None


def unit_interval_problem(x, what: str):
    """The message for a float or an array with an entry outside [0, 1]
    (NaN included), or None, as pairing_rate and binary_entropy had it
    before their checks were shared."""
    inside = (x >= 0.0) & (x <= 1.0)
    if not (inside.all() if isinstance(inside, np.ndarray) else inside):
        return f"{what} must be in [0, 1], got {x}"
    return None


def _party_label(bit_i: np.ndarray, bit_j: np.ndarray) -> np.ndarray:
    return np.where(bit_i != bit_j, Z, np.where(bit_i == 0, ZERO, X))


def reference_sift(rounds: Rounds, pairs: Pairs, scenario: Scenario, seed: int = 0) -> Pairs:
    """``sift_and_map`` written with per-party labels, int16 phase
    differences and masked assignment: the same columns, values and dtypes,
    from the same misalignment draws."""
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

    kappa_a, kappa_b, error = (np.full(i.size, UNSET, dtype=np.int8) for _ in range(3))
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
