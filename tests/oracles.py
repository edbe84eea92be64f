"""Test oracles shared by the test modules: objectives and models that the
package itself does not ship."""
import numpy as np

from mpqkd.model import linearized_key_rate
from mpqkd.optimize import OptimizationProblem


class LinearizedProblem(OptimizationProblem):
    """An optimization problem whose objective is the linearized closed-form
    model (:func:`mpqkd.model.linearized_key_rate`), so the optimizer can be
    checked against the model's closed-form stationary points.  Its grid is
    one scalar evaluation per point."""

    def rate(self, mu_a: float, mu_b: float) -> float:
        return linearized_key_rate(self.scenario(mu_a, mu_b)).rate

    def rate_grid(self, mu_a: np.ndarray, mu_b: np.ndarray) -> np.ndarray:
        mu_a, mu_b = np.broadcast_arrays(mu_a, mu_b)
        rates = [self.rate(a, b) for a, b in zip(mu_a.ravel().tolist(), mu_b.ravel().tolist())]
        return np.array(rates).reshape(mu_a.shape)


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
