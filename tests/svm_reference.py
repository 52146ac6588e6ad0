"""Reference solvers for the SVM dual, used only by the tests.

projected_gradient_reference solves the dual by a method unrelated to SMO,
so agreement of the objectives checks SMO's optimum. reference_smo_loop is
the plain form of rntk.svm's SMO loop (recomputing F and both index sets
every step from the gradient G); the library loop must return the same
alphas, bias and iteration count bit for bit on a cold start.
"""

import math

import numpy as np

from rntk.svm import _TAU, ConvergenceError, _check_gram


def reference_smo_loop(K, y, C, tol, max_iter):
    """SMO from alpha = 0. Returns (alpha, bias, iterations, converged)."""
    N = K.shape[0]
    Q = K * np.outer(y, y)
    alpha = np.zeros(N)
    G = -np.ones(N)
    for it in range(max_iter):
        F = -y * G
        up = ((y > 0) & (alpha < C)) | ((y < 0) & (alpha > 0))
        low = ((y > 0) & (alpha > 0)) | ((y < 0) & (alpha < C))
        m = np.where(up, F, -np.inf).max()
        M = np.where(low, F, np.inf).min()
        if m - M <= tol:
            return alpha, _bias(F, y, alpha, C, m, M), it, True
        i = int(np.where(up, F, -np.inf).argmax())
        j = int(np.where(low, F, np.inf).argmin())

        quad = Q[i, i] + Q[j, j] - 2.0 * y[i] * y[j] * Q[i, j]
        if quad <= 0.0:
            quad = _TAU
        old_i, old_j = alpha[i], alpha[j]
        if y[i] != y[j]:
            delta = (-G[i] - G[j]) / quad
            diff = old_i - old_j
            ai, aj = old_i + delta, old_j + delta
            if diff > 0.0:
                if aj < 0.0:
                    aj, ai = 0.0, diff
            else:
                if ai < 0.0:
                    ai, aj = 0.0, -diff
            if diff > 0.0:
                if ai > C:
                    ai, aj = C, C - diff
            else:
                if aj > C:
                    aj, ai = C, C + diff
        else:
            delta = (G[i] - G[j]) / quad
            total = old_i + old_j
            ai, aj = old_i - delta, old_j + delta
            if total > C:
                if ai > C:
                    ai, aj = C, total - C
                if aj > C:
                    aj, ai = C, total - C
            else:
                if aj < 0.0:
                    aj, ai = 0.0, total
                if ai < 0.0:
                    ai, aj = 0.0, total
        alpha[i], alpha[j] = ai, aj
        G += Q[:, i] * (ai - old_i) + Q[:, j] * (aj - old_j)
    return alpha, 0.0, max_iter, False


def _bias(F, y, alpha, C, m, M):
    free = (alpha > 0.0) & (alpha < C)
    if free.any():
        return float(F[free].mean())
    # both index sets are nonempty whenever both classes are present,
    # so m and M are finite here
    return float(0.5 * (m + M))


def dual_objective(gram, labels, alpha) -> float:
    """Value of the dual 1/2 a'Qa - sum(a) for unsigned alphas."""
    y = np.asarray(labels, dtype=np.float64)
    a = np.asarray(alpha, dtype=np.float64)
    Qa = (np.asarray(gram) * np.outer(y, y)) @ a
    return float(0.5 * a @ Qa - a.sum())


def _project_box_hyperplane(v, y, C):
    """Project v onto {0 <= a <= C, y'a = 0} by bisecting the multiplier."""

    def constraint(lam):
        return float(y @ np.clip(v - lam * y, 0.0, C))

    span = C + float(np.abs(v).max(initial=0.0)) + 1.0
    lo, hi = -span, span
    # h(lam) is continuous and nonincreasing; 200 halvings reach roundoff
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if constraint(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return np.clip(v - 0.5 * (lo + hi) * y, 0.0, C)


def projected_gradient_reference(gram, labels, C: float, tol: float = 1e-10,
                                 max_iter: int = 500_000):
    """Slow reference solver for the same dual, for cross-checking SMO.

    Accelerated projected gradient with restart on objective increase,
    cold-started at zero, run until the projected-gradient residual drops
    below tol. Returns (alpha, objective).
    """
    K = _check_gram(gram)
    y = np.asarray(labels, dtype=np.float64)
    Q = K * np.outer(y, y)
    lip = max(float(np.linalg.eigvalsh(Q)[-1]), _TAU)
    step = 1.0 / lip
    N = K.shape[0]
    alpha = np.zeros(N)
    look = alpha.copy()
    t_prev = 1.0
    obj_prev = 0.0
    for _ in range(max_iter):
        grad_look = Q @ look - 1.0
        nxt = _project_box_hyperplane(look - step * grad_look, y, C)
        obj = float(0.5 * nxt @ (Q @ nxt) - nxt.sum())
        if obj > obj_prev and t_prev > 1.0:
            # overshoot from momentum: restart from the last iterate, where
            # a plain projected step is guaranteed not to increase f
            look = alpha.copy()
            t_prev = 1.0
            continue
        # optimality is measured at the iterate itself, not the lookahead
        grad = Q @ nxt - 1.0
        residual = float(np.linalg.norm(
            nxt - _project_box_hyperplane(nxt - step * grad, y, C)))
        if residual <= tol * max(1.0, float(np.linalg.norm(nxt))):
            return nxt, obj
        t = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_prev * t_prev))
        look = nxt + ((t_prev - 1.0) / t) * (nxt - alpha)
        alpha, t_prev, obj_prev = nxt, t, obj
    raise ConvergenceError(
        f"projected gradient did not reach tol {tol} in {max_iter} iterations")
