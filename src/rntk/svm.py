"""C-SVM on precomputed kernels: SMO dual solver plus one-vs-one multiclass.

Solves min 1/2 a'Qa - sum(a) over 0 <= a <= C, y'a = 0 with Q = yy' * K,
using maximal-violating-pair working-set selection. Grams are consumed as
dense matrices; no kernel evaluations happen here. A fit can start from a
model trained at a smaller C on the same Gram (alpha seeding along the C
path): its solution stays feasible because the box only grows.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np

from .kernels import ShapeError

log = logging.getLogger("rntk.svm")

_TAU = 1e-12
# negative eigenvalues above this fraction of the mean diagonal are treated
# as roundoff; below it the matrix is genuinely indefinite
_PSD_FRACTION = 1e-6


class DegenerateProblemError(ValueError):
    """Training data cannot define the classifier (e.g. one class only)."""


class ConvergenceError(RuntimeError):
    """The dual solver hit its iteration cap without meeting the tolerance."""


@dataclass(frozen=True)
class DualModel:
    """Solution of one binary subproblem.

    alphas holds the signed dual coefficients alpha_i * y_i for the
    support vectors only, aligned with support_indices (positions in the
    full training set). class_pair is (positive label, negative label);
    the positive side is always the smaller original label.
    """

    support_indices: np.ndarray
    alphas: np.ndarray
    bias: float
    C: float
    class_pair: tuple

    def __post_init__(self):
        if self.support_indices.shape != self.alphas.shape:
            raise ShapeError("support_indices and alphas must align")
        if np.any(np.abs(self.alphas) > self.C * (1 + 1e-12)):
            raise ValueError("dual coefficients exceed the box constraint")
        if abs(float(self.alphas.sum())) > 1e-8 * max(1.0, self.C):
            raise ValueError("equality constraint violated: sum of signed alphas != 0")


@dataclass(frozen=True)
class ConstantVote:
    """Stand-in pair model used when a class is absent from the training
    split; always votes for the stored label."""

    label: int
    class_pair: tuple


@dataclass(frozen=True)
class MultiClassModel:
    """One-vs-one ensemble: one binary model per unordered label pair."""

    models: tuple
    labels: tuple
    n_train: int

    def __post_init__(self):
        expected = len(self.labels) * (len(self.labels) - 1) // 2
        if len(self.models) != expected:
            raise ValueError(f"need {expected} pair models, got {len(self.models)}")


def _check_gram(gram) -> np.ndarray:
    K = np.asarray(gram, dtype=np.float64)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ShapeError(f"gram must be square, got shape {K.shape}")
    # the exact comparison is a fast path for the common, exactly symmetric case
    if not (np.array_equal(K, K.T) or np.allclose(K, K.T, rtol=1e-10, atol=1e-12)):
        raise ShapeError("gram must be symmetric")
    return K


def _smo_loop(K, y, C, tol, max_iter, alpha0=None):
    """Core SMO iteration. Returns (alpha, bias, iterations, converged).

    alpha0, if given, is a feasible starting point (0 <= a <= C, y'a = 0);
    the gradient is then computed once from its support. The loop keeps
    F = -y * G itself and updates it with the rows P[k] = -y * Q[:, k],
    which for y = +/-1 is bit for bit the update of G. The index sets are
    penalty vectors (0 inside, -inf/+inf outside) added to F in place, and
    each step changes only entries i and j of them.
    """
    N = K.shape[0]
    P = np.multiply(K.T, -y[:, None], order="C")
    a0 = np.zeros(N) if alpha0 is None else np.array(alpha0, dtype=np.float64)
    support = np.flatnonzero(a0)
    F = y + a0[support] @ P[support]
    pos = y > 0
    pen_up = np.where(np.where(pos, a0 < C, a0 > 0), 0.0, -np.inf)
    pen_low = np.where(np.where(pos, a0 > 0, a0 < C), 0.0, np.inf)
    F_up, F_low, t1, t2 = (np.empty(N) for _ in range(4))
    alpha = a0.tolist()
    ys = y.tolist()
    diag = K.diagonal().tolist()
    for it in range(max_iter):
        np.add(F, pen_up, out=F_up)
        i = int(F_up.argmax())
        np.add(F, pen_low, out=F_low)
        j = int(F_low.argmin())
        m, M = F_up.item(i), F_low.item(j)
        if m - M <= tol:
            alpha = np.array(alpha)
            return alpha, _bias(F, y, alpha, C, m, M), it, True

        # y_i y_j Q_ij = K_ij and Q_ii = K_ii exactly, since y = +/-1
        quad = diag[i] + diag[j] - 2.0 * K.item(i, j)
        if quad <= 0.0:
            quad = _TAU
        yi, yj = ys[i], ys[j]
        old_i, old_j = alpha[i], alpha[j]
        # G_i = -y_i F_i, and F_i = m, F_j = M
        if yi != yj:
            delta = (yi * m + yj * M) / quad
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
            delta = (yj * M - yi * m) / quad
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
        # F += P[i] * (ai - old_i) + P[j] * (aj - old_j), in this order
        np.multiply(P[i], ai - old_i, out=t1)
        np.multiply(P[j], aj - old_j, out=t2)
        t1 += t2
        F += t1
        for k, a, yk in ((i, ai, yi), (j, aj, yj)):
            if yk > 0:
                pen_up[k] = 0.0 if a < C else -np.inf
                pen_low[k] = 0.0 if a > 0.0 else np.inf
            else:
                pen_up[k] = 0.0 if a > 0.0 else -np.inf
                pen_low[k] = 0.0 if a < C else np.inf
    return np.array(alpha), 0.0, max_iter, False


def _bias(F, y, alpha, C, m, M):
    free = (alpha > 0.0) & (alpha < C)
    if free.any():
        return float(F[free].mean())
    # both index sets are nonempty whenever both classes are present,
    # so m and M are finite here
    return float(0.5 * (m + M))


def smo_train(gram, labels, C: float, tol: float = 1e-3,
              max_iter: int = 10_000_000, class_pair: tuple = (1, -1),
              alpha0=None) -> DualModel:
    """Train one binary C-SVM on a precomputed Gram matrix.

    labels must be the +/-1 encoding with both signs present. alpha0
    optionally gives unsigned starting alphas, feasible for this C (in
    [0, C] with y'a = 0), such as the solution at a smaller C. If the
    solver stalls and the Gram has an eigenvalue below the accepted
    roundoff band, it warns, adds |lambda_min| to the diagonal, and
    retries once from the same start before giving up.
    """
    K = _check_gram(gram)
    y = np.asarray(labels, dtype=np.float64)
    if y.shape != (K.shape[0],):
        raise ShapeError("labels must be a vector matching the gram size")
    if not np.all(np.abs(y) == 1.0):
        raise ValueError("binary labels must be +1 or -1")
    if np.all(y > 0) or np.all(y < 0):
        raise DegenerateProblemError("training labels contain a single class")
    return _fit_pair(K, y, C, tol, max_iter, class_pair, alpha0, np.arange(K.shape[0]))


def _fit_pair(K, y, C, tol, max_iter, class_pair, alpha0, rows) -> DualModel:
    """`smo_train` on a Gram and +/-1 labels that have passed its checks.

    A principal block of a checked Gram passes the same elementwise
    symmetry test, so `train_multiclass` fits its pairs here without
    scanning every block again. C and alpha0 are checked here. rows[k] is
    the training-set position of row k of K, which the model's support
    indices name.
    """
    if not (C > 0):
        raise ValueError("C must be positive")
    if alpha0 is not None:
        alpha0 = np.asarray(alpha0, dtype=np.float64)
        if alpha0.shape != y.shape:
            raise ShapeError("alpha0 must be a vector matching the gram size")
        if np.any(alpha0 < 0.0) or np.any(alpha0 > C):
            raise ValueError("alpha0 lies outside the box [0, C]")
        if abs(float(y @ alpha0)) > 1e-8 * max(1.0, C):
            raise ValueError("alpha0 violates the equality constraint y'a = 0")

    alpha, bias, iters, converged = _smo_loop(K, y, C, tol, max_iter, alpha0)
    if not converged:
        N = K.shape[0]
        lam_min = float(np.linalg.eigvalsh(K)[0])
        floor = -_PSD_FRACTION * max(np.trace(K), 0.0) / N
        if lam_min < floor:
            message = (f"gram is not PSD (min eigenvalue {lam_min:.3e}); retrying "
                       f"with diagonal jitter {abs(lam_min):.3e}")
            log.warning("%s", message)
            warnings.warn(message, RuntimeWarning)
            jittered = K + abs(lam_min) * np.eye(N)
            alpha, bias, iters, converged = _smo_loop(jittered, y, C, tol, max_iter,
                                                      alpha0)
        if not converged:
            raise ConvergenceError(
                f"SMO did not converge within {max_iter} iterations (tol {tol})")
    support = np.flatnonzero(alpha > 0.0)
    return DualModel(support_indices=rows[support], alphas=alpha[support] * y[support],
                     bias=bias, C=C, class_pair=class_pair)


def train_multiclass(gram, labels, C: float, tol: float = 1e-3,
                     max_iter: int = 10_000_000, label_set=None,
                     warm_start: Optional[MultiClassModel] = None) -> MultiClassModel:
    """Train one-vs-one binary models for every unordered label pair.

    label_set widens the pair list beyond the labels present in this
    training split; pairs involving an absent class fall back to a
    constant vote for the majority training class (and are logged). The
    smaller label of each pair is mapped to +1.

    warm_start is a model trained earlier on the same gram and labels.
    Each pair whose model there is a DualModel with C no larger than this
    C starts SMO from that model's alphas; any other pair starts at zero.
    """
    K = _check_gram(gram)
    lab = np.asarray(labels)
    if lab.shape != (K.shape[0],):
        raise ShapeError("labels must be a vector matching the gram size")
    seeds = {}
    if warm_start is not None:
        if warm_start.n_train != K.shape[0]:
            raise ShapeError("warm_start was trained on a gram of another size")
        seeds = {m.class_pair: m for m in warm_start.models}
    present = np.unique(lab)
    full = present if label_set is None else np.unique(np.asarray(label_set))
    if full.size < 2:
        raise DegenerateProblemError("need at least two classes")

    counts = {int(c): int((lab == c).sum()) for c in present}
    majority = max(sorted(counts), key=lambda c: counts[c])
    models = []
    for a, b in combinations(full.tolist(), 2):
        idx = np.flatnonzero((lab == a) | (lab == b))
        have_a = bool((lab[idx] == a).any())
        have_b = bool((lab[idx] == b).any())
        if not (have_a and have_b):
            log.info("pair (%s, %s): class missing from training split, "
                     "voting constant %s", a, b, majority)
            models.append(ConstantVote(label=int(majority), class_pair=(a, b)))
            continue
        sub = K[np.ix_(idx, idx)]
        y = np.where(lab[idx] == a, 1.0, -1.0)
        seed = seeds.get((a, b))
        alpha0 = None
        if isinstance(seed, DualModel) and seed.C <= C:
            pos = np.searchsorted(idx, seed.support_indices)
            if (pos >= idx.size).any() or (idx[pos] != seed.support_indices).any():
                raise ValueError(f"warm_start pair ({a}, {b}) has support vectors "
                                 "outside the pair: trained on other labels")
            alpha0 = np.zeros(idx.size)
            alpha0[pos] = seed.alphas * y[pos]
        models.append(_fit_pair(sub, y, C, tol, max_iter, (a, b), alpha0, idx))
    return MultiClassModel(models=tuple(models),
                           labels=tuple(int(c) for c in full),
                           n_train=K.shape[0])


def decision_function(model: DualModel, cross) -> np.ndarray:
    """Decision values for test rows of a rectangular kernel block."""
    X = np.asarray(cross, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeError("cross kernel block must be 2-D (test x train)")
    return X[:, model.support_indices] @ model.alphas + model.bias


def predict(model: MultiClassModel, cross) -> np.ndarray:
    """Majority vote over pair models; ties go to the smallest label.

    cross holds kernel values between test rows and all training points,
    so pair decisions are sign(sum alphas_i K(test, i) + bias), with zero
    counted for the smaller label of the pair.
    """
    X = np.asarray(cross, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_train:
        raise ShapeError(
            f"cross block must have {model.n_train} columns, got shape {X.shape}")
    labels = model.labels
    col = {lab: k for k, lab in enumerate(labels)}
    votes = np.zeros((X.shape[0], len(labels)), dtype=np.int64)
    for pair_model in model.models:
        if isinstance(pair_model, ConstantVote):
            votes[:, col[pair_model.label]] += 1
            continue
        a, b = pair_model.class_pair
        dec = decision_function(pair_model, X)
        wins_a = dec >= 0.0
        votes[wins_a, col[a]] += 1
        votes[~wins_a, col[b]] += 1
    # labels are sorted ascending, so argmax resolves ties to the smallest
    winners = np.argmax(votes, axis=1)
    return np.asarray(labels, dtype=np.int64)[winners]
