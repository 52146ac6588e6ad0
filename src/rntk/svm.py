"""C-SVM on precomputed kernels: SMO dual solver plus one-vs-one multiclass.

Solves min 1/2 a'Qa - sum(a) over 0 <= a <= C, y'a = 0 with Q = yy' * K,
using maximal-violating-pair working-set selection. Grams are consumed as
dense matrices; no kernel evaluations happen here. A fit can start from a
model trained at a smaller C on the same Gram (alpha seeding along the C
path): its solution stays feasible because the box only grows. Along such a
path, `train_multiclass` checks and splits a read-only Gram once: the model
carries the split, and the next C reuses it.
"""

from __future__ import annotations

import logging
import math
import warnings
import weakref
from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional

import numpy as np

from .kernels import ShapeError, _as_real, _integer

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
        # NaN fails this test: a NaN model would vote for each pair's second
        # label, and a warm start from it would run SMO to max_iter
        if not (np.abs(self.alphas) <= self.C * (1 + 1e-12)).all():
            raise ValueError("dual coefficients exceed the box constraint")
        if abs(float(self.alphas.sum())) > 1e-8 * max(1.0, self.C):
            raise ValueError("equality constraint violated: sum of signed alphas != 0")
        if not np.isfinite(self.bias):
            raise ValueError(f"bias must be finite, got {self.bias}")


@dataclass(frozen=True)
class ConstantVote:
    """Stand-in pair model used when a class is absent from the training
    split; always votes for the stored label."""

    label: int
    class_pair: tuple


@dataclass(frozen=True)
class _Split:
    """What `train_multiclass` checks and derives once per Gram and labels.

    gram weakly references the checked Gram if it is read-only and owns its
    data (else None); labels and label_set are copies of the converted
    inputs (label_set None if not given); classes is the model's label
    tuple. pairs holds one entry per label pair: its ConstantVote, or its
    class_pair, training-set indices and +/-1 labels.
    """

    gram: Optional[weakref.ref]
    labels: np.ndarray
    label_set: Optional[np.ndarray]
    classes: tuple
    pairs: tuple

    def __getstate__(self):
        # a weak reference does not pickle; an unpickled split is never reused
        return {**self.__dict__, "gram": None}


@dataclass(frozen=True)
class MultiClassModel:
    """One-vs-one ensemble: one binary model per unordered label pair.

    _split is the checked split it was trained on, which a warm-started
    call on the same read-only Gram reuses (see `train_multiclass`).
    """

    models: tuple
    labels: tuple
    n_train: int
    _split: Optional[_Split] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        expected = len(self.labels) * (len(self.labels) - 1) // 2
        if len(self.models) != expected:
            raise ValueError(f"need {expected} pair models, got {len(self.models)}")


def _check_gram(gram) -> np.ndarray:
    K = np.asarray(gram, dtype=np.float64)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ShapeError(f"gram must be square, got shape {K.shape}")
    # an inf entry would stall SMO until max_iter; a NaN would fail the symmetry test
    if not np.isfinite(K).all():
        raise ValueError("gram must be finite")
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
    add, multiply = np.add, np.multiply
    argmax, argmin, up_at, low_at, K_at = F_up.argmax, F_low.argmin, F_up.item, F_low.item, K.item
    inf = math.inf
    alpha = a0.tolist()
    ys = y.tolist()
    diag = K.diagonal().tolist()
    rows = list(P)
    for it in range(max_iter):
        add(F, pen_up, F_up)
        i = int(argmax())
        add(F, pen_low, F_low)
        j = int(argmin())
        m, M = up_at(i), low_at(j)
        if m - M <= tol:
            alpha = np.array(alpha)
            return alpha, _bias(F, alpha, C, m, M), it, True

        # y_i y_j Q_ij = K_ij and Q_ii = K_ii exactly, since y = +/-1
        quad = diag[i] + diag[j] - 2.0 * K_at(i, j)
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
        multiply(rows[i], ai - old_i, t1)
        multiply(rows[j], aj - old_j, t2)
        add(t1, t2, t1)
        add(F, t1, F)
        if yi > 0:
            pen_up[i] = 0.0 if ai < C else -inf
            pen_low[i] = 0.0 if ai > 0.0 else inf
        else:
            pen_up[i] = 0.0 if ai > 0.0 else -inf
            pen_low[i] = 0.0 if ai < C else inf
        if yj > 0:
            pen_up[j] = 0.0 if aj < C else -inf
            pen_low[j] = 0.0 if aj > 0.0 else inf
        else:
            pen_up[j] = 0.0 if aj > 0.0 else -inf
            pen_low[j] = 0.0 if aj < C else inf
    return np.array(alpha), 0.0, max_iter, False


def _bias(F, alpha, C, m, M):
    free = (alpha > 0.0) & (alpha < C)
    count = int(np.count_nonzero(free))
    if count:
        # sum / count is how np.mean computes it, bit for bit
        return float(F[free].sum() / count)
    # both index sets are nonempty whenever both classes are present,
    # so m and M are finite here
    return float(0.5 * (m + M))


def _settings(C, tol, max_iter):
    """C, tol and max_iter as Python numbers, once each is a valid setting."""
    # C = inf turns the 1e-8 * max(1, C) equality tolerances into inf
    C_real = _as_real(C)
    if C_real is None or C_real <= 0:
        raise ValueError(f"C must be a finite number > 0, got {C}")
    # tol <= 0 or nan never meets the stopping test; tol = inf stops at once
    tol_real = _as_real(tol)
    if tol_real is None or tol_real <= 0:
        raise ValueError(f"tol must be a finite number > 0, got {tol}")
    iters = _integer(max_iter, "max_iter")
    if iters < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    return C_real, tol_real, iters


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
    C, tol, max_iter = _settings(C, tol, max_iter)
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
    """`smo_train` on a Gram, +/-1 labels and settings that have passed its checks.

    A principal block of a checked Gram passes the same elementwise
    symmetry test, so `train_multiclass` fits its pairs here without
    scanning every block again. alpha0 is checked here. rows[k] is
    the training-set position of row k of K, which the model's support
    indices name.
    """
    if alpha0 is not None:
        alpha0 = np.asarray(alpha0, dtype=np.float64)
        if alpha0.shape != y.shape:
            raise ShapeError("alpha0 must be a vector matching the gram size")
        # NaN fails this test, so a NaN start cannot run SMO to max_iter
        if not ((alpha0 >= 0.0) & (alpha0 <= C)).all():
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


def _integer_labels(values, name: str) -> np.ndarray:
    """values as an integer array; integer-valued floats are converted."""
    arr = np.asarray(values)
    if arr.dtype.kind in "iu":
        return arr
    flat = arr.ravel()
    if arr.dtype.kind == "f":
        # NaN and inf fail the bound
        ok = (np.abs(flat) < 2.0**63) & (flat == np.trunc(flat))
        if ok.all():
            return arr.astype(np.int64)
        flat = flat[~ok]
    raise ValueError(f"{name} must be integers, got {flat[:3].tolist()}")


def _frozen(K: np.ndarray) -> bool:
    """True for a read-only array that owns its data.

    A writeable view taken before the array was marked read-only can still
    write to it; split reuse trusts that no such view is kept.
    """
    return not K.flags.writeable and K.base is None


def _checked_split(gram, labels, label_set):
    """(checked Gram, its _Split): every check that `train_multiclass` runs on its inputs."""
    K = _check_gram(gram)
    lab = _integer_labels(labels, "labels")
    if lab.shape != (K.shape[0],):
        raise ShapeError("labels must be a vector matching the gram size")
    given = None if label_set is None else _integer_labels(label_set, "label_set")
    present, counts = np.unique(lab, return_counts=True)
    full = present if given is None else np.unique(given)
    stray = sorted(set(present.tolist()) - set(full.tolist()))
    if stray:
        raise ValueError(f"labels {stray} are not in label_set {full.tolist()}")
    if full.size < 2:
        raise DegenerateProblemError("need at least two classes")

    # argmax takes the first of tied counts: the smallest label
    majority = int(present[np.argmax(counts)])
    have = set(present.tolist())
    pairs = []
    for a, b in combinations(full.tolist(), 2):
        if a in have and b in have:
            idx = np.flatnonzero((lab == a) | (lab == b))
            pairs.append(((a, b), idx, np.where(lab[idx] == a, 1.0, -1.0)))
        else:
            pairs.append(ConstantVote(label=majority, class_pair=(a, b)))
    split = _Split(gram=weakref.ref(K) if _frozen(K) else None, labels=lab.copy(),
                   label_set=None if given is None else given.copy(),
                   classes=tuple(int(c) for c in full), pairs=tuple(pairs))
    return K, split


def _reused_split(gram, labels, label_set, warm_start):
    """warm_start's split if it holds for these inputs, else None.

    It holds if it was built from this very array, which is still read-only
    and owns its data, and the labels and label_set are equal.
    """
    split = None if warm_start is None else warm_start._split
    if split is None or split.gram is None or split.gram() is not gram or not _frozen(gram):
        return None
    same_labels = np.array_equal(_integer_labels(labels, "labels"), split.labels)
    if label_set is None or split.label_set is None:
        same_set = label_set is None and split.label_set is None
    else:
        same_set = np.array_equal(_integer_labels(label_set, "label_set"), split.label_set)
    return split if same_labels and same_set else None


def train_multiclass(gram, labels, C: float, tol: float = 1e-3,
                     max_iter: int = 10_000_000, label_set=None,
                     warm_start: Optional[MultiClassModel] = None) -> MultiClassModel:
    """Train one-vs-one binary models for every unordered label pair.

    labels and label_set hold integers; integer-valued floats count as
    integers. label_set widens the pair list beyond the labels present in
    this training split; pairs involving an absent class fall back to a
    constant vote for the majority training class (and are logged). The
    smaller label of each pair is mapped to +1.

    warm_start is a model trained earlier on the same gram and labels.
    Each pair whose model there is a DualModel with C no larger than this
    C starts SMO from that model's alphas; any other pair starts at zero.
    If warm_start was trained on this very read-only array (one that owns
    its data) with equal labels and label_set, its checked split is reused:
    the Gram is not scanned again. Any other call checks everything.
    """
    C, tol, max_iter = _settings(C, tol, max_iter)
    split = _reused_split(gram, labels, label_set, warm_start)
    if split is None:
        K, split = _checked_split(gram, labels, label_set)
    else:
        K = gram
    seeds = {}
    if warm_start is not None:
        if warm_start.n_train != K.shape[0]:
            raise ShapeError("warm_start was trained on a gram of another size")
        seeds = {m.class_pair: m for m in warm_start.models}

    models = []
    for pair in split.pairs:
        if isinstance(pair, ConstantVote):
            log.info("pair (%s, %s): class missing from training split, "
                     "voting constant %s", *pair.class_pair, pair.label)
            models.append(pair)
            continue
        (a, b), idx, y = pair
        # the same bits as K[np.ix_(idx, idx)], at a third of its cost
        sub = K.take(idx, 0).take(idx, 1)
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
    return MultiClassModel(models=tuple(models), labels=split.classes,
                           n_train=K.shape[0], _split=split)


def _check_cross(cross) -> np.ndarray:
    X = np.asarray(cross, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeError("cross kernel block must be 2-D (test x train)")
    # a NaN decision value would vote for the second label of its pair
    if not np.isfinite(X).all():
        raise ValueError("cross kernel block must be finite")
    return X


def _decision(model: DualModel, X) -> np.ndarray:
    return X[:, model.support_indices] @ model.alphas + model.bias


def decision_function(model: DualModel, cross) -> np.ndarray:
    """Decision values for test rows of a rectangular, finite kernel block."""
    return _decision(model, _check_cross(cross))


def predict(model: MultiClassModel, cross) -> np.ndarray:
    """Majority vote over pair models; ties go to the smallest label.

    cross holds finite kernel values between test rows and all training
    points, so pair decisions are sign(sum alphas_i K(test, i) + bias), with
    zero counted for the smaller label of the pair.
    """
    X = _check_cross(cross)
    if X.shape[1] != model.n_train:
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
        wins_a = _decision(pair_model, X) >= 0.0
        votes[:, col[a]] += wins_a
        votes[:, col[b]] += ~wins_a
    # labels are sorted ascending, so argmax resolves ties to the smallest
    winners = np.argmax(votes, axis=1)
    return np.asarray(labels, dtype=np.int64)[winners]
