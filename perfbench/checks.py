"""Output checks of the benchmark, run outside the timed region.

Each check returns a list of failure messages; an empty list is a pass.
The checks recompute what they compare against from the definitions (the
scalar ``kernel_pair`` recursion, the SVM dual's KKT conditions, one-vs-one
voting, the protocol's reuse rule) instead of calling the code under test
a second time, so a fault in that code cannot hide itself.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats

from rntk.kernels import Arch, InputOrder, flip, kernel_pair
from rntk.svm import ConstantVote

# relative tolerance of gram against kernel_pair, as in tests/test_gram.py
ENTRY_RTOL = 1e-12
# roundoff band of a PSD Gram's smallest eigenvalue, as in tests/test_gram.py
PSD_FLOOR = 1e-8
# slack on the SVM tolerance for recomputing the gradient from scratch,
# relative to the largest |K| @ alpha term that enters it
KKT_ROUNDOFF = 1e-9
# family-wise false-alarm rate of the Monte Carlo check
ORACLE_ALPHA = 1e-4


def reference_entry(xi, xj, params, variant):
    """(ck, ntk) of one Gram entry from the scalar recursion."""

    def heads(a, b):
        out = kernel_pair(a, b, params)
        return (out.ck_avg, out.ntk_avg) if variant.pooled else (out.ck_last, out.ntk_last)

    if variant.bidirectional:
        ck_f, ntk_f = heads(xi, xj)
        ck_b, ntk_b = heads(flip(xi), flip(xj))
        return ck_f + ck_b, ntk_f + ntk_b
    if variant.input_order is InputOrder.FLIPPED:
        return heads(flip(xi), flip(xj))
    return heads(xi, xj)


def _close(value, ref, rtol=ENTRY_RTOL) -> bool:
    return abs(value - ref) <= max(rtol * abs(ref), rtol)


def gram_entry_failures(X, params, variant, ck, ntk, entries, label):
    """Sampled Gram entries against the scalar reference."""
    failures = []
    for i, j in entries:
        ck_ref, ntk_ref = reference_entry(X[i], X[j], params, variant)
        for kind, mat, ref in (("ck", ck, ck_ref), ("ntk", ntk, ntk_ref)):
            if not _close(float(mat[i, j]), ref):
                failures.append(f"{label} {kind}[{i},{j}] = {mat[i, j]!r}, "
                                f"kernel_pair gives {ref!r}")
    return failures


def symmetric_psd_failures(K, block, label):
    """Exact symmetry, and a principal sub-block PSD to the roundoff floor."""
    failures = []
    if not np.array_equal(K, K.T):
        failures.append(f"{label}: not exactly symmetric")
    sub = K[np.ix_(block, block)]
    floor = -PSD_FLOOR * float(np.trace(sub)) / len(block)
    lam = float(np.linalg.eigvalsh(sub)[0])
    if lam < floor:
        failures.append(f"{label}: sub-block eigenvalue {lam:.3e} below {floor:.3e}")
    return failures


def cross_row_failures(cross, K, rows, label):
    """Rows of a cross block against the matching rows of the full Gram."""
    expected = K[rows]
    bad = np.abs(cross - expected) > ENTRY_RTOL * np.maximum(np.abs(expected), 1.0)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        return [f"{label}: cross[{i},{j}] = {cross[i, j]!r}, "
                f"gram[{rows[i]},{j}] = {expected[i, j]!r} ({int(bad.sum())} differ)"]
    return []


def roundtrip_failures(written, read_back, label):
    """A write_gram -> read_gram round trip must return the same bits."""
    (mat, kind, variant), (mat2, kind2, variant2) = written, read_back
    failures = []
    if mat.shape != mat2.shape or mat.tobytes() != mat2.tobytes():
        failures.append(f"{label}: matrix read back differs from the one written")
    if (kind, variant) != (kind2, variant2):
        failures.append(f"{label}: header read back as {kind2}/{variant2}, "
                        f"written as {kind}/{variant}")
    return failures


def kkt_failures(K, labels, C, tol, model):
    """KKT gap m - M of every pair model, recomputed from its dual solution.

    For the pair (a, b), y is +1 on a and -1 on b, alpha_i = y_i * (signed
    coefficient), and with F = -y * (Q alpha - 1) the gap is the largest F
    over indices that can move up minus the smallest over those that can
    move down. SMO stops once its running copy of the gap is <= tol.
    """
    K = np.asarray(K, dtype=np.float64)
    labels = np.asarray(labels)
    failures = []
    for pair in model.models:
        if isinstance(pair, ConstantVote):
            continue
        a, b = pair.class_pair
        idx = np.flatnonzero((labels == a) | (labels == b))
        y = np.where(labels[idx] == a, 1.0, -1.0)
        alpha = np.zeros(idx.size)
        pos = np.searchsorted(idx, pair.support_indices)
        alpha[pos] = pair.alphas * y[pos]
        sub = K[np.ix_(idx, idx)]
        grad = y * (sub @ (y * alpha)) - 1.0
        F = -y * grad
        up = ((y > 0) & (alpha < C)) | ((y < 0) & (alpha > 0))
        low = ((y > 0) & (alpha > 0)) | ((y < 0) & (alpha < C))
        gap = float(F[up].max() - F[low].min())
        slack = KKT_ROUNDOFF * (1.0 + float((np.abs(sub) @ alpha).max()))
        if gap > tol + slack:
            failures.append(f"pair {a}/{b} at C={C:g}: KKT gap {gap:.3e} > "
                            f"tol {tol:g} + {slack:.1e}")
    return failures


def vote(model, cross):
    """One-vs-one prediction recomputed from the pair models' coefficients."""
    cross = np.asarray(cross, dtype=np.float64)
    labels = list(model.labels)
    votes = np.zeros((cross.shape[0], len(labels)), dtype=np.int64)
    for pair in model.models:
        if isinstance(pair, ConstantVote):
            votes[:, labels.index(pair.label)] += 1
            continue
        a, b = pair.class_pair
        w = np.zeros(cross.shape[1])
        w[pair.support_indices] = pair.alphas
        positive = cross @ w + pair.bias >= 0.0
        votes[:, labels.index(a)] += positive
        votes[:, labels.index(b)] += ~positive
    # ties go to the smallest label, and labels are ascending
    return np.asarray(labels)[np.argmax(votes, axis=1)]


def prediction_failures(model, cross, predicted):
    expected = vote(model, cross)
    wrong = np.flatnonzero(np.asarray(predicted) != expected)
    if wrong.size:
        return [f"predict differs from the recomputed vote on {wrong.size} rows "
                f"(first row {wrong[0]})"]
    return []


def accuracy_failures(result, labels):
    """Every method must beat the majority-class rate of its dataset."""
    majority = np.bincount(labels).max() / labels.size
    return [f"{result.dataset}/{method}: accuracy {acc:.4f} <= majority rate "
            f"{majority:.4f}"
            for method, acc in result.accuracies.items() if not acc > majority]


# variants whose Grams each method requests in the validation phase
_METHOD_VARIANTS = {
    "rnn": ("rnn",),
    "bi-rnn": ("bi-rnn",),
    "rnn-avg": ("rnn-avg",),
    "bi-rnn-avg": ("bi-rnn-avg",),
    "rnn-p": ("rnn", "rnn-flip", "rnn-avg", "rnn-avg-flip"),
}


def expected_gram_computations(grid, best_configs, n_folds) -> int:
    """Distinct (context, spec) pairs the protocol must compute.

    The validation context needs one Gram per distinct kernel spec in the
    grid; each fold needs one per distinct spec among the selected
    configurations. A spec is a config label without its selector and C.
    """
    variants = {v for m in grid.methods for v in _METHOD_VARIANTS.get(m, ())}
    validation = (len(variants) * len(grid.sigma_u_set) * len(grid.sigma_b_set)
                  * len(grid.L_set))
    validation += len(grid.rbf_gamma_scaled) * ("rbf" in grid.methods)
    validation += len(grid.poly_degrees) * ("poly" in grid.methods)
    specs = set()
    for labels in best_configs.values():
        for label in labels:
            drop = 2 if label.count("|") == 5 else 1  # RNN labels carry a selector
            specs.add(label.rsplit("|", drop)[0])
    return validation + n_folds * len(specs)


def pool(calls):
    """(mean, stderr, trials) of several estimates pooled into one sample.

    Each call gives the mean, standard error and trial count of its own
    sample; the pooled sample variance is rebuilt from those exactly.
    """
    n = sum(t for _, _, t in calls)
    mean = sum(m * t for m, _, t in calls) / n
    ss = sum((t - 1) * t * s * s + t * (m - mean) ** 2 for m, s, t in calls)
    return mean, math.sqrt(ss / (n - 1) / n), n


def oracle_failures(estimates, analytic, ck_sd):
    """Monte Carlo estimates against the analytic kernels.

    ``estimates`` maps an entry key to the (mean, stderr, trials) of every
    call that estimated it; the calls are pooled into one sample of all
    their trials. The statistic |mean - analytic| / stderr is held below
    the Student-t quantile with trials - 1 degrees of freedom, Bonferroni
    corrected over the entries checked. A CK trial is the product of two
    jointly Gaussian outputs, whose sample variance over a few trials is
    often far too small; its stderr is floored by the infinite-width value
    sqrt(k_xx' ** 2 + k_xx * k_x'x') / sqrt(trials) from ``ck_sd``.
    """
    failures = []
    for key, calls in estimates.items():
        mean, stderr, n = pool(calls)
        if key in ck_sd:
            stderr = max(stderr, ck_sd[key] / math.sqrt(n))
        threshold = stats.t.ppf(1.0 - ORACLE_ALPHA / (2 * len(estimates)), n - 1)
        score = abs(mean - analytic[key]) / stderr if stderr > 0 else math.inf
        if score > threshold:
            failures.append(f"{key}: |{mean:.6g} - {analytic[key]:.6g}| / "
                            f"{stderr:.3g} = {score:.1f} > {threshold:.1f}")
    return failures


def verify_cell_references(x, xp, params):
    """Analytic value per (arch, kind) and the CK standard deviation."""

    def kernels(a, b):
        fwd = kernel_pair(a, b, params)
        bwd = kernel_pair(flip(a), flip(b), params)
        return {
            (Arch.RNN, "ck"): fwd.ck_last, (Arch.RNN, "ntk"): fwd.ntk_last,
            (Arch.RNN_AVG, "ck"): fwd.ck_avg, (Arch.RNN_AVG, "ntk"): fwd.ntk_avg,
            (Arch.BI_RNN, "ck"): fwd.ck_last + bwd.ck_last,
            (Arch.BI_RNN, "ntk"): fwd.ntk_last + bwd.ntk_last,
            (Arch.BI_RNN_AVG, "ck"): fwd.ck_avg + bwd.ck_avg,
            (Arch.BI_RNN_AVG, "ntk"): fwd.ntk_avg + bwd.ntk_avg,
        }

    cross, left, right = kernels(x, xp), kernels(x, x), kernels(xp, xp)
    sd = {key: math.sqrt(cross[key] ** 2 + left[key] * right[key])
          for key in cross if key[1] == "ck"}
    return cross, sd
