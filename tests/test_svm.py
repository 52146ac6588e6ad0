import pickle
import warnings

import numpy as np
import pytest

from rntk import ShapeError, svm
from rntk.svm import (
    ConstantVote,
    ConvergenceError,
    DegenerateProblemError,
    DualModel,
    MultiClassModel,
    decision_function,
    predict,
    smo_train,
    train_multiclass,
)
from svm_reference import dual_objective, projected_gradient_reference, reference_smo_loop


def rbf_gram(X, gamma=0.5):
    sq = ((X[:, None, :] - X[None, :, :]) ** 2).sum(-1)
    return np.exp(-gamma * sq)


def random_problem(seed, n=30):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 3))
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    if np.all(labels == labels[0]):
        labels[0] = -labels[0]
    return rbf_gram(X), labels


def unsigned_alphas(model, n):
    full = np.zeros(n)
    full[model.support_indices] = np.abs(model.alphas)
    return full


def test_two_point_identity_hand_solution():
    gram = np.eye(2)
    model = smo_train(gram, [1.0, -1.0], C=1e6)
    assert list(model.support_indices) == [0, 1]
    assert np.allclose(model.alphas, [1.0, -1.0], atol=1e-9)
    assert abs(model.bias) < 1e-9


def test_separable_data_full_training_accuracy():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((20, 2))
    X[:10] += 6.0
    labels = np.array([0] * 10 + [1] * 10)
    gram = X @ X.T
    model = train_multiclass(gram, labels, C=1e6)
    pred = predict(model, gram)
    assert np.array_equal(pred, labels)
    # a duplicated training point keeps its class
    dup = predict(model, gram[4:5])
    assert dup[0] == labels[4]


def test_kkt_residuals_within_tol():
    tol = 1e-3
    for seed, C in [(11, 1.0), (12, 100.0), (13, 1e4)]:
        gram, y = random_problem(seed)
        model = smo_train(gram, y, C=C, tol=tol)
        alpha = unsigned_alphas(model, len(y))
        assert np.all(alpha <= C * (1 + 1e-12))
        dec = gram[:, model.support_indices] @ model.alphas + model.bias
        margin = y * dec
        at_zero = alpha <= 0.0
        at_cap = alpha >= C
        free = ~at_zero & ~at_cap
        assert np.all(margin[at_zero] >= 1.0 - tol)
        assert np.all(margin[at_cap] <= 1.0 + tol)
        assert np.all(np.abs(margin[free] - 1.0) <= tol)
        assert abs(float(model.alphas.sum())) < 1e-8


def test_objective_matches_projected_gradient():
    for seed in range(21, 26):
        gram, y = random_problem(seed)
        C = 10.0 if seed % 2 else 1.0
        model = smo_train(gram, y, C=C, tol=1e-8)
        obj_smo = dual_objective(gram, y, unsigned_alphas(model, len(y)))
        _, obj_ref = projected_gradient_reference(gram, y, C=C, tol=1e-10)
        assert abs(obj_smo - obj_ref) <= 1e-6 * max(1.0, abs(obj_ref))


def test_projected_gradient_two_point():
    alpha, obj = projected_gradient_reference(np.eye(2), [1.0, -1.0], C=10.0)
    assert np.allclose(alpha, [1.0, 1.0], atol=1e-8)
    assert abs(obj - (-1.0)) < 1e-8


def test_scale_sanity():
    gram, y = random_problem(31)
    s = 7.3
    a = smo_train(gram, y, C=10.0, tol=1e-6)
    b = smo_train(s * gram, y, C=10.0 / s, tol=1e-6)
    dec_a = gram[:, a.support_indices] @ a.alphas + a.bias
    dec_b = (s * gram)[:, b.support_indices] @ b.alphas + b.bias
    assert np.array_equal(np.sign(dec_a), np.sign(dec_b))


def test_single_class_raises():
    with pytest.raises(DegenerateProblemError):
        smo_train(np.eye(3), [1.0, 1.0, 1.0], C=1.0)
    with pytest.raises(DegenerateProblemError):
        train_multiclass(np.eye(3), [5, 5, 5], C=1.0)


def test_input_validation():
    with pytest.raises(ShapeError):
        smo_train(np.ones((2, 3)), [1.0, -1.0], C=1.0)
    asym = np.array([[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(ShapeError):
        smo_train(asym, [1.0, -1.0], C=1.0)
    with pytest.raises(ValueError):
        smo_train(np.eye(2), [1.0, 2.0], C=1.0)
    with pytest.raises(ValueError):
        smo_train(np.eye(2), [1.0, -1.0], C=0.0)
    with pytest.raises(ShapeError):
        smo_train(np.eye(2), [1.0, -1.0, 1.0], C=1.0)
    with pytest.raises(ShapeError, match="labels must be a vector"):
        train_multiclass(np.eye(2), [0, 1, 0], C=1.0)
    # asymmetry inside the roundoff tolerance is accepted
    near = np.array([[1.0, 0.5], [0.5 + 1e-14, 1.0]])
    assert isinstance(smo_train(near, [1.0, -1.0], C=1.0), DualModel)
    # a starting point must be feasible for this C
    with pytest.raises(ValueError, match="box"):
        smo_train(np.eye(2), [1.0, -1.0], C=1.0, alpha0=[2.0, 2.0])
    with pytest.raises(ValueError, match="equality"):
        smo_train(np.eye(2), [1.0, -1.0], C=1.0, alpha0=[0.5, 0.0])
    with pytest.raises(ShapeError):
        smo_train(np.eye(2), [1.0, -1.0], C=1.0, alpha0=[0.5, 0.5, 0.0])


def test_bad_solver_settings_rejected_before_iterating():
    # tol <= 0 or nan never meets the stopping test and runs to max_iter;
    # tol = inf stops before the first step
    gram, y = random_problem(51)
    # a flag is not a tolerance; every pair a constant vote still checks it
    for tol in (-1.0, 0.0, float("nan"), float("inf"), True, "0.1"):
        with pytest.raises(ValueError, match="tol must be a finite number > 0"):
            smo_train(gram, y, C=1.0, tol=tol, max_iter=1000)
        with pytest.raises(ValueError, match="tol must be a finite number > 0"):
            train_multiclass(gram, (y > 0).astype(int), C=1.0, tol=tol, max_iter=1000)
        with pytest.raises(ValueError, match="tol must be a finite number > 0"):
            train_multiclass(np.eye(3), [0, 0, 0], C=1.0, tol=tol, label_set=[0, 1])
    for max_iter in (0, -5):
        with pytest.raises(ValueError, match="max_iter must be at least 1"):
            smo_train(gram, y, C=1.0, max_iter=max_iter)
        with pytest.raises(ValueError, match="max_iter must be at least 1"):
            train_multiclass(np.eye(3), [0, 0, 0], C=1.0, max_iter=max_iter,
                             label_set=[0, 1])
    for max_iter in (2.5, 1000.0, True):
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            smo_train(gram, y, C=1.0, max_iter=max_iter)
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            train_multiclass(gram, (y > 0).astype(int), C=1.0, max_iter=max_iter)
    a, b = smo_train(gram, y, C=1.0, max_iter=np.int64(1000)), smo_train(gram, y, C=1.0)
    assert np.array_equal(a.support_indices, b.support_indices) and a.bias == b.bias
    # numpy scalars are settings too, and train the same model bit for bit
    labels = (y > 0).astype(int)
    for fit in (lambda **s: smo_train(gram, y, **s),
                lambda **s: train_multiclass(gram, labels, **s).models[0]):
        a, b = fit(C=np.float64(1.0), tol=np.float64(1e-3)), fit(C=1.0, tol=1e-3)
        assert np.array_equal(a.support_indices, b.support_indices) and a.bias == b.bias
        assert np.array_equal(a.alphas, b.alphas) and a.C == b.C


def test_non_finite_gram_and_infinite_C_rejected_before_iterating():
    # an inf entry ran SMO to max_iter and surfaced a bare LinAlgError, and a
    # NaN read as asymmetry; C = inf made the equality tolerances
    # 1e-8 * max(1, C) infinite
    gram, y = random_problem(53)
    labels = (y > 0).astype(int)
    for bad in (np.inf, -np.inf, np.nan):
        K = gram.copy()
        K[0, 1] = K[1, 0] = bad
        with pytest.raises(ValueError, match="gram must be finite"):
            smo_train(K, y, C=1.0, max_iter=1000)
        with pytest.raises(ValueError, match="gram must be finite"):
            train_multiclass(K, labels, C=1.0, max_iter=1000)
    # C = True trained with C == 1 and C = "1" raised a bare TypeError; with
    # every pair a constant vote, no C was checked at all
    for C in (np.inf, np.nan, 0.0, -1.0, True, "1", "x"):
        with pytest.raises(ValueError, match="C must be a finite number > 0"):
            smo_train(gram, y, C=C, max_iter=1000)
        with pytest.raises(ValueError, match="C must be a finite number > 0"):
            train_multiclass(gram, labels, C=C, max_iter=1000)
        with pytest.raises(ValueError, match="C must be a finite number > 0"):
            train_multiclass(np.eye(3), [0, 0, 0], C=C, label_set=[0, 1])


def test_labels_outside_label_set_rejected():
    labels = np.array([0, 0, 1, 1, 2, 2])
    with pytest.raises(ValueError, match=r"labels \[2\] are not in label_set \[0, 1\]"):
        train_multiclass(np.eye(6), labels, C=1.0, label_set=[0, 1])


def test_labels_must_be_integers():
    gram = np.eye(12)
    for labels in ([0.5] * 6 + [1.5] * 6, ["a"] * 6 + ["b"] * 6, [0] * 11 + [np.nan]):
        with pytest.raises(ValueError, match="labels must be integers"):
            train_multiclass(gram, labels, C=1.0)
    for label_set in ([0, 1, 2.5], ["0", "1"]):
        with pytest.raises(ValueError, match="label_set must be integers"):
            train_multiclass(gram, [0] * 6 + [1] * 6, C=1.0, label_set=label_set)
    # integer-valued floats are integers: pairs and labels agree, predict works
    model = train_multiclass(gram, [0.0] * 6 + [1.0] * 6, C=1.0, label_set=[0.0, 1.0])
    assert model.labels == (0, 1) and model.models[0].class_pair == (0, 1)
    assert predict(model, gram).tolist() == [0] * 6 + [1] * 6


def test_dual_model_invariants_enforced():
    with pytest.raises(ValueError):
        DualModel(support_indices=np.array([0, 1]), alphas=np.array([1.0, 1.0]),
                  bias=0.0, C=2.0, class_pair=(0, 1))
    with pytest.raises(ValueError):
        DualModel(support_indices=np.array([0]), alphas=np.array([5.0]),
                  bias=0.0, C=2.0, class_pair=(0, 1))
    # NaN passed both constraint tests; a NaN bias voted for each second label
    for alphas, bias in (([np.nan, np.nan], 0.0), ([1.0, -1.0], np.nan),
                         ([1.0, -1.0], np.inf)):
        with pytest.raises(ValueError):
            DualModel(support_indices=np.array([0, 1]), alphas=np.array(alphas),
                      bias=bias, C=2.0, class_pair=(0, 1))


def test_nan_warm_start_rejected_before_iterating(monkeypatch):
    # a NaN start passed the box test and ran SMO to max_iter
    def fail(*args, **kwargs):
        raise AssertionError("SMO ran")

    monkeypatch.setattr(svm, "_smo_loop", fail)
    gram, y = random_problem(52, n=4)
    for alpha0 in ([np.nan] * 4, [0.0, 0.0, np.nan, 0.0]):
        with pytest.raises(ValueError, match=r"alpha0 lies outside the box \[0, C\]"):
            smo_train(gram, y, C=1.0, alpha0=alpha0)


def test_zero_decision_maps_to_smaller_label():
    model = train_multiclass(np.eye(2), [0, 1], C=1e6)
    assert len(model.models) == 1
    # zero kernel overlap with every training point leaves only the bias,
    # which is 0 here, and the documented rule sends 0 to the smaller label
    pred = predict(model, np.zeros((3, 2)))
    assert np.array_equal(pred, [0, 0, 0])


def test_three_class_majority_and_tie():
    votes_majority = MultiClassModel(
        models=(ConstantVote(0, (0, 1)), ConstantVote(0, (0, 2)), ConstantVote(1, (1, 2))),
        labels=(0, 1, 2), n_train=4)
    assert np.array_equal(predict(votes_majority, np.zeros((2, 4))), [0, 0])
    cycle = MultiClassModel(
        models=(ConstantVote(0, (0, 1)), ConstantVote(2, (0, 2)), ConstantVote(1, (1, 2))),
        labels=(0, 1, 2), n_train=4)
    assert np.array_equal(predict(cycle, np.zeros((1, 4))), [0])


def test_three_class_training():
    rng = np.random.default_rng(41)
    centers = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]])
    X = np.vstack([rng.standard_normal((8, 2)) + c for c in centers])
    labels = np.repeat([0, 1, 2], 8)
    gram = rbf_gram(X, gamma=0.1)
    model = train_multiclass(gram, labels, C=100.0)
    assert len(model.models) == 3 and model.labels == (0, 1, 2)
    assert np.array_equal(predict(model, gram), labels)


def test_pair_fits_skip_the_sub_gram_check(monkeypatch):
    # the full Gram is checked once; each pair fit still equals smo_train
    # (which checks its block again) on the pair's principal block
    rng = np.random.default_rng(43)
    X = rng.standard_normal((24, 2))
    labels = np.repeat([0, 1, 2], 8)
    X += labels[:, None] * 1.5
    gram = rbf_gram(X)
    checked = []
    inner = svm._check_gram
    monkeypatch.setattr(svm, "_check_gram", lambda g: checked.append(g.shape) or inner(g))
    model = train_multiclass(gram, labels, C=1.0)
    assert checked == [(24, 24)]
    for pair in model.models:
        a, b = pair.class_pair
        idx = np.flatnonzero((labels == a) | (labels == b))
        y = np.where(labels[idx] == a, 1.0, -1.0)
        ref = smo_train(gram[np.ix_(idx, idx)], y, C=1.0, class_pair=(a, b))
        assert checked[-1] == (16, 16)
        assert np.array_equal(idx[ref.support_indices], pair.support_indices)
        assert np.array_equal(ref.alphas, pair.alphas)
        assert ref.bias == pair.bias


def test_each_pair_model_is_built_once(monkeypatch):
    # one DualModel (and one run of its checks) per pair fit, already on
    # training-set indices; the pair with an absent class votes constant
    rng = np.random.default_rng(44)
    X = rng.standard_normal((24, 2))
    labels = np.repeat([0, 1, 2], 8)
    X += labels[:, None] * 1.5
    built = []
    inner = DualModel.__post_init__
    monkeypatch.setattr(DualModel, "__post_init__",
                        lambda self: built.append(self.class_pair) or inner(self))
    model = train_multiclass(rbf_gram(X), labels, C=1.0, label_set=[0, 1, 2, 3])
    fitted = [m.class_pair for m in model.models if isinstance(m, DualModel)]
    assert fitted == [(0, 1), (0, 2), (1, 2)]
    assert built == fitted


def test_missing_class_becomes_constant_vote(caplog):
    gram = np.eye(5)
    labels = np.array([0, 0, 0, 1, 1])
    with caplog.at_level("INFO", logger="rntk.svm"):
        model = train_multiclass(gram, labels, C=1.0, label_set=[0, 1, 2])
    kinds = [type(m).__name__ for m in model.models]
    assert kinds == ["DualModel", "ConstantVote", "ConstantVote"]
    assert model.models[1].label == 0 and model.models[2].label == 0
    assert "missing" in caplog.text
    pred = predict(model, np.eye(5))
    assert set(pred.tolist()) <= {0, 1}


def test_predict_column_mismatch():
    model = train_multiclass(np.eye(2), [0, 1], C=1.0)
    with pytest.raises(ShapeError):
        predict(model, np.zeros((2, 3)))
    with pytest.raises(ShapeError, match="must be 2-D"):
        predict(model, np.zeros(2))


def test_predict_refuses_non_finite_cross_blocks():
    # a NaN cross block was voted on as if every decision were negative
    model = train_multiclass(np.eye(4), [0, 0, 1, 1], C=1.0)
    for bad in (np.nan, np.inf):
        cross = np.zeros((2, 4))
        cross[1, 3] = bad
        with pytest.raises(ValueError, match="cross kernel block must be finite"):
            predict(model, cross)
        with pytest.raises(ValueError, match="cross kernel block must be finite"):
            decision_function(model.models[0], cross)
    assert predict(model, np.eye(4)).tolist() == [0, 0, 1, 1]


def test_convergence_error_without_warning():
    gram, y = random_problem(51)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError):
            smo_train(gram, y, C=100.0, tol=1e-12, max_iter=2)


def test_indefinite_gram_warns_on_stall(caplog):
    rng = np.random.default_rng(53)
    A = rng.standard_normal((10, 10))
    K = 0.5 * (A + A.T)
    y = np.array([1.0, -1.0] * 5)
    assert np.linalg.eigvalsh(K)[0] < -1.0
    with caplog.at_level("WARNING", logger="rntk.svm"):
        with pytest.warns(RuntimeWarning, match="not PSD"):
            with pytest.raises(ConvergenceError):
                smo_train(K, y, C=1.0, tol=1e-12, max_iter=1)
    # the jitter retry is logged as well as warned
    records = [r for r in caplog.records if r.name == "rntk.svm"]
    assert [r.levelname for r in records] == ["WARNING"]
    assert "not PSD" in records[0].getMessage()
    assert "diagonal jitter" in records[0].getMessage()


def test_slightly_indefinite_gram_accepted_silently():
    gram, y = random_problem(55, n=12)
    lam = np.linalg.eigvalsh(gram)[0]
    shifted = gram - (lam + 1e-9) * np.eye(12)
    assert np.linalg.eigvalsh(shifted)[0] < 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = smo_train(shifted, y, C=1.0)
    assert isinstance(model, DualModel)


def test_decision_function_matches_manual():
    gram, y = random_problem(57)
    model = smo_train(gram, y, C=1.0)
    manual = gram[:3][:, model.support_indices] @ model.alphas + model.bias
    assert np.allclose(decision_function(model, gram[:3]), manual)


def kkt_gap(gram, y, alpha, C):
    """m - M of the dual at alpha, from a gradient computed afresh."""
    F = -y * ((gram * np.outer(y, y)) @ alpha - 1.0)
    up = ((y > 0) & (alpha < C)) | ((y < 0) & (alpha > 0))
    low = ((y > 0) & (alpha > 0)) | ((y < 0) & (alpha < C))
    return float(F[up].max() - F[low].min())


def record_seeds(monkeypatch):
    """Make train_multiclass report whether each pair fit got a start point."""
    seeded = []
    inner = svm._fit_pair

    def spy(K, y, C, tol, max_iter, class_pair, alpha0, rows):
        seeded.append(alpha0 is not None)
        return inner(K, y, C, tol, max_iter, class_pair, alpha0, rows)

    monkeypatch.setattr(svm, "_fit_pair", spy)
    return seeded


def test_lean_loop_matches_reference_bit_for_bit():
    for seed in range(61, 67):
        gram, y = random_problem(seed, n=40)
        for C in (0.05, 1.0, 50.0):
            ref = reference_smo_loop(gram, y, C, 1e-3, 100_000)
            alpha, bias, iters, converged = svm._smo_loop(gram, y, C, 1e-3, 100_000)
            # some alphas sit at C, so the clipped steps are exercised
            assert np.any(ref[0] == C)
            assert converged and ref[3]
            assert np.array_equal(alpha, ref[0])
            assert bias == ref[1] and iters == ref[2]


def pair_problem(model, pair, gram, labels):
    """The binary subproblem of one pair model and its unsigned alphas."""
    a, b = pair.class_pair
    idx = np.flatnonzero((labels == a) | (labels == b))
    y = np.where(labels[idx] == a, 1.0, -1.0)
    alpha = np.zeros(idx.size)
    pos = np.searchsorted(idx, pair.support_indices)
    alpha[pos] = np.abs(pair.alphas)
    return gram[np.ix_(idx, idx)], y, alpha


def test_warm_started_c_path_matches_reference(monkeypatch):
    rng = np.random.default_rng(71)
    X = rng.standard_normal((30, 3))
    labels = np.repeat([0, 1, 2], 10)
    X += labels[:, None] * 0.8
    gram = rbf_gram(X)
    tol = 1e-8
    seeded = record_seeds(monkeypatch)
    model = None
    # from every alpha at the bound to a few free ones
    for C in (0.1, 0.3, 1.0, 3.0):
        model = train_multiclass(gram, labels, C=C, tol=tol, warm_start=model)
        for pair in model.models:
            sub, y, alpha = pair_problem(model, pair, gram, labels)
            obj = dual_objective(sub, y, alpha)
            _, obj_ref = projected_gradient_reference(sub, y, C=C, tol=1e-10)
            assert abs(obj - obj_ref) <= 1e-6 * max(1.0, abs(obj_ref))
            assert kkt_gap(sub, y, alpha, C) <= tol
    # the first C starts cold, every later one from the previous solution
    assert seeded == [False] * 3 + [True] * 9


def test_warm_start_without_bound_alphas_keeps_the_solution(monkeypatch):
    rng = np.random.default_rng(73)
    X = rng.standard_normal((24, 2)) * 0.4
    labels = np.arange(24) % 2
    X[:, 0] += np.where(labels == 0, 3.0, -3.0)
    gram = rbf_gram(X, gamma=0.2)
    first = train_multiclass(gram, labels, C=1e4)
    assert np.abs(first.models[0].alphas).max() < 1e4
    seeded = record_seeds(monkeypatch)
    second = train_multiclass(gram, labels, C=1e6, warm_start=first)
    assert seeded == [True]
    old, new = first.models[0], second.models[0]
    assert np.array_equal(new.support_indices, old.support_indices)
    assert np.array_equal(new.alphas, old.alphas)
    # the start recomputes the gradient, so the bias matches to roundoff
    assert new.bias == pytest.approx(old.bias, rel=1e-12, abs=1e-12)
    assert new.C == 1e6


def test_warm_start_from_larger_c_is_ignored(monkeypatch):
    rng = np.random.default_rng(75)
    X = rng.standard_normal((30, 3))
    labels = np.repeat([0, 1, 2], 10)
    gram = rbf_gram(X)
    larger = train_multiclass(gram, labels, C=10.0)
    seeded = record_seeds(monkeypatch)
    warm = train_multiclass(gram, labels, C=1.0, warm_start=larger)
    assert seeded == [False] * 3
    cold = train_multiclass(gram, labels, C=1.0)
    for w, c in zip(warm.models, cold.models):
        assert np.array_equal(w.support_indices, c.support_indices)
        assert np.array_equal(w.alphas, c.alphas)
        assert w.bias == c.bias


def test_warm_start_from_another_problem_rejected():
    gram, y = random_problem(77, n=12)
    labels = (y > 0).astype(int)
    model = train_multiclass(gram, labels, C=1.0)
    with pytest.raises(ShapeError):
        train_multiclass(gram[:10, :10], labels[:10], C=2.0, warm_start=model)
    # the same rows with the classes swapped: the seed's signs do not fit
    with pytest.raises(ValueError, match="box"):
        train_multiclass(gram, 1 - labels, C=2.0, warm_start=model)
    # three classes: pair (0, 1) holds rows 0, 1, 3, 4, 6, 7, 9, 10; a seed
    # support vector past its last row (11) or between two of its rows (5)
    # belongs to another pair
    labels3 = np.arange(12) % 3
    model3 = train_multiclass(gram, labels3, C=1.0)
    assert model3.models[0].class_pair == (0, 1)
    for outside in (11, 5):
        seed = DualModel(support_indices=np.array([0, outside]),
                         alphas=np.array([0.5, -0.5]), bias=0.0, C=1.0,
                         class_pair=(0, 1))
        forged = MultiClassModel(models=(seed,) + model3.models[1:],
                                 labels=model3.labels, n_train=12)
        with pytest.raises(ValueError, match="outside the pair"):
            train_multiclass(gram, labels3, C=2.0, warm_start=forged)


def read_only_problem(seed=81):
    """A three-class Gram marked read-only, as the protocol hands them out."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((30, 3))
    labels = np.repeat([0, 1, 2], 10)
    X += labels[:, None] * 0.8
    gram = rbf_gram(X)
    gram.flags.writeable = False
    return gram, labels


def count_gram_checks(monkeypatch):
    checked = []
    inner = svm._check_gram
    monkeypatch.setattr(svm, "_check_gram", lambda g: checked.append(g.shape) or inner(g))
    return checked


def assert_same_models(a, b):
    """a and b hold the same pair models, bit for bit."""
    assert (a.labels, a.n_train, len(a.models)) == (b.labels, b.n_train, len(b.models))
    for x, y in zip(a.models, b.models):
        assert type(x) is type(y) and x.class_pair == y.class_pair
        if isinstance(x, ConstantVote):
            assert x == y
        else:
            assert np.array_equal(x.support_indices, y.support_indices)
            assert np.array_equal(x.alphas, y.alphas)
            assert x.bias == y.bias and x.C == y.C


def test_c_path_on_a_read_only_gram_checks_it_once(monkeypatch):
    gram, labels = read_only_problem()
    checked = count_gram_checks(monkeypatch)
    Cs, path, model = (0.1, 1.0, 10.0, 100.0), [], None
    # label 3 is absent, so one pair of every model is a constant vote
    for C in Cs:
        model = train_multiclass(gram, labels, C=C, label_set=[0, 1, 2, 3], warm_start=model)
        path.append(model)
    assert checked == [(30, 30)]
    # each model equals a call that runs every check (on a writeable copy)
    # from the same start
    for k, C in enumerate(Cs):
        fresh = train_multiclass(gram.copy(), labels, C=C, label_set=[0, 1, 2, 3],
                                 warm_start=path[k - 1] if k else None)
        assert_same_models(path[k], fresh)
    assert len(checked) == 1 + len(Cs)
    # the split is private state: it takes no part in equality or repr
    assert path[0] == MultiClassModel(models=path[0].models, labels=path[0].labels, n_train=30)
    assert "_split" not in repr(path[0])


def test_split_reuse_falls_back_to_every_check(monkeypatch):
    gram, labels = read_only_problem()
    first = train_multiclass(gram, labels, C=1.0, label_set=[0, 1, 2])
    swapped = labels.copy()
    swapped[[0, 10]] = swapped[[10, 0]]
    other = gram.copy()
    other.flags.writeable = False
    writeable = gram.copy()
    from_writeable = train_multiclass(writeable, labels, C=1.0, label_set=[0, 1, 2])
    forged = MultiClassModel(models=first.models, labels=first.labels, n_train=30)
    # a weak reference does not pickle: the model does, without it
    unpickled = pickle.loads(pickle.dumps(first))
    # C = 0.5 is below the seeds' C, so every call below starts cold
    cases = {
        "writeable gram": (writeable, labels, [0, 1, 2], from_writeable),
        "equal copy": (other, labels, [0, 1, 2], first),
        "other labels": (gram, swapped, [0, 1, 2], first),
        "other label_set": (gram, labels, [0, 1, 2, 3], first),
        "no label_set": (gram, labels, None, first),
        "forged model": (gram, labels, [0, 1, 2], forged),
        "unpickled model": (gram, labels, [0, 1, 2], unpickled),
    }
    checked = count_gram_checks(monkeypatch)
    reused = train_multiclass(gram, labels, C=0.5, label_set=[0, 1, 2], warm_start=first)
    assert checked == []
    assert_same_models(reused, train_multiclass(gram, labels, C=0.5, label_set=[0, 1, 2]))
    for case, (K, y, label_set, warm) in cases.items():
        del checked[:]
        model = train_multiclass(K, y, C=0.5, label_set=label_set, warm_start=warm)
        assert checked == [(30, 30)], case
        assert_same_models(model, train_multiclass(K.copy(), y, C=0.5, label_set=label_set))
    # a Gram made writeable again, or labels changed in place, are checked again
    gram.flags.writeable = True
    del checked[:]
    train_multiclass(gram, labels, C=0.5, label_set=[0, 1, 2], warm_start=first)
    assert checked == [(30, 30)]
    gram.flags.writeable = False
    labels[[0, 10]] = labels[[10, 0]]
    del checked[:]
    train_multiclass(gram, labels, C=0.5, label_set=[0, 1, 2], warm_start=first)
    assert checked == [(30, 30)]
