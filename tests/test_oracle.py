import inspect
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from rntk import Arch, HyperParams, ShapeError, Variant, kernel_pair, oracle
from rntk.bench import sigma_v_for
from rntk.gram_io import variant_code, variant_from_code
from rntk.oracle import (
    RNNWeights,
    _backward_cols,
    _forward_cols,
    _LazyGaussian,
    _selectors,
    _suite_trial,
    _WorkingSet,
    analytic_suite,
    empirical_suite,
    sample_rnn,
)
from cross_head import empirical_cross_head
from dense_bptt import central_difference, flat_gradient, gradient_blocks, n_weights, readout
from lazy_completion import complete
from suite_reference import analytic_table, suite_trial_table

HP = HyperParams(sigma_u=0.5, sigma_b=0.1, sigma_v=0.9, depth_L=2)
HP1 = HyperParams(sigma_u=0.5, sigma_b=0.1, depth_L=1)

ALL_VARIANTS = [
    Variant.parse("rnn", "default"),
    Variant.parse("rnn", "flipped"),
    Variant.parse("rnn-avg", "default"),
    Variant.parse("rnn-avg", "flipped"),
    Variant.parse("bi-rnn", "default"),
    Variant.parse("bi-rnn-avg", "default"),
]


def test_sample_shapes():
    w = sample_rnn(HP, width=5, T=3, seed=0)
    assert len(w.W) == 2 and all(m.shape == (5, 5) for m in w.W)
    assert w.U[0].shape == (5, 1) and w.U[1].shape == (5, 5)
    assert all(b.shape == (5,) for b in w.b)
    assert w.V.shape == (3, 5)
    assert w.width == 5 and w.depth_L == 2 and w.T == 3


def test_sample_deterministic():
    a = sample_rnn(HP, width=7, T=4, seed=123)
    b = sample_rnn(HP, width=7, T=4, seed=123)
    c = sample_rnn(HP, width=7, T=4, seed=124)
    assert np.array_equal(a.W[0], b.W[0]) and np.array_equal(a.V, b.V)
    assert not np.array_equal(a.W[0], c.W[0])


def test_sample_statistics():
    w = sample_rnn(HP1, width=2000, T=2, seed=5)
    entries = w.W[0].ravel()
    assert abs(entries.mean()) < 4.0 / math.sqrt(entries.size)
    assert abs(entries.std() - 1.0) < 0.01
    other = sample_rnn(HP1, width=2000, T=2, seed=6).W[0].ravel()
    corr = np.corrcoef(entries, other)[0, 1]
    assert abs(corr) < 4.0 / math.sqrt(entries.size)


def test_sample_rejects_bad_sizes():
    with pytest.raises(ValueError):
        sample_rnn(HP, width=0, T=2)
    with pytest.raises(ValueError):
        sample_rnn(HP, width=4, T=0)


def test_forward_zero_input_zero_bias():
    params = HyperParams(sigma_u=0.5, sigma_b=0.0, depth_L=2)
    w = sample_rnn(params, width=6, T=4, seed=1)
    H, masks, heads = _forward_cols(w, params, np.zeros((4, 1)))
    assert np.all(H == 0.0) and not masks.any() and np.all(heads == 0.0)


def test_forward_initial_state_is_zero():
    w = sample_rnn(HP, width=6, T=3, seed=2)
    X = np.array([[0.3, 1.2], [-1.1, 0.4], [0.7, -0.9]])
    H, masks, heads = _forward_cols(w, HP, X)
    assert np.all(H[:, 0] == 0.0)
    assert H.shape == (2, 4, 6, 2) and masks.shape == (2, 3, 6, 2)
    assert heads.shape == (3, 2)


def test_forward_hand_unrolled_single_step():
    w = sample_rnn(HP1, width=3, T=1, seed=7)
    H, masks, heads = _forward_cols(w, HP1, np.array([[0.8]]))
    g = 0.5 * w.U[0][:, 0] * 0.8 + 0.1 * w.b[0]
    h = np.maximum(g, 0.0)
    f = (1.0 / math.sqrt(3)) * (w.V[0] @ h)
    assert np.array_equal(masks[0, 0, :, 0], g > 0)
    assert np.allclose(H[0, 1, :, 0], h, rtol=0, atol=1e-15)
    assert abs(heads[0, 0] - f) < 1e-15


def test_forward_hand_unrolled_two_steps_two_layers():
    n = 4
    w = sample_rnn(HP, width=n, T=2, seed=9)
    x = np.array([0.8, -0.5])
    sw, su, sb, sv = HP.sigma_w / 2.0, HP.sigma_u, HP.sigma_b, HP.sigma_v / 2.0
    g11 = su * w.U[0][:, 0] * x[0] + sb * w.b[0]
    h1 = np.maximum(g11, 0.0)
    h2 = np.maximum((su / 2.0) * (w.U[1] @ h1) + sb * w.b[1], 0.0)
    g12 = sw * (w.W[0] @ h1) + su * w.U[0][:, 0] * x[1] + sb * w.b[0]
    h12 = np.maximum(g12, 0.0)
    g22 = sw * (w.W[1] @ h2) + (su / 2.0) * (w.U[1] @ h12) + sb * w.b[1]
    h22 = np.maximum(g22, 0.0)
    want = np.array([sv * (w.V[0] @ h2), sv * (w.V[1] @ h22)])
    H, masks, heads = _forward_cols(w, HP, x[:, None])
    assert np.allclose(H[0, 1, :, 0], h1, atol=1e-15)
    assert np.allclose(H[1, 2, :, 0], h22, atol=1e-15)
    assert np.array_equal(masks[0, 0, :, 0], g11 > 0)
    assert np.array_equal(masks[0, 1, :, 0], g12 > 0)
    assert np.array_equal(masks[1, 1, :, 0], g22 > 0)
    assert np.allclose(heads[:, 0], want, atol=1e-15)
    assert abs(readout((w,), HP, x, Variant(Arch.RNN_AVG)) - want.sum()) < 1e-15


def _numeric_grad(nets, params, x, variant, step=1e-6):
    return np.array([central_difference(nets, params, x, variant, j, step)
                     for j in range(n_weights(nets))])


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.label)
def test_gradient_matches_finite_differences(variant):
    params = HyperParams(sigma_u=0.5, sigma_b=0.1, sigma_v=0.8, depth_L=2)
    rng = np.random.default_rng(31)
    x = rng.standard_normal(3)
    nets = (sample_rnn(params, width=5, T=3, seed=32),)
    if variant.bidirectional:
        nets += (sample_rnn(params, width=5, T=3, seed=33),)
    grad = flat_gradient(nets, params, x, variant)
    fd = _numeric_grad(nets, params, x, variant)
    denom = max(np.linalg.norm(fd), 1e-12)
    assert np.linalg.norm(grad - fd) / denom < 1e-7


def test_gradient_depth_one_finite_differences():
    params = HyperParams(sigma_u=0.25, sigma_b=0.001, depth_L=1)
    x = np.array([1.5, -0.7])
    w = sample_rnn(params, width=4, T=2, seed=41)
    grad = flat_gradient((w,), params, x, Variant(Arch.RNN_AVG))
    fd = _numeric_grad((w,), params, x, Variant(Arch.RNN_AVG))
    assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1e-7


def test_gradient_unused_heads_are_zero():
    w = sample_rnn(HP, width=4, T=3, seed=51)
    x = np.array([0.4, -0.9, 0.2])
    gV = gradient_blocks(w, HP, x, pooled=False)[3]
    # last-step readout never touches the earlier output heads
    assert np.all(gV[:2] == 0.0)
    assert np.any(gV[2] != 0.0)
    pooled_gV = gradient_blocks(w, HP, x, pooled=True)[3]
    assert np.all(np.any(pooled_gV != 0.0, axis=1))


def test_empirical_estimates_deterministic():
    x = np.array([0.6, -0.3, 0.1])
    xp = np.array([-0.2, 0.5, 0.9])
    a = empirical_suite(x, xp, HP, width=30, trials=8, seed=77)
    b = empirical_suite(x, xp, HP, width=30, trials=8, seed=77)
    assert a == b
    c = a[(Arch.RNN, "ntk")]
    assert c.trials == 8 and c.width == 30 and c.stderr > 0


def test_empirical_rejects_single_trial():
    x = np.array([0.6, -0.3])
    with pytest.raises(ValueError):
        empirical_suite(x, x, HP, width=10, trials=1)


def test_estimators_reject_nonpositive_width():
    x = np.array([0.6, -0.3])
    for width in (0, -3):
        with pytest.raises(ValueError, match="width must be positive"):
            empirical_suite(x, x, HP, width=width, trials=2)
        with pytest.raises(ValueError, match="width must be positive"):
            empirical_cross_head(x, x, HP, width=width, trials=2, head_a=0, head_b=1)
    with pytest.raises(ValueError, match="at least 2"):
        empirical_cross_head(x, x, HP, width=10, trials=1, head_a=0, head_b=1)


def test_counts_must_be_integers():
    # numpy rejected a fraction with an error naming no parameter
    x = np.array([0.6, -0.3])
    for bad in (2.5, 3.0, True):
        with pytest.raises(ValueError, match="width must be an integer"):
            empirical_suite(x, x, HP, width=bad, trials=2)
        with pytest.raises(ValueError, match="trials must be an integer"):
            empirical_suite(x, x, HP, width=10, trials=bad)
        with pytest.raises(ValueError, match="width must be an integer"):
            empirical_cross_head(x, x, HP, width=bad, trials=2, head_a=0, head_b=1)
        with pytest.raises(ValueError, match="width must be an integer"):
            sample_rnn(HP, width=bad, T=2)
        with pytest.raises(ValueError, match="T must be an integer"):
            sample_rnn(HP, width=4, T=bad)
    assert (empirical_suite(x, x, HP, width=np.int64(10), trials=np.int32(2), seed=3)
            == empirical_suite(x, x, HP, width=10, trials=2, seed=3))
    assert (empirical_cross_head(x, x, HP, width=10, trials=2, head_a=np.int64(1), head_b=0)
            == empirical_cross_head(x, x, HP, width=10, trials=2, head_a=1, head_b=0))


def test_suite_is_the_only_estimate_route():
    import rntk

    import rntk.oracle

    for name in ("empirical_ck", "empirical_ntk", "compose_bidirectional"):
        assert not hasattr(rntk, name), name
    # the cross-head statistics are a test helper (tests/cross_head.py)
    assert not hasattr(rntk, "empirical_cross_head")
    assert not hasattr(rntk.oracle, "empirical_cross_head")
    assert "empirical_cross_head" not in rntk.__all__
    # the dense forward/gradient route: BPTT runs only through
    # _forward_cols and _backward_cols
    for name in ("forward", "ForwardTrace", "gradient", "_gradient_blocks",
                 "flatten_rnn", "unflatten_rnn", "_check_sequence"):
        assert not hasattr(rntk, name), name
        assert not hasattr(rntk.oracle, name), name
    assert "keep_g" not in inspect.signature(_forward_cols).parameters
    x = np.array([0.6, -0.3])
    with pytest.raises(TypeError):
        empirical_suite(x, x, HP, width=10, trials=2, need_bi=False)


def test_empirical_rejects_empty_sequences():
    empty = np.zeros(0)
    with pytest.raises(ShapeError, match="at least one time step"):
        empirical_suite(empty, empty, HP, width=10, trials=2)
    with pytest.raises(ShapeError, match="at least one time step"):
        empirical_cross_head(empty, empty, HP, width=10, trials=2, head_a=0, head_b=0)
    # unequal lengths and 2-D inputs fail the same shape check
    for x, xp in (([0.1, 0.2, 0.3], [0.1, 0.2]), ([[0.1, 0.2]], [[0.1, 0.2]])):
        with pytest.raises(ShapeError, match="1-D sequences of equal length"):
            empirical_suite(x, xp, HP, width=10, trials=2)


def test_oracle_names_non_finite_inputs():
    # the estimators died as "stderr must be nonnegative"
    ones = [1.0, 1.0]
    for bad in ([np.nan, 1.0], [np.inf, 1.0], [1.0, -np.inf]):
        with pytest.raises(ValueError, match="inputs must be finite"):
            empirical_suite(bad, ones, HP, width=10, trials=2)
        with pytest.raises(ValueError, match="inputs must be finite"):
            empirical_cross_head(ones, bad, HP, width=10, trials=2, head_a=0, head_b=1)
        with pytest.raises(ValueError, match="inputs must be finite"):
            analytic_suite(bad, ones, HP)


def test_oracle_refuses_overflowing_inputs():
    # an infinite query norm was answered as W v = 0, so these gave finite
    # estimates where analytic_suite overflows; at T = 1 only the estimate
    # itself overflows
    params = HyperParams()
    with np.errstate(over="ignore", invalid="ignore"):
        for big in (1e160, 1e300):
            for x in ([big, 1.0], [big]):
                ones = [1.0] * len(x)
                with pytest.raises(ValueError, match="overflowed"):
                    analytic_suite(x, ones, params)
                with pytest.raises(ValueError, match="overflowed"):
                    empirical_suite(x, ones, params, width=50, trials=3)
                with pytest.raises(ValueError, match="overflowed"):
                    empirical_cross_head(x, ones, params, width=50, trials=3,
                                         head_a=0, head_b=len(x) - 1)
    suite = empirical_suite([1e100, 1.0], [1.0, 1.0], params, width=50, trials=3)
    assert all(math.isfinite(e.mean) and math.isfinite(e.stderr) for e in suite.values())


def test_oracle_overflow_refusal_warns_nothing():
    # numpy warned of an overflow in the lazy draw's norm (T = 2) and in
    # the estimate's std (T = 1) before the named error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in ([1e160, 1.0], [1e160]):
            with pytest.raises(ValueError, match="overflowed"):
                empirical_suite(x, [1.0] * len(x), HyperParams(), width=50, trials=3)


def _completed(weights, rng):
    """Dense weights that agree with every answer a lazy draw has given."""
    def dense(m):
        return m if isinstance(m, np.ndarray) else complete(m, rng)
    return RNNWeights(W=[dense(w) for w in weights.W], U=[dense(u) for u in weights.U],
                      b=weights.b, V=weights.V)


def _lazy_run(params, width, seed, X, Csel):
    """A lazy draw queried as one estimator trial queries it."""
    work = _WorkingSet(params.depth_L, width, *X.shape, Csel.shape[1])
    lazy = work.draw(seed)
    H, masks, heads = _forward_cols(lazy, params, X, work)
    Delta = _backward_cols(lazy, params, H, masks, Csel, work)
    return lazy, (H, masks, heads, Delta)


@pytest.mark.parametrize("width", [7, 40])
@pytest.mark.parametrize("T", [1, 2, 5])
@pytest.mark.parametrize("L", [1, 2, 3])
def test_lazy_draw_matches_its_dense_completion(L, T, width):
    # at width 7 the queries outnumber the width; x == x' sends every
    # second column down the in-span branch
    params = HyperParams(sigma_u=0.5, sigma_b=0.1, sigma_v=0.9, depth_L=L)
    rng = np.random.default_rng((L, T, width))
    x, xp = rng.standard_normal(T), rng.standard_normal(T)
    Csel = _selectors(T)
    for X in (np.stack([x, xp], axis=1), np.stack([x, x], axis=1)):
        lazy, (H, masks, heads, Delta) = _lazy_run(params, width, (L, T, width), X, Csel)
        dense = _completed(lazy, rng)
        H2, masks2, heads2 = _forward_cols(dense, params, X)
        Delta2 = _backward_cols(dense, params, H2, masks2, Csel)
        assert np.array_equal(masks, masks2)
        for got, want in ((H, H2), (heads, heads2), (Delta, Delta2)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_lazy_draw_completes_to_iid_standard_normals():
    # adaptive queries on both sides, then a dense completion: over the
    # draws, the 9 entries must look like N(0, I_9)
    draws = 6000
    entries = np.empty((draws, 9))
    v0 = np.array([[1.0], [-0.5], [0.25]])
    for i, ss in enumerate(np.random.SeedSequence(2024).spawn(draws)):
        rng = np.random.default_rng(ss)
        op = _LazyGaussian(3, (3, 3))
        op.redraw(rng)
        a = op @ v0
        b = op.T @ (np.maximum(a, 0.0) + 0.1)
        c = op @ np.column_stack([b[:, 0], v0[:, 0]])
        op.T @ (c[:, :1] * a - b)
        entries[i] = complete(op, rng).ravel()
    se = 1.0 / math.sqrt(draws)
    assert np.abs(entries.mean(axis=0)).max() < 5.0 * se
    cov = np.cov(entries, rowvar=False)
    # Var(w_i w_j) is 1 off the diagonal and Var(w_i^2) is 2 on it
    cov_se = se * np.sqrt(1.0 + np.eye(9))
    assert np.abs((cov - np.eye(9)) / cov_se).max() < 5.0


def test_suite_crosscheck_structured_inner_vs_flat_gradients():
    # the blockwise NTK accumulation must equal an explicit gradient dot,
    # taken on the dense completion of each trial's lazy draws
    params = HyperParams(sigma_u=0.5, sigma_b=0.1, sigma_v=0.8, depth_L=2)
    x = np.array([0.7, -0.4, 0.2, 1.1])
    xp = np.array([-0.3, 0.9, 0.5, -0.8])
    seed = np.random.SeedSequence(91)
    suite = empirical_suite(x, xp, params, width=12, trials=2, seed=seed)
    x2 = np.stack([x, xp], axis=1)
    fill = np.random.default_rng(92)
    root = np.random.SeedSequence(91)
    totals = {arch: [] for arch, kind in suite if kind == "ntk"}
    for child in root.spawn(2):
        pair = child.spawn(2)
        # same seeds and queries as the suite trial, hence the same answers
        w1, w2 = (_completed(_lazy_run(params, 12, ss, X, _selectors(4))[0], fill)
                  for ss, X in zip(pair, (x2, x2[::-1].copy())))
        for arch in totals:
            variant = Variant(arch)
            nets = (w1, w2) if variant.bidirectional else (w1,)
            ga = flat_gradient(nets, params, x, variant)
            gb = flat_gradient(nets, params, xp, variant)
            totals[arch].append(float(ga @ gb))
    for arch, vals in totals.items():
        est = suite[(arch, "ntk")]
        assert abs(est.mean - np.mean(vals)) < 1e-12 * max(1.0, abs(est.mean))


def test_empirical_matches_analytic_small_scale():
    params = HyperParams(sigma_u=0.5, sigma_b=0.1, depth_L=1)
    x = np.array([0.9, -0.1, 0.6])
    xp = np.array([0.2, 0.8, -0.5])
    analytic = kernel_pair(x, xp, params)
    suite = empirical_suite(x, xp, params, width=600, trials=300, seed=101)
    checks = [
        ((Arch.RNN, "ck"), analytic.ck_last),
        ((Arch.RNN, "ntk"), analytic.ntk_last),
        ((Arch.RNN_AVG, "ck"), analytic.ck_avg),
        ((Arch.RNN_AVG, "ntk"), analytic.ntk_avg),
    ]
    for key, expected in checks:
        est = suite[key]
        # 5 stderr plus slack for the O(1/width) finite-size bias
        assert abs(est.mean - expected) < 5.0 * est.stderr + 0.02 * abs(expected)


def test_bidirectional_palindrome_doubles_ck():
    params = HyperParams(sigma_u=0.5, sigma_b=0.1, depth_L=1)
    x = np.array([0.4, 1.0, 0.4])
    analytic = kernel_pair(x, x, params)
    est = empirical_suite(x, x, params, width=600, trials=300, seed=103)[(Arch.BI_RNN, "ck")]
    assert abs(est.mean - 2.0 * analytic.ck_last) < 5.0 * est.stderr + 0.04 * analytic.ck_last


def test_cross_head_statistics_vanish():
    x = np.array([0.8, -0.6, 0.3, 0.5])
    xp = np.array([0.1, 0.9, -0.7, 0.4])
    prods, inners = empirical_cross_head(
        x, xp, HP1, width=400, trials=300, seed=111, head_a=1, head_b=3)
    assert abs(prods.mean) < 5.0 * prods.stderr
    assert abs(inners.mean) < 5.0 * inners.stderr


def test_cross_head_same_head_recovers_kernel():
    params = HyperParams(sigma_u=0.5, sigma_b=0.1, depth_L=1)
    x = np.array([0.9, -0.1, 0.6])
    xp = np.array([0.2, 0.8, -0.5])
    analytic = kernel_pair(x, xp, params)
    prods, inners = empirical_cross_head(
        x, xp, params, width=600, trials=300, seed=113, head_a=2, head_b=2)
    assert abs(prods.mean - analytic.ck_last) < 5.0 * prods.stderr + 0.02 * abs(analytic.ck_last)
    assert abs(inners.mean - analytic.ntk_last) < 5.0 * inners.stderr + 0.02 * abs(analytic.ntk_last)


def test_cross_head_holds_one_draw_at_a_time():
    # a lazy draw holds O(width * queries) entries, far below a dense
    # draw's width^2, and every trial draws into the same arrays
    params = HyperParams(sigma_u=0.5, sigma_b=0.1, depth_L=2)
    x = np.array([0.8, -0.6, 0.3, 0.5, -0.2])
    xp = np.array([0.1, 0.9, -0.7, 0.4, 0.6])
    draw = sample_rnn(params, 800, x.size, seed=0)
    draw_bytes = sum(a.nbytes for a in draw.W + draw.U + draw.b + [draw.V])
    del draw
    tracemalloc.start()
    try:
        empirical_cross_head(x, xp, params, width=800, trials=3, seed=131,
                             head_a=1, head_b=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < draw_bytes / 4, (peak, draw_bytes)


@pytest.mark.parametrize("width", [1000, 4000])
def test_suite_trial_holds_one_draws_working_set(width):
    # at most one draw's operator stores, sized once at the query budget,
    # plus one net's H, masks and Delta, plus a few width-long temporaries
    L, T, B, S = 2, 5, 2, 2
    params = HyperParams(sigma_u=0.5, sigma_b=0.1, depth_L=L)
    x = np.array([0.8, -0.6, 0.3, 0.5, -0.2])
    xp = np.array([0.1, 0.9, -0.7, 0.4, 0.6])
    operators = 2 * L - 1
    stores = operators * 2 * (min(T * B, width) + min(T * B * S, width)) * width * 8
    net = (L * (T + 1) * width * B + L * T * width * B * S) * 8 + L * T * width * B
    slack = 32 * width * 8
    # first calls allocate numpy's lasting caches outside the measured call
    empirical_suite(x, xp, params, width=8, trials=2, seed=0)
    tracemalloc.start()
    try:
        empirical_suite(x, xp, params, width=width, trials=2, seed=141)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= stores + net + slack, (peak, stores, net)


@pytest.mark.parametrize("width", [7, 30])
def test_one_working_set_serves_every_draw_of_an_estimate(width, monkeypatch):
    # at width 7 the operators' stores are capped below the query budget
    params = HyperParams(sigma_u=0.5, sigma_b=0.1, depth_L=2)
    x = np.array([0.8, -0.6, 0.3])
    xp = np.array([0.1, 0.9, -0.7])
    built, seen = [], []
    build, backward = oracle._WorkingSet, oracle._backward_cols

    def spied_build(*args):
        built.append(build(*args))
        return built[-1]

    def spied_backward(weights, params, H, masks, Csel, work):
        Delta = backward(weights, params, H, masks, Csel, work)
        stores = [a for op in weights.W + weights.U[1:] for a in op._dirs + op._images]
        seen.append([H, masks, Delta, weights.U[0], weights.V] + weights.b + stores)
        return Delta

    monkeypatch.setattr(oracle, "_WorkingSet", spied_build)
    monkeypatch.setattr(oracle, "_backward_cols", spied_backward)
    for trials in (2, 5):
        built.clear()
        seen.clear()
        suite = empirical_suite(x, xp, params, width=width, trials=trials, seed=9)
        # built once; every net of every trial draws into the same arrays
        assert len(built) == 1 and len(seen) == 2 * trials
        assert all(a is b for arrays in seen for a, b in zip(arrays, seen[0]))
    monkeypatch.undo()
    # the same bits as trials run one at a time, each in a fresh working set
    x2 = np.stack([x, xp], axis=1)
    rows = [_suite_trial(x2, params, width, child.spawn(2))
            for child in np.random.SeedSequence(9).spawn(5)]
    for key, est in suite.items():
        assert est == oracle._estimate(np.array([r[key] for r in rows]), width), key
    # and as the same call right after one of another depth, length and width
    empirical_suite(x[:2], xp[:2], HyperParams(depth_L=3), width=width + 3, trials=3)
    assert empirical_suite(x, xp, params, width=width, trials=5, seed=9) == suite


@pytest.mark.parametrize("T", [1, 2, 5])
@pytest.mark.parametrize("L", [1, 2, 3])
def test_suites_match_their_written_out_tables(L, T, monkeypatch):
    params = HyperParams(sigma_u=0.7, sigma_b=0.2, sigma_v=0.9, depth_L=L)
    rng = np.random.default_rng((L, T, 151))
    x, xp = rng.standard_normal(T), rng.standard_normal(T)
    nets, run_net = [], oracle._run_net

    def recorded(*args):
        nets.append(run_net(*args))
        return nets[-1]

    monkeypatch.setattr(oracle, "_run_net", recorded)
    trial = _suite_trial(np.stack([x, xp], axis=1), params, 7,
                         np.random.SeedSequence(151).spawn(2))
    assert len(nets) == 2
    assert trial == suite_trial_table(*nets)
    assert list(analytic_suite(x, xp, params).items()) == list(
        analytic_table(x, xp, params).items())


def test_every_architecture_is_wired_through():
    # an Arch member added without its gram_io code, sigma_v or suite
    # entries fails here
    x, xp = np.array([0.3, -0.5]), np.array([0.8, 0.1])
    analytic = analytic_suite(x, xp, HP)
    empirical = empirical_suite(x, xp, HP, width=8, trials=2)
    assert len(analytic) == len(empirical) == 2 * len(Arch)
    for arch in Arch:
        variant = Variant(arch)
        assert variant_from_code(variant_code(variant)) == variant
        assert 0.0 < sigma_v_for(variant, 3) <= 1.0
        for kind in ("ck", "ntk"):
            assert (arch, kind) in analytic and (arch, kind) in empirical


def test_suite_shares_forward_draws():
    # the first seed of a trial's pair draws the forward network, the
    # second the reversed one; only the bidirectional values read both
    x2 = np.array([[0.5, 0.3], [-0.5, 0.7]])
    first, second, other = np.random.SeedSequence(121).spawn(3)
    a = _suite_trial(x2, HP1, 40, (first, second))
    b = _suite_trial(x2, HP1, 40, (first, other))
    assert list(a) == list(b) and len(a) == 8
    for (arch, kind), value in a.items():
        if arch in (Arch.RNN, Arch.RNN_AVG):
            assert b[(arch, kind)] == value, (arch, kind)
        else:
            assert b[(arch, kind)] != value, (arch, kind)
