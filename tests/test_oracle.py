import math
import tracemalloc

import numpy as np
import pytest

from rntk import Arch, HyperParams, ShapeError, Variant, flip, kernel_pair
from rntk.oracle import (
    RNNWeights,
    _backward_cols,
    _forward_cols,
    _lazy_rnn,
    _LazyGaussian,
    _selectors,
    _suite_trial,
    empirical_cross_head,
    empirical_suite,
    flatten_rnn,
    forward,
    gradient,
    sample_rnn,
    unflatten_rnn,
)
from lazy_completion import complete

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
    trace = forward(w, params, np.zeros(4))
    assert np.all(trace.g == 0.0) and np.all(trace.h == 0.0)
    assert np.all(trace.heads == 0.0) and trace.output == 0.0


def test_forward_initial_state_is_zero():
    w = sample_rnn(HP, width=6, T=3, seed=2)
    trace = forward(w, HP, [0.3, -1.1, 0.7])
    assert np.all(trace.h[:, 0] == 0.0)
    assert trace.g.shape == (2, 3, 6) and trace.h.shape == (2, 4, 6)


def test_forward_hand_unrolled_single_step():
    w = sample_rnn(HP1, width=3, T=1, seed=7)
    x = np.array([0.8])
    trace = forward(w, HP1, x)
    g = 0.5 * w.U[0][:, 0] * 0.8 + 0.1 * w.b[0]
    h = np.maximum(g, 0.0)
    f = (1.0 / math.sqrt(3)) * (w.V[0] @ h)
    assert np.allclose(trace.g[0, 0], g, rtol=0, atol=1e-15)
    assert np.allclose(trace.h[0, 1], h, rtol=0, atol=1e-15)
    assert abs(trace.output - f) < 1e-15


def test_forward_hand_unrolled_two_steps_two_layers():
    n = 4
    w = sample_rnn(HP, width=n, T=2, seed=9)
    x = np.array([0.8, -0.5])
    sw, su, sb, sv = HP.sigma_w / 2.0, HP.sigma_u, HP.sigma_b, HP.sigma_v / 2.0
    h1 = np.maximum(su * w.U[0][:, 0] * x[0] + sb * w.b[0], 0.0)
    h2 = np.maximum((su / 2.0) * (w.U[1] @ h1) + sb * w.b[1], 0.0)
    g12 = sw * (w.W[0] @ h1) + su * w.U[0][:, 0] * x[1] + sb * w.b[0]
    h12 = np.maximum(g12, 0.0)
    h22 = np.maximum(sw * (w.W[1] @ h2) + (su / 2.0) * (w.U[1] @ h12) + sb * w.b[1], 0.0)
    heads = np.array([sv * (w.V[0] @ h2), sv * (w.V[1] @ h22)])
    trace = forward(w, HP, x, Variant(Arch.RNN_AVG))
    assert np.allclose(trace.h[0, 1], h1, atol=1e-15)
    assert np.allclose(trace.h[1, 2], h22, atol=1e-15)
    assert np.allclose(trace.heads, heads, atol=1e-15)
    assert abs(trace.output - heads.sum()) < 1e-15


def test_forward_flipped_order_matches_flipped_input():
    w = sample_rnn(HP, width=5, T=4, seed=11)
    x = np.array([0.2, -0.4, 1.3, 0.9])
    flipped = forward(w, HP, x, Variant.parse("rnn", "flipped"))
    direct = forward(w, HP, flip(x), Variant.parse("rnn", "default"))
    assert flipped.output == direct.output
    assert np.array_equal(flipped.heads, direct.heads)


def test_forward_bidirectional_combines_two_nets():
    w1 = sample_rnn(HP, width=5, T=3, seed=13)
    w2 = sample_rnn(HP, width=5, T=3, seed=14)
    x = np.array([0.5, -0.2, 0.8])
    bi = forward(w1, HP, x, Variant(Arch.BI_RNN), second_weights=w2)
    f1 = forward(w1, HP, x).output
    f2 = forward(w2, HP, flip(x)).output
    assert abs(bi.output - (f1 + f2)) < 1e-15
    assert bi.twin is not None
    with pytest.raises(ValueError):
        forward(w1, HP, x, Variant(Arch.BI_RNN))


def test_forward_rejects_bad_input():
    w = sample_rnn(HP, width=4, T=3, seed=0)
    with pytest.raises(ShapeError):
        forward(w, HP, [0.1, 0.2])
    with pytest.raises(ShapeError):
        forward(w, HP, [[0.1, 0.2, 0.3]])


def test_flatten_round_trip():
    w = sample_rnn(HP, width=4, T=3, seed=21)
    flat = flatten_rnn(w)
    expected = 2 * 16 + (4 + 16) + 2 * 4 + 3 * 4
    assert flat.shape == (expected,)
    back = unflatten_rnn(flat, w)
    assert np.array_equal(back.W[1], w.W[1])
    assert np.array_equal(back.U[0], w.U[0])
    assert np.array_equal(back.V, w.V)
    with pytest.raises(ShapeError):
        unflatten_rnn(flat[:-1], w)


def _value_at(flat, like1, like2, params, x, variant):
    if like2 is None:
        return forward(unflatten_rnn(flat, like1), params, x, variant).output
    n1 = flatten_rnn(like1).size
    w1 = unflatten_rnn(flat[:n1], like1)
    w2 = unflatten_rnn(flat[n1:], like2)
    return forward(w1, params, x, variant, second_weights=w2).output


def _numeric_grad(flat, like1, like2, params, x, variant, step=1e-6):
    out = np.empty_like(flat)
    for k in range(flat.size):
        bumped = flat.copy()
        bumped[k] = flat[k] + step
        up = _value_at(bumped, like1, like2, params, x, variant)
        bumped[k] = flat[k] - step
        down = _value_at(bumped, like1, like2, params, x, variant)
        out[k] = (up - down) / (2.0 * step)
    return out


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.label)
def test_gradient_matches_finite_differences(variant):
    params = HyperParams(sigma_u=0.5, sigma_b=0.1, sigma_v=0.8, depth_L=2)
    rng = np.random.default_rng(31)
    x = rng.standard_normal(3)
    w1 = sample_rnn(params, width=5, T=3, seed=32)
    w2 = sample_rnn(params, width=5, T=3, seed=33) if variant.bidirectional else None
    grad = gradient(w1, params, x, variant, second_weights=w2)
    flat = flatten_rnn(w1)
    if w2 is not None:
        flat = np.concatenate([flat, flatten_rnn(w2)])
    fd = _numeric_grad(flat, w1, w2, params, x, variant)
    denom = max(np.linalg.norm(fd), 1e-12)
    assert np.linalg.norm(grad - fd) / denom < 1e-7


def test_gradient_depth_one_finite_differences():
    params = HyperParams(sigma_u=0.25, sigma_b=0.001, depth_L=1)
    x = np.array([1.5, -0.7])
    w = sample_rnn(params, width=4, T=2, seed=41)
    grad = gradient(w, params, x, Variant(Arch.RNN_AVG))
    fd = _numeric_grad(flatten_rnn(w), w, None, params, x, Variant(Arch.RNN_AVG))
    assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1e-7


def test_gradient_unused_heads_are_zero():
    w = sample_rnn(HP, width=4, T=3, seed=51)
    x = np.array([0.4, -0.9, 0.2])
    grad = gradient(w, HP, x, Variant(Arch.RNN))
    blocks = unflatten_rnn(grad, w)
    # last-step readout never touches the earlier output heads
    assert np.all(blocks.V[:2] == 0.0)
    assert np.any(blocks.V[2] != 0.0)
    pooled = unflatten_rnn(gradient(w, HP, x, Variant(Arch.RNN_AVG)), w)
    assert np.all(np.any(pooled.V != 0.0, axis=1))


def test_gradient_second_net_zero_for_unidirectional():
    w1 = sample_rnn(HP, width=4, T=2, seed=52)
    w2 = sample_rnn(HP, width=4, T=2, seed=53)
    x = np.array([0.3, 0.6])
    grad = gradient(w1, HP, x, Variant(Arch.RNN), second_weights=w2)
    n1 = flatten_rnn(w1).size
    assert grad.shape == (2 * n1,)
    assert np.all(grad[n1:] == 0.0)
    assert np.array_equal(grad[:n1], gradient(w1, HP, x, Variant(Arch.RNN)))


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


def test_suite_is_the_only_estimate_route():
    import rntk

    for name in ("empirical_ck", "empirical_ntk", "compose_bidirectional"):
        assert not hasattr(rntk, name), name
    x = np.array([0.6, -0.3])
    with pytest.raises(TypeError):
        empirical_suite(x, x, HP, width=10, trials=2, need_bi=False)


def test_empirical_rejects_empty_sequences():
    empty = np.zeros(0)
    with pytest.raises(ShapeError, match="at least one time step"):
        empirical_suite(empty, empty, HP, width=10, trials=2)
    with pytest.raises(ShapeError, match="at least one time step"):
        empirical_cross_head(empty, empty, HP, width=10, trials=2, head_a=0, head_b=0)


def _completed(weights, rng):
    """Dense weights that agree with every answer a lazy draw has given."""
    def dense(m):
        return m if isinstance(m, np.ndarray) else complete(m, rng)
    return RNNWeights(W=[dense(w) for w in weights.W], U=[dense(u) for u in weights.U],
                      b=weights.b, V=weights.V)


def _lazy_run(params, width, seed, X, Csel):
    """A lazy draw queried as one estimator trial queries it."""
    lazy = _lazy_rnn(params, width, X.shape[0], seed)
    H, masks, heads, _ = _forward_cols(lazy, params, X)
    Delta = _backward_cols(lazy, params, H, masks, Csel)
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
        H2, masks2, heads2, _ = _forward_cols(dense, params, X)
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
        op = _LazyGaussian(3, rng)
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
            w2_arg = w2 if variant.bidirectional else None
            ga = gradient(w1, params, x, variant, second_weights=w2_arg)
            gb = gradient(w1, params, xp, variant, second_weights=w2_arg)
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
    # draw's width^2, and the previous trial's draw is gone before the next
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
