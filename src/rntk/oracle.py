"""Finite-width Monte Carlo verification of the analytic kernels.

Samples concrete random RNNs, runs the forward recursion and
backpropagation through time, and estimates the CK (covariance of
outputs) and the NTK (inner product of parameter gradients) across
independent weight draws. There are two estimators: `empirical_suite`
gives all eight (architecture, CK/NTK) estimates of one input pair from
shared draws, and `empirical_cross_head` the statistics between two
output heads. Both push the two inputs through the same weights as a
two-column batch, and gradient inner products are assembled blockwise
from hidden-state and delta Gram matrices, so wide networks never
materialize a flat gradient.

The estimators never draw an n x n weight matrix in full. One trial
touches each of them only through a few dozen products with vectors that
depend on earlier answers, and `_LazyGaussian` samples exactly those
products, in law, by Gaussian conditioning (Bolthausen 2014; Yang,
arXiv 1902.04760): O(n k) work and memory for k products instead of
O(n^2). `sample_rnn`, `forward` and `gradient` work on dense draws,
because finite differences and flat gradients need real matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kernels import Arch, HyperParams, InputOrder, ShapeError, Variant, flip, kernel_pair


@dataclass
class RNNWeights:
    """One concrete parameter draw. Entries are standard normal; the
    sigma/sqrt(width) scale factors are applied at use sites, not stored.

    W[l]: (n, n) recurrent weights per layer; U[0]: (n, 1) and U[l>=1]:
    (n, n) input weights (inputs are one scalar per time step); b[l]: (n,)
    biases; V: (T, n) output heads, one independent row per time step.

    `sample_rnn` fills every entry with dense arrays, as `forward`,
    `gradient` and `flatten_rnn` need. Inside the Monte Carlo estimators
    W[l] and U[l>=1] are `_LazyGaussian` operators instead, which support
    only `@` and `.T @`, the two products the recursion uses.
    """

    W: list
    U: list
    b: list
    V: np.ndarray

    @property
    def width(self) -> int:
        return self.W[0].shape[0]

    @property
    def depth_L(self) -> int:
        return len(self.W)

    @property
    def T(self) -> int:
        return self.V.shape[0]


@dataclass
class ForwardTrace:
    """Pre-activations, hidden states, and outputs of one forward pass.

    g: (L, T, n); h: (L, T+1, n) with h[:, 0] = 0 (zero initial state);
    heads: (T,) per-step outputs; output: the variant's readout. For
    bidirectional variants `twin` holds the reversed-direction pass.
    """

    g: np.ndarray
    h: np.ndarray
    heads: np.ndarray
    output: float
    twin: Optional["ForwardTrace"] = None


@dataclass(frozen=True)
class KernelEstimate:
    """Monte Carlo mean and standard error over independent weight draws."""

    mean: float
    stderr: float
    trials: int
    width: int

    def __post_init__(self):
        if self.trials < 2:
            raise ValueError("an estimate needs at least 2 trials")
        if not (self.stderr >= 0.0):
            raise ValueError("stderr must be nonnegative")


def sample_rnn(params: HyperParams, width: int, T: int = 1, seed=0) -> RNNWeights:
    """Draw standard-normal weights for a depth-L RNN of the given width.

    Deterministic for a fixed seed; accepts an int or a SeedSequence.
    """
    if width < 1 or T < 1:
        raise ValueError(f"width and T must be positive, got {width}, {T}")
    rng = np.random.default_rng(seed)
    L = params.depth_L
    W = [rng.standard_normal((width, width)) for _ in range(L)]
    U = [rng.standard_normal((width, 1))]
    U += [rng.standard_normal((width, width)) for _ in range(L - 1)]
    b = [rng.standard_normal(width) for _ in range(L)]
    V = rng.standard_normal((T, width))
    return RNNWeights(W=W, U=U, b=b, V=V)


# a query whose part outside the known directions is this small, relative
# to the query, is answered from the known images alone
_IN_SPAN = 1e-13


class _LazyGaussian:
    """An n x n matrix W of iid standard normals, drawn only where queried.

    Every answer so far is kept as orthonormal directions with their
    images: rows q_i with y_i = W q_i (right products) and rows r_i with
    z_i = W.T r_i (left products). A new query v splits into its part in
    the known directions, answered from the images, and a unit remainder
    q. Given every earlier answer, W q is exactly
    R (Z.T q) + (I - R R.T) g with fresh g ~ N(0, I_n), so each answer
    follows the law of a dense draw, and backward products stay
    conditioned on forward ones. `.T` answers left products the same way
    with the two sides swapped. Fresh normals come from `rng`, one
    `standard_normal(n)` per new direction, in query order.
    """

    def __init__(self, n: int, rng):
        self.shape = (n, n)
        self._rng = rng
        # side 0: right products (Q, Y); side 1: left products (R, Z)
        self._known = [0, 0]
        self._dirs = [np.empty((0, n)), np.empty((0, n))]
        self._images = [np.empty((0, n)), np.empty((0, n))]

    @property
    def T(self):
        # built per access: a stored back reference would make a cycle
        # that keeps a dropped draw alive until the garbage collector runs
        return _Transposed(self)

    def __matmul__(self, V):
        return self._apply(0, V)

    def _apply(self, side, V):
        out = np.empty(V.shape)
        for j in range(V.shape[1]):
            out[:, j] = self._answer(side, V[:, j])
        return out

    def _answer(self, side, v):
        k = self._known[side]
        Q, Y = self._dirs[side][:k], self._images[side][:k]
        c = Q @ v
        r = v - c @ Q
        again = Q @ r  # one re-orthogonalisation pass
        r -= again @ Q
        c += again
        norm = math.sqrt(float(r @ r))
        if norm <= _IN_SPAN * math.sqrt(float(v @ v)):
            return c @ Y
        q = r / norm
        other = 1 - side
        m = self._known[other]
        R, Z = self._dirs[other][:m], self._images[other][:m]
        g = self._rng.standard_normal(q.size)
        image = (Z @ q) @ R + g - (R @ g) @ R
        self._append(side, q, image)
        return c @ Y + norm * image

    def _append(self, side, q, image):
        k = self._known[side]
        if k == self._dirs[side].shape[0]:
            # double the row capacity, so appends cost O(n) amortised
            for store in (self._dirs, self._images):
                grown = np.empty((max(8, 2 * k), self.shape[0]))
                grown[:k] = store[side]
                store[side] = grown
        self._dirs[side][k] = q
        self._images[side][k] = image
        self._known[side] = k + 1


class _Transposed:
    """W.T of a `_LazyGaussian`: `W.T @ V` answers left products of W."""

    def __init__(self, op: _LazyGaussian):
        self._op = op

    def __matmul__(self, V):
        return self._op._apply(1, V)


def _lazy_rnn(params: HyperParams, width: int, T: int, seed) -> RNNWeights:
    """An RNN draw whose n x n matrices are `_LazyGaussian` operators.

    U[0], each b[l] and V (O(n T) entries) are drawn up front, in that
    order, from one generator; the lazy operators then draw from the
    same generator as they are queried.
    """
    rng = np.random.default_rng(seed)
    L = params.depth_L
    U0 = rng.standard_normal((width, 1))
    b = [rng.standard_normal(width) for _ in range(L)]
    V = rng.standard_normal((T, width))
    W = [_LazyGaussian(width, rng) for _ in range(L)]
    U = [U0] + [_LazyGaussian(width, rng) for _ in range(L - 1)]
    return RNNWeights(W=W, U=U, b=b, V=V)


def _check_sequence(x, weights: RNNWeights, name: str = "x") -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ShapeError(f"{name} must be a 1-D sequence")
    if arr.shape[0] != weights.T:
        raise ShapeError(
            f"{name} has length {arr.shape[0]}, weights expect T={weights.T}")
    return arr


def _forward_cols(weights: RNNWeights, params: HyperParams, X, keep_g: bool = False):
    """Forward pass for a (T, B) batch of scalar sequences.

    Returns (H, masks, heads, G): H is (L, T+1, n, B) hidden states with
    H[:, 0] = 0, masks is (L, T, n, B) of relu'(g), heads is (T, B), and
    G is (L, T, n, B) pre-activations or None unless keep_g.
    """
    n = weights.width
    L = weights.depth_L
    T, B = X.shape
    sw = params.sigma_w / math.sqrt(n)
    su1 = params.sigma_u
    su = params.sigma_u / math.sqrt(n)
    sv = params.sigma_v / math.sqrt(n)
    sb = params.sigma_b

    H = np.zeros((L, T + 1, n, B))
    masks = np.empty((L, T, n, B), dtype=bool)
    heads = np.empty((T, B))
    G = np.empty((L, T, n, B)) if keep_g else None
    for t in range(T):
        for layer in range(L):
            if layer == 0:
                g = su1 * (weights.U[0] @ X[t : t + 1, :])
            else:
                g = su * (weights.U[layer] @ H[layer - 1, t + 1])
            g += sw * (weights.W[layer] @ H[layer, t])
            g += sb * weights.b[layer][:, None]
            if keep_g:
                G[layer, t] = g
            masks[layer, t] = g > 0
            H[layer, t + 1] = np.maximum(g, 0.0)
        heads[t] = sv * (weights.V[t] @ H[L - 1, t + 1])
    return H, masks, heads, G


def _backward_cols(weights: RNNWeights, params: HyperParams, H, masks, Csel):
    """Backprop through time for S readout selectors at once.

    Csel is (T, S); selector s defines the scalar output sum_t Csel[t, s]
    * heads[t]. Returns Delta with shape (L, T, n, B, S): the gradient of
    that output w.r.t. the pre-activation g[(layer, t)], per batch column.
    """
    n = weights.width
    L = weights.depth_L
    T = masks.shape[1]
    B = masks.shape[3]
    S = Csel.shape[1]
    sw = params.sigma_w / math.sqrt(n)
    su = params.sigma_u / math.sqrt(n)
    sv = params.sigma_v / math.sqrt(n)

    Delta = np.zeros((L, T, n, B, S))
    for t in range(T - 1, -1, -1):
        for layer in range(L - 1, -1, -1):
            dh = np.zeros((n, B, S))
            if layer == L - 1:
                # output heads read the top hidden state
                dh += sv * weights.V[t][:, None, None] * Csel[t][None, None, :]
            if t + 1 < T:
                nxt = Delta[layer, t + 1].reshape(n, B * S)
                dh += (sw * (weights.W[layer].T @ nxt)).reshape(n, B, S)
            if layer + 1 < L:
                above = Delta[layer + 1, t].reshape(n, B * S)
                dh += (su * (weights.U[layer + 1].T @ above)).reshape(n, B, S)
            Delta[layer, t] = dh * masks[layer, t][:, :, None]
    return Delta


def _inner_product(params: HyperParams, Delta, H, X, sel_a: int, sel_b: int,
                   Csel) -> float:
    """<grad f_a, grad f_b> assembled from per-layer Gram matrices.

    f_a is the readout Csel[:, sel_a] of batch column 0, f_b the readout
    Csel[:, sel_b] of batch column 1. Never forms the flat gradient: each
    parameter block contributes
    sum_{t,s} (delta_t . delta'_s) * (h_t . h'_s) with the appropriate
    sigma^2 / width scale, and the output block is diagonal in t because
    heads use independent weights.
    """
    L, _, n, _ = H.shape
    T = X.shape[0]
    su2 = params.sigma_u**2
    sw2 = params.sigma_w**2
    sb2 = params.sigma_b**2
    sv2 = params.sigma_v**2

    total = 0.0
    for layer in range(L):
        Da = Delta[layer, :, :, 0, sel_a]
        Db = Delta[layer, :, :, 1, sel_b]
        Md = Da @ Db.T
        # recurrent block: pairs h^{(layer, t-1)}, row 0 of H is the zero state
        Mh = H[layer, :T, :, 0] @ H[layer, :T, :, 1].T
        total += (sw2 / n) * float((Md * Mh).sum())
        if layer == 0:
            total += su2 * float(X[:, 0] @ Md @ X[:, 1])
        else:
            Mlow = H[layer - 1, 1:, :, 0] @ H[layer - 1, 1:, :, 1].T
            total += (su2 / n) * float((Md * Mlow).sum())
        total += sb2 * float(Md.sum())
    head_cov = (H[L - 1, 1:, :, 0] * H[L - 1, 1:, :, 1]).sum(axis=1)
    total += (sv2 / n) * float((Csel[:, sel_a] * Csel[:, sel_b] * head_cov).sum())
    return total


def _selectors(T: int) -> np.ndarray:
    """Column 0: last-step readout; column 1: pooled (summed) readout."""
    Csel = np.zeros((T, 2))
    Csel[T - 1, 0] = 1.0
    Csel[:, 1] = 1.0
    return Csel


def forward(weights: RNNWeights, params: HyperParams, x, variant: Variant = Variant(),
            second_weights: Optional[RNNWeights] = None) -> ForwardTrace:
    """Run one network on one input and return its full trace.

    Bidirectional variants require `second_weights` (the independent
    reversed-direction draw); its trace is attached as `twin` and the
    output is the sum of the two directional readouts. A flipped input
    order feeds the reversed sequence, and the trace describes the
    sequence as fed.
    """
    arr = _check_sequence(x, weights)
    if variant.input_order is InputOrder.FLIPPED:
        arr = arr[::-1].copy()
    pooled = variant.pooled
    if variant.bidirectional:
        if second_weights is None:
            raise ValueError("bidirectional variants need second_weights")
        main = forward(weights, params, arr, Variant(Arch.RNN_AVG if pooled else Arch.RNN))
        twin = forward(second_weights, params, arr[::-1].copy(),
                       Variant(Arch.RNN_AVG if pooled else Arch.RNN))
        return ForwardTrace(g=main.g, h=main.h, heads=main.heads,
                            output=main.output + twin.output, twin=twin)
    H, masks, heads, G = _forward_cols(weights, params, arr[:, None], keep_g=True)
    del masks
    out = float(heads[:, 0].sum()) if pooled else float(heads[-1, 0])
    return ForwardTrace(g=G[..., 0], h=H[..., 0], heads=heads[:, 0], output=out)


def _gradient_blocks(weights: RNNWeights, params: HyperParams, x_fed, pooled: bool):
    """Per-block gradient arrays of the selected readout for one input."""
    n = weights.width
    L = weights.depth_L
    T = x_fed.shape[0]
    X = x_fed[:, None]
    H, masks, _, _ = _forward_cols(weights, params, X)
    Csel = _selectors(T)[:, 1:2] if pooled else _selectors(T)[:, 0:1]
    Delta = _backward_cols(weights, params, H, masks, Csel)
    D = Delta[:, :, :, 0, 0]  # (L, T, n)

    sw = params.sigma_w / math.sqrt(n)
    su = params.sigma_u / math.sqrt(n)
    sv = params.sigma_v / math.sqrt(n)
    c = Csel[:, 0]

    gW = [sw * np.einsum("tn,tm->nm", D[layer], H[layer, :T, :, 0]) for layer in range(L)]
    gU = [params.sigma_u * (D[0].T @ X)]
    gU += [su * np.einsum("tn,tm->nm", D[layer], H[layer - 1, 1:, :, 0])
           for layer in range(1, L)]
    gb = [params.sigma_b * D[layer].sum(axis=0) for layer in range(L)]
    gV = sv * c[:, None] * H[L - 1, 1:, :, 0]
    return gW, gU, gb, gV


def flatten_rnn(weights: RNNWeights) -> np.ndarray:
    """Flatten to a vector in block order W[0..L-1], U[0..L-1], b[0..L-1], V."""
    parts = [w.ravel() for w in weights.W]
    parts += [u.ravel() for u in weights.U]
    parts += [bb.ravel() for bb in weights.b]
    parts.append(weights.V.ravel())
    return np.concatenate(parts)


def unflatten_rnn(flat: np.ndarray, like: RNNWeights) -> RNNWeights:
    """Inverse of flatten_rnn, using `like` for the block shapes."""
    arrays = like.W + like.U + like.b + [like.V]
    expected = sum(arr.size for arr in arrays)
    if flat.size != expected:
        raise ShapeError(f"flat vector has {flat.size} entries, expected {expected}")
    out = []
    pos = 0
    for arr in arrays:
        out.append(flat[pos : pos + arr.size].reshape(arr.shape).copy())
        pos += arr.size
    L = like.depth_L
    return RNNWeights(W=out[:L], U=out[L : 2 * L], b=out[2 * L : 3 * L], V=out[3 * L])


def gradient(weights: RNNWeights, params: HyperParams, x, variant: Variant = Variant(),
             second_weights: Optional[RNNWeights] = None) -> np.ndarray:
    """Gradient of the variant readout w.r.t. all raw weights, flattened.

    Block order follows flatten_rnn; when `second_weights` is given the
    second draw's blocks are appended (zero unless the variant is
    bidirectional, which is the only reader of the second draw).
    """
    arr = _check_sequence(x, weights)
    if variant.input_order is InputOrder.FLIPPED:
        arr = arr[::-1].copy()
    pooled = variant.pooled
    if variant.bidirectional:
        if second_weights is None:
            raise ValueError("bidirectional variants need second_weights")
        gW, gU, gb, gV = _gradient_blocks(weights, params, arr, pooled)
        main = flatten_rnn(RNNWeights(W=gW, U=gU, b=gb, V=gV))
        gW2, gU2, gb2, gV2 = _gradient_blocks(second_weights, params,
                                              arr[::-1].copy(), pooled)
        twin = flatten_rnn(RNNWeights(W=gW2, U=gU2, b=gb2, V=gV2))
        return np.concatenate([main, twin])
    gW, gU, gb, gV = _gradient_blocks(weights, params, arr, pooled)
    flat = flatten_rnn(RNNWeights(W=gW, U=gU, b=gb, V=gV))
    if second_weights is not None:
        flat = np.concatenate([flat, np.zeros(flatten_rnn(second_weights).size)])
    return flat


_CK = "ck"
_NTK = "ntk"


def _run_net(params, width, seed, X, Csel):
    """(H, heads, Delta) of a (T, B) batch X through one fresh lazy draw.

    The draw is dropped on return, so a caller holds at most one at a time.
    """
    weights = _lazy_rnn(params, width, X.shape[0], seed)
    H, masks, heads, _ = _forward_cols(weights, params, X)
    return H, heads, _backward_cols(weights, params, H, masks, Csel)


def _suite_trial(x2, params, width, seed_pair):
    """Per-trial kernel values for every architecture, from shared draws.

    x2 is (T, 2) holding the input pair in default order. The
    bidirectional values reuse the forward-direction network and add an
    independent draw run on the reversed inputs, which is exactly the
    bidirectional architecture (the two directions share nothing).
    """
    T = x2.shape[0]
    Csel = _selectors(T)
    xf2 = x2[::-1].copy()
    H1, heads1, D1 = _run_net(params, width, seed_pair[0], x2, Csel)
    H2, heads2, D2 = _run_net(params, width, seed_pair[1], xf2, Csel)
    last1, last2 = heads1[T - 1], heads2[T - 1]
    sum1, sum2 = heads1.sum(axis=0), heads2.sum(axis=0)
    ntk_last = _inner_product(params, D1, H1, x2, 0, 0, Csel)
    ntk_avg = _inner_product(params, D1, H1, x2, 1, 1, Csel)
    # gradients of the two directions live in disjoint blocks, so the
    # bidirectional inner product is the exact two-term sum
    return {
        (Arch.RNN, _CK): float(last1[0] * last1[1]),
        (Arch.RNN_AVG, _CK): float(sum1[0] * sum1[1]),
        (Arch.RNN, _NTK): ntk_last,
        (Arch.RNN_AVG, _NTK): ntk_avg,
        (Arch.BI_RNN, _CK): float((last1[0] + last2[0]) * (last1[1] + last2[1])),
        (Arch.BI_RNN_AVG, _CK): float((sum1[0] + sum2[0]) * (sum1[1] + sum2[1])),
        (Arch.BI_RNN, _NTK): ntk_last + _inner_product(params, D2, H2, xf2, 0, 0, Csel),
        (Arch.BI_RNN_AVG, _NTK): ntk_avg + _inner_product(params, D2, H2, xf2, 1, 1, Csel),
    }


def _estimate(samples: np.ndarray, width: int) -> KernelEstimate:
    n = samples.shape[0]
    return KernelEstimate(mean=float(samples.mean()),
                          stderr=float(samples.std(ddof=1) / math.sqrt(n)),
                          trials=n, width=width)


def _input_pair(x, x_prime) -> np.ndarray:
    """The two input sequences as the columns of one (T, 2) array."""
    xa = np.asarray(x, dtype=np.float64)
    xb = np.asarray(x_prime, dtype=np.float64)
    if xa.ndim != 1 or xa.shape != xb.shape:
        raise ShapeError("inputs must be 1-D sequences of equal length")
    if xa.shape[0] == 0:
        raise ShapeError("inputs must have at least one time step, got empty sequences")
    return np.stack([xa, xb], axis=1)


def _trial_seeds(seed, width: int, trials: int) -> list:
    """One SeedSequence per trial, once width and trials are checked."""
    if trials < 2:
        raise ValueError("trials must be at least 2 (stderr is undefined otherwise)")
    if width < 1:
        raise ValueError(f"width must be positive, got {width}")
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return root.spawn(trials)


def empirical_suite(x, x_prime, params: HyperParams, width: int, trials: int, seed=0):
    """Estimate CK/NTK for all architectures on one input pair.

    Returns {(Arch, "ck"|"ntk"): KernelEstimate}. All architectures share
    each trial's forward-direction draw, which halves the sampling cost
    without biasing any single estimate. Flipped-order estimates are the
    suite of flip(x), flip(x_prime).
    """
    x2 = _input_pair(x, x_prime)
    rows = [_suite_trial(x2, params, width, child.spawn(2))
            for child in _trial_seeds(seed, width, trials)]
    return {key: _estimate(np.array([r[key] for r in rows]), width) for key in rows[0]}


def analytic_suite(x, x_prime, params: HyperParams):
    """The infinite-width values that `empirical_suite` estimates.

    Returns {(Arch, "ck"|"ntk"): float} with the same keys: the
    bidirectional kernels add the reversed-direction pass to the forward
    one.
    """
    fwd = kernel_pair(x, x_prime, params)
    bwd = kernel_pair(flip(x), flip(x_prime), params)
    return {
        (Arch.RNN, _CK): fwd.ck_last,
        (Arch.RNN, _NTK): fwd.ntk_last,
        (Arch.RNN_AVG, _CK): fwd.ck_avg,
        (Arch.RNN_AVG, _NTK): fwd.ntk_avg,
        (Arch.BI_RNN, _CK): fwd.ck_last + bwd.ck_last,
        (Arch.BI_RNN, _NTK): fwd.ntk_last + bwd.ntk_last,
        (Arch.BI_RNN_AVG, _CK): fwd.ck_avg + bwd.ck_avg,
        (Arch.BI_RNN_AVG, _NTK): fwd.ntk_avg + bwd.ntk_avg,
    }


def empirical_cross_head(x, x_prime, params: HyperParams, *, width: int, trials: int,
                         seed=0, head_a: int, head_b: int):
    """Cross-head statistics between readouts at two different time steps.

    Returns (products, inners): Monte Carlo estimates of
    E[f^(head_a)(x) * f^(head_b)(x')] and of the gradient inner product
    between the two heads. Both vanish in the infinite-width limit when
    head_a != head_b because the output weights of distinct heads are
    independent.
    """
    x2 = _input_pair(x, x_prime)
    T = x2.shape[0]
    if not (0 <= head_a < T and 0 <= head_b < T):
        raise ValueError(f"head indices must be in [0, {T})")
    seeds = _trial_seeds(seed, width, trials)
    Csel = np.zeros((T, 2))
    Csel[head_a, 0] = 1.0
    Csel[head_b, 1] = 1.0
    prods = np.empty(trials)
    inners = np.empty(trials)
    for i, child in enumerate(seeds):
        H, heads, Delta = _run_net(params, width, child, x2, Csel)
        prods[i] = heads[head_a, 0] * heads[head_b, 1]
        inners[i] = _inner_product(params, Delta, H, x2, 0, 1, Csel)
    return _estimate(prods, width), _estimate(inners, width)
