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
O(n^2). `sample_rnn` draws every matrix densely, for callers that need
real matrices, such as finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import _OVERFLOW, Arch, HyperParams, Variant, _input_pair, _integer, kernel_pair


@dataclass
class RNNWeights:
    """One concrete parameter draw. Entries are standard normal; the
    sigma/sqrt(width) scale factors are applied at use sites, not stored.

    W[l]: (n, n) recurrent weights per layer; U[0]: (n, 1) and U[l>=1]:
    (n, n) input weights (inputs are one scalar per time step); b[l]: (n,)
    biases; V: (T, n) output heads, one independent row per time step.

    `sample_rnn` fills every entry with dense arrays. Inside the Monte
    Carlo estimators W[l] and U[l>=1] are `_LazyGaussian` operators
    instead. The recursion uses only `@` and `.T @`, which both kinds
    support, so `_forward_cols` and `_backward_cols` run on either.
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
    width, T = _integer(width, "width"), _integer(T, "T")
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

    `rows` bounds the right and the left products the caller will ask
    for; each side's stores are allocated once at that many rows, capped
    at n because orthonormal directions never exceed n.
    """

    def __init__(self, n: int, rng, rows):
        self.shape = (n, n)
        self._rng = rng
        # side 0: right products (Q, Y); side 1: left products (R, Z)
        self._known = [0, 0]
        self._dirs = [np.empty((min(k, n), n)) for k in rows]
        self._images = [np.empty((min(k, n), n)) for k in rows]

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
        # an infinite norm would pass the in-span test below and answer 0
        if not math.isfinite(norm):
            raise ValueError(_OVERFLOW)
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
        self._dirs[side][k] = q
        self._images[side][k] = image
        self._known[side] = k + 1


class _Transposed:
    """W.T of a `_LazyGaussian`: `W.T @ V` answers left products of W."""

    def __init__(self, op: _LazyGaussian):
        self._op = op

    def __matmul__(self, V):
        return self._op._apply(1, V)


def _lazy_rnn(params: HyperParams, width: int, T: int, seed, rows) -> RNNWeights:
    """An RNN draw whose n x n matrices are `_LazyGaussian` operators.

    U[0], each b[l] and V (O(n T) entries) are drawn up front, in that
    order, from one generator; the lazy operators then draw from the
    same generator as they are queried. `rows` is each operator's
    (right, left) product budget.
    """
    rng = np.random.default_rng(seed)
    L = params.depth_L
    U0 = rng.standard_normal((width, 1))
    b = [rng.standard_normal(width) for _ in range(L)]
    V = rng.standard_normal((T, width))
    W = [_LazyGaussian(width, rng, rows) for _ in range(L)]
    U = [U0] + [_LazyGaussian(width, rng, rows) for _ in range(L - 1)]
    return RNNWeights(W=W, U=U, b=b, V=V)


def _forward_cols(weights: RNNWeights, params: HyperParams, X):
    """Forward pass for a (T, B) batch of scalar sequences.

    Returns (H, masks, heads): H is (L, T+1, n, B) hidden states with
    H[:, 0] = 0, masks is (L, T, n, B) of relu'(g), and heads is (T, B).
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
    for t in range(T):
        for layer in range(L):
            if layer == 0:
                g = su1 * (weights.U[0] @ X[t : t + 1, :])
            else:
                g = su * (weights.U[layer] @ H[layer - 1, t + 1])
            g += sw * (weights.W[layer] @ H[layer, t])
            g += sb * weights.b[layer][:, None]
            masks[layer, t] = g > 0
            H[layer, t + 1] = np.maximum(g, 0.0)
        heads[t] = sv * (weights.V[t] @ H[L - 1, t + 1])
    return H, masks, heads


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
            # accumulated in place: dh starts at zero, as Delta does
            dh = Delta[layer, t]
            if layer == L - 1:
                # output heads read the top hidden state
                dh += sv * weights.V[t][:, None, None] * Csel[t][None, None, :]
            if t + 1 < T:
                nxt = Delta[layer, t + 1].reshape(n, B * S)
                dh += (sw * (weights.W[layer].T @ nxt)).reshape(n, B, S)
            if layer + 1 < L:
                above = Delta[layer + 1, t].reshape(n, B * S)
                dh += (su * (weights.U[layer + 1].T @ above)).reshape(n, B, S)
            dh *= masks[layer, t][:, :, None]
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


_CK = "ck"
_NTK = "ntk"
# one-direction architectures first: the row order of `rntk verify`
_SUITE_ORDER = sorted(Arch, key=lambda arch: Variant(arch).bidirectional)


def _directions(variant: Variant, per_direction):
    """The forward value, plus the reversed one for a bidirectional variant."""
    forward, reverse = per_direction
    return forward + reverse if variant.bidirectional else forward


def _run_net(params, width, seed, X, Csel, pairs):
    """(heads, inner products) of a (T, B) batch X through one fresh lazy draw.

    `pairs` lists the (sel_a, sel_b) selector pairs whose gradient inner
    products `_inner_product` returns, in that order. The draw, H and
    Delta are dropped on return, so a caller holds at most one net's
    working set at a time.
    """
    T, B = X.shape
    # each operator answers T B right products in the forward pass and
    # at most T B S left ones in the backward pass
    weights = _lazy_rnn(params, width, T, seed, (T * B, T * B * Csel.shape[1]))
    H, masks, heads = _forward_cols(weights, params, X)
    Delta = _backward_cols(weights, params, H, masks, Csel)
    return heads, [_inner_product(params, Delta, H, X, a, b, Csel) for a, b in pairs]


def _suite_trial(x2, params, width, seed_pair):
    """Per-trial kernel values for every architecture, from shared draws.

    x2 is (T, 2) holding the input pair in default order. The
    bidirectional values reuse the forward-direction network and add an
    independent draw run on the reversed inputs, which is exactly the
    bidirectional architecture (the two directions share nothing): its
    output adds the two nets' heads, and its gradients live in disjoint
    blocks, so its inner product is the exact two-term sum.
    """
    T = x2.shape[0]
    Csel = _selectors(T)
    nets = []
    for seed, x in zip(seed_pair, (x2, x2[::-1].copy())):
        heads, inners = _run_net(params, width, seed, x, Csel, [(0, 0), (1, 1)])
        # indexed like the selectors: the last head, then the summed heads
        nets.append(((heads[T - 1], heads.sum(axis=0)), inners))
    trial = {}
    for arch in _SUITE_ORDER:
        variant = Variant(arch)
        k = int(variant.pooled)
        a, b = _directions(variant, [outputs[k] for outputs, _ in nets])
        trial[(arch, _CK)] = float(a * b)
        trial[(arch, _NTK)] = _directions(variant, [inners[k] for _, inners in nets])
    return trial


def _estimate(samples: np.ndarray, width: int) -> KernelEstimate:
    n = samples.shape[0]
    mean, stderr = float(samples.mean()), float(samples.std(ddof=1) / math.sqrt(n))
    # at T = L = 1 no lazy product sees the inputs, so huge ones overflow only here
    if not (math.isfinite(mean) and math.isfinite(stderr)):
        raise ValueError(_OVERFLOW)
    return KernelEstimate(mean=mean, stderr=stderr, trials=n, width=width)


def _trial_seeds(seed, width: int, trials: int) -> list:
    """One SeedSequence per trial, once width and trials are checked."""
    width, trials = _integer(width, "width"), _integer(trials, "trials")
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

    Returns {(Arch, "ck"|"ntk"): float} with the same keys, one-direction
    architectures first: the bidirectional kernels add the
    reversed-direction pass to the forward one.
    """
    x2 = _input_pair(x, x_prime)
    passes = [kernel_pair(*x2.T, params), kernel_pair(*x2[::-1].T, params)]
    suite = {}
    for arch in _SUITE_ORDER:
        variant = Variant(arch)
        head = "avg" if variant.pooled else "last"
        for kind in (_CK, _NTK):
            values = [getattr(p, f"{kind}_{head}") for p in passes]
            suite[(arch, kind)] = _directions(variant, values)
    return suite


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
    head_a, head_b = _integer(head_a, "head_a"), _integer(head_b, "head_b")
    if not (0 <= head_a < T and 0 <= head_b < T):
        raise ValueError(f"head indices must be in [0, {T})")
    seeds = _trial_seeds(seed, width, trials)
    Csel = np.zeros((T, 2))
    Csel[head_a, 0] = 1.0
    Csel[head_b, 1] = 1.0
    prods = np.empty(trials)
    inners = np.empty(trials)
    for i, child in enumerate(seeds):
        heads, (inners[i],) = _run_net(params, width, child, x2, Csel, [(0, 1)])
        prods[i] = heads[head_a, 0] * heads[head_b, 1]
    return _estimate(prods, width), _estimate(inners, width)
