"""Finite-width Monte Carlo verification of the analytic kernels.

Samples concrete random RNNs, runs the forward recursion and
backpropagation through time, and estimates the CK (covariance of
outputs) and the NTK (inner product of parameter gradients) across
independent weight draws. There is one estimator: `empirical_suite`
gives all eight (architecture, CK/NTK) estimates of one input pair from
shared draws. It pushes the two inputs through the same weights as a
two-column batch, and gradient inner products are assembled blockwise
from hidden-state and delta Gram matrices, so wide networks never
materialize a flat gradient.

The estimator never draws an n x n weight matrix in full. One trial
touches each of them only through a few dozen products with vectors that
depend on earlier answers, and `_LazyGaussian` samples exactly those
products, in law, by Gaussian conditioning (Bolthausen 2014; Yang,
arXiv 1902.04760): O(n k) work and memory for k products instead of
O(n^2). `sample_rnn` draws every matrix densely, for callers that need
real matrices, such as finite differences.

One `empirical_suite` call allocates the width-sized arrays its nets
write once, as a `_WorkingSet`: the lazy operators' stores, the drawn
U[0], b and V, and the passes' H, masks and Delta. Every net of every
trial draws into it in turn, and it is dropped on return, so the
allocator does not hand those megabytes back to the system and fault
them in again at every draw.
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
    Carlo estimator W[l] and U[l>=1] are `_LazyGaussian` operators
    instead. The recursion uses only `@` and `.T @`, which both kinds
    support, so `_forward_cols` and `_backward_cols` run on either kind
    held as a `_WorkingSet`'s `weights`.
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
    with the two sides swapped. Fresh normals come from the generator
    given to `redraw`, one n-vector per new direction, in query order.

    `rows` bounds the right and the left products the caller will ask
    for; each side's stores are allocated once at that many rows, capped
    at n because orthonormal directions never exceed n. `redraw` starts
    each draw, the first one included: it forgets every answer, so one
    operator serves draw after draw in the same stores.
    """

    def __init__(self, n: int, rows):
        self.shape = (n, n)
        # side 0: right products (Q, Y); side 1: left products (R, Z)
        self._dirs = [np.empty((min(k, n), n)) for k in rows]
        self._images = [np.empty((min(k, n), n)) for k in rows]

    def redraw(self, rng):
        """Start a fresh draw whose normals come from `rng`."""
        self._rng = rng
        self._known = [0, 0]

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
            self._answer(side, V[:, j], out[:, j])
        return out

    def _answer(self, side, v, out):
        """Write the product of W (side 0) or W.T (side 1) with v into out."""
        k = self._known[side]
        Q, Y = self._dirs[side][:k], self._images[side][:k]
        c = Q @ v
        r = v - c @ Q
        again = Q @ r  # one re-orthogonalisation pass
        r -= again @ Q
        c += again
        with np.errstate(over="ignore"):
            norm = math.sqrt(float(r @ r))
        # an infinite norm would pass the in-span test below and answer 0;
        # it is refused here by name, so numpy's overflow warning is muted
        if not math.isfinite(norm):
            raise ValueError(_OVERFLOW)
        if norm <= _IN_SPAN * math.sqrt(float(v @ v)):
            out[:] = c @ Y
            return
        # the new direction and its image are written straight into row k
        q = np.divide(r, norm, out=self._dirs[side][k])
        other = 1 - side
        m = self._known[other]
        R, Z = self._dirs[other][:m], self._images[other][:m]
        # image = (Z q) R + g - (R g) R, summed onto g in g's row
        image = self._rng.standard_normal(out=self._images[side][k])
        seen = (R @ image) @ R
        image += (Z @ q) @ R
        image -= seen
        self._known[side] = k + 1
        np.multiply(image, norm, out=out)
        out += c @ Y


class _Transposed:
    """W.T of a `_LazyGaussian`: `W.T @ V` answers left products of W."""

    def __init__(self, op: _LazyGaussian):
        self._op = op

    def __matmul__(self, V):
        return self._op._apply(1, V)


class _WorkingSet:
    """Every width-sized array one net writes, allocated once and reused.

    A net is one draw run forward on a (T, B) batch and backward for S
    readout selectors. `weights` is the lazy draw: U[0], each b[l] and V
    as arrays, and the 2L - 1 n x n matrices as `_LazyGaussian` operators
    with stores for the T B right products of the forward pass and the at
    most T B S left ones of the backward pass. H, masks and Delta hold
    the passes' results, and their shapes give the passes L, T, n, B and
    S. `empirical_suite` builds one per call and runs every net of every
    trial through it in turn. No net reads an earlier net's values:
    `draw` refills the arrays and resets the operators, H's step 0 stays
    the zero state, and the passes write every other entry before they
    read it.
    """

    def __init__(self, L: int, n: int, T: int, B: int, S: int):
        rows = (T * B, T * B * S)
        self.weights = RNNWeights(
            W=[_LazyGaussian(n, rows) for _ in range(L)],
            U=[np.empty((n, 1))] + [_LazyGaussian(n, rows) for _ in range(L - 1)],
            b=[np.empty(n) for _ in range(L)],
            V=np.empty((T, n)))
        # step 0 is the zero state, which no pass writes
        self.H = np.zeros((L, T + 1, n, B))
        self.masks = np.empty((L, T, n, B), dtype=bool)
        self.Delta = np.empty((L, T, n, B, S))

    def draw(self, seed):
        """A fresh lazy draw from `seed`, in this working set's arrays.

        U[0], each b[l] and V (O(n T) entries) are drawn up front, in that
        order, from one generator; the lazy operators then draw from the
        same generator as they are queried.
        """
        rng = np.random.default_rng(seed)
        w = self.weights
        for a in [w.U[0]] + w.b + [w.V]:
            rng.standard_normal(out=a)
        for op in w.W + w.U[1:]:
            op.redraw(rng)


def _forward_cols(params: HyperParams, X, work: _WorkingSet):
    """Forward pass of `work.weights` for a (T, B) batch of scalar sequences.

    Writes the hidden states into work.H (L, T+1, n, B), whose step 0 is
    the zero state, and relu'(g) into work.masks (L, T, n, B). Returns
    the (T, B) heads.
    """
    weights, H, masks = work.weights, work.H, work.masks
    L, T, n, B = masks.shape
    sw = params.sigma_w / math.sqrt(n)
    su1 = params.sigma_u
    su = params.sigma_u / math.sqrt(n)
    sv = params.sigma_v / math.sqrt(n)
    sb = params.sigma_b

    heads = np.empty((T, B))
    for t in range(T):
        for layer in range(L):
            # g is summed in its hidden state's slot and rectified there
            g = H[layer, t + 1]
            if layer == 0:
                np.multiply(weights.U[0] @ X[t : t + 1, :], su1, out=g)
            else:
                np.multiply(weights.U[layer] @ H[layer - 1, t + 1], su, out=g)
            recurrent = weights.W[layer] @ H[layer, t]
            recurrent *= sw
            g += recurrent
            g += sb * weights.b[layer][:, None]
            np.greater(g, 0.0, out=masks[layer, t])
            np.maximum(g, 0.0, out=g)
        heads[t] = sv * (weights.V[t] @ H[L - 1, t + 1])
    return heads


def _backward_cols(params: HyperParams, Csel, work: _WorkingSet):
    """Backprop through time of `work.weights` for S readout selectors at once.

    Csel is (T, S); selector s defines the scalar output sum_t Csel[t, s]
    * heads[t]. Writes into work.Delta (L, T, n, B, S) the gradient of
    that output w.r.t. the pre-activation g[(layer, t)], per batch column,
    from the forward pass's work.masks.
    """
    weights, masks, Delta = work.weights, work.masks, work.Delta
    L, T, n, B, S = Delta.shape
    sw = params.sigma_w / math.sqrt(n)
    su = params.sigma_u / math.sqrt(n)
    sv = params.sigma_v / math.sqrt(n)

    for t in range(T - 1, -1, -1):
        for layer in range(L - 1, -1, -1):
            # accumulated in place from zero
            dh = Delta[layer, t]
            dh.fill(0.0)
            if layer == L - 1:
                # output heads read the top hidden state
                dh += sv * weights.V[t][:, None, None] * Csel[t][None, None, :]
            if t + 1 < T:
                later = weights.W[layer].T @ Delta[layer, t + 1].reshape(n, B * S)
                later *= sw
                dh += later.reshape(n, B, S)
            if layer + 1 < L:
                above = weights.U[layer + 1].T @ Delta[layer + 1, t].reshape(n, B * S)
                above *= su
                dh += above.reshape(n, B, S)
            dh *= masks[layer, t][:, :, None]


def _inner_products(params: HyperParams, X, Csel, pairs, work: _WorkingSet) -> list:
    """[<grad f_a, grad f_b> for (sel_a, sel_b) in pairs], from work.H and work.Delta.

    f_a is the readout Csel[:, sel_a] of batch column 0, f_b the readout
    Csel[:, sel_b] of batch column 1. Never forms the flat gradient: each
    parameter block contributes
    sum_{t,s} (delta_t . delta'_s) * (h_t . h'_s) with the appropriate
    sigma^2 / width scale, and the output block is diagonal in t because
    heads use independent weights. The hidden-state Grams and the head
    covariances are formed once for all pairs.
    """
    H, Delta = work.H, work.Delta
    L, _, n, _ = H.shape
    T = X.shape[0]
    su2 = params.sigma_u**2
    sw2 = params.sigma_w**2
    sb2 = params.sigma_b**2
    sv2 = params.sigma_v**2

    totals = [0.0] * len(pairs)
    for layer in range(L):
        # recurrent block: pairs h^{(layer, t-1)}, row 0 of H is the zero state
        Mh = H[layer, :T, :, 0] @ H[layer, :T, :, 1].T
        if layer > 0:
            Mlow = H[layer - 1, 1:, :, 0] @ H[layer - 1, 1:, :, 1].T
        for i, (sel_a, sel_b) in enumerate(pairs):
            Md = Delta[layer, :, :, 0, sel_a] @ Delta[layer, :, :, 1, sel_b].T
            totals[i] += (sw2 / n) * float((Md * Mh).sum())
            if layer == 0:
                totals[i] += su2 * float(X[:, 0] @ Md @ X[:, 1])
            else:
                totals[i] += (su2 / n) * float((Md * Mlow).sum())
            totals[i] += sb2 * float(Md.sum())
    head_cov = (H[L - 1, 1:, :, 0] * H[L - 1, 1:, :, 1]).sum(axis=1)
    for i, (sel_a, sel_b) in enumerate(pairs):
        totals[i] += (sv2 / n) * float((Csel[:, sel_a] * Csel[:, sel_b] * head_cov).sum())
    return totals


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


def _run_net(params, seed, X, Csel, pairs, work):
    """(heads, inner products) of a (T, B) batch X through one fresh lazy draw.

    `pairs` lists the (sel_a, sel_b) selector pairs whose gradient inner
    products `_inner_products` returns, in that order. The draw, H and
    Delta live in `work`, which the next net overwrites, so a caller
    holds one net's working set however many nets it runs.
    """
    work.draw(seed)
    heads = _forward_cols(params, X, work)
    _backward_cols(params, Csel, work)
    return heads, _inner_products(params, X, Csel, pairs, work)


def _suite_trial(x2, params, seed_pair, work):
    """Per-trial kernel values for every architecture, from shared draws.

    x2 is (T, 2) holding the input pair in default order. The
    bidirectional values reuse the forward-direction network and add an
    independent draw run on the reversed inputs, which is exactly the
    bidirectional architecture (the two directions share nothing): its
    output adds the two nets' heads, and its gradients live in disjoint
    blocks, so its inner product is the exact two-term sum. Both nets
    run in `work`, one after the other.
    """
    T = x2.shape[0]
    Csel = _selectors(T)
    nets = []
    for seed, x in zip(seed_pair, (x2, x2[::-1].copy())):
        heads, inners = _run_net(params, seed, x, Csel, [(0, 0), (1, 1)], work)
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
    # at T = L = 1 no lazy product sees the inputs, so huge ones overflow only
    # here; the overflow is refused below by name, not warned about
    with np.errstate(over="ignore"):
        mean, stderr = float(samples.mean()), float(samples.std(ddof=1) / math.sqrt(n))
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
    seeds = _trial_seeds(seed, width, trials)
    # every net of every trial runs the input pair through the two selectors
    work = _WorkingSet(params.depth_L, width, *x2.shape, 2)
    rows = [_suite_trial(x2, params, child.spawn(2), work) for child in seeds]
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
