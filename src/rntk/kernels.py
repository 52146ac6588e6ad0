"""Closed-form CK and NTK kernels of infinite-width recurrent networks.

Computes the conjugate kernel (CK, the Gaussian-process covariance of the
network output at initialization) and the neural tangent kernel (NTK, the
gradient inner-product kernel) for deep simple RNNs with ReLU activations,
including bidirectional and average-pooled readouts. The kernels follow a
layer-and-time covariance recursion whose only nonlinearity-dependent
primitive is ``vphi``, the pair of ReLU moments of a bivariate Gaussian
(the arc-cosine expectation and its derivative form).

All entries of a Gram matrix are independent scalar recursions. The batched
engine runs them on square blocks of row pairs, 128 x 128 (`_BLOCK_EDGE`),
each block writing straight into its part of the outputs, so blocks may run
concurrently. An off-diagonal block is the outer product of two row ranges,
mirrored in a symmetric Gram; a diagonal block of a symmetric Gram runs
whole, as the list of its upper-triangle pairs, each written into both
triangles. A block holds 3L + 4 buffers updated in place (psi, vp and vpp
per layer, the covariance, three vphi scratch arrays) plus two accumulators
per readout of a pass: 3L + 6 for one kernel.
Self variances are computed once per row (O(N*T*L)). Memory is the outputs,
those trajectories and one buffer set per running block. Every shortcut the
engine takes (skipped clamps, pin tests and zero carries) is exact, so a
Gram does not depend on the block edge or the thread count, bit for bit.

Layer l of a depth-L recursion does not depend on L, pooled kernels sum the
per-step heads, and a bidirectional kernel is the forward pass plus the
reversed pass. So every kernel that shares sigma_w, sigma_u and sigma_b (a
family) is a readout of at most two recursions, which `gram_family` and
`gram_cross_family` run once for all of them.
"""

from __future__ import annotations

import math
import numbers
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

_INV_2PI = 0.5 / np.pi

# Edge of the square blocks of row pairs. At T=20, L=2, one thread, a
# 256 x 1024 cross block ran in 152 ms at edge 128, 161 ms at 192, 173 ms
# at 256 and 227 ms at 64. Diagonal blocks run whole: split into their
# off-diagonal square and two half triangles, ten of edge 128 took 94 ms
# against 77 ms whole, and edge 128 already tiles a 256 diagonal that way.
_BLOCK_EDGE = 128

# inputs of scale about 2^255 or more have self-variances near 2^514, whose
# product overflows: q = inf, c = 0, and the kernels turn inf or NaN
_OVERFLOW = "kernel values overflowed: the inputs or sigmas are too large for the recursion"


class ShapeError(ValueError):
    """Inputs have inconsistent or unusable shapes."""


class CompositionError(ValueError):
    """Kernels cannot be computed together (a family's members differ in sigmas)."""


def _as_int(value):
    """value as a Python int if it is an int or numpy integer, else None.

    bool is an int subclass, but a flag is never a count, so it is refused.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        return None
    return int(value)


def _as_real(value):
    """value as a Python int or float if it is a finite real, else None.

    numpy scalars count and come back as Python numbers, so labels and
    hashes built from them do not change; bools are refused.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return None
    if isinstance(value, numbers.Integral):
        # an int beyond the float range would overflow at its first float use
        value = int(value)
        return value if abs(value) <= sys.float_info.max else None
    value = float(value)
    return value if math.isfinite(value) else None


def _real(value, name: str):
    """value as its `_as_real` Python number, or a ValueError naming the parameter."""
    real = _as_real(value)
    if real is None:
        raise ValueError(f"{name} must be a finite real, got {value!r}")
    return real


def _integer(value, name: str) -> int:
    """value as a Python int, or a ValueError naming the parameter."""
    count = _as_int(value)
    if count is None:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return count


class Arch(Enum):
    """Recurrent architecture whose infinite-width kernel is computed."""

    RNN = "rnn"
    BI_RNN = "bi-rnn"
    RNN_AVG = "rnn-avg"
    BI_RNN_AVG = "bi-rnn-avg"


class InputOrder(Enum):
    """Time ordering in which input coordinates are fed to the network."""

    DEFAULT = "default"
    FLIPPED = "flipped"


@dataclass(frozen=True)
class Variant:
    """Architecture plus input ordering.

    Bidirectional architectures consume both orderings internally, so their
    ``input_order`` is normalized to DEFAULT and has no effect.
    """

    arch: Arch = Arch.RNN
    input_order: InputOrder = InputOrder.DEFAULT

    def __post_init__(self):
        if self.bidirectional and self.input_order is not InputOrder.DEFAULT:
            object.__setattr__(self, "input_order", InputOrder.DEFAULT)

    @property
    def bidirectional(self) -> bool:
        return self.arch in (Arch.BI_RNN, Arch.BI_RNN_AVG)

    @property
    def pooled(self) -> bool:
        """True when the readout sums one output head per time step."""
        return self.arch in (Arch.RNN_AVG, Arch.BI_RNN_AVG)

    @property
    def label(self) -> str:
        if self.input_order is InputOrder.FLIPPED:
            return f"{self.arch.value}-flip"
        return self.arch.value

    @staticmethod
    def parse(arch: str, order: str = "default") -> "Variant":
        return Variant(Arch(arch), InputOrder(order))


@dataclass(frozen=True)
class HyperParams:
    """Initialization scales and depth of the recurrent network.

    sigma_w scales recurrent weights, sigma_u input weights, sigma_b biases,
    sigma_v the output layer; depth_L is the number of stacked layers.
    Weights themselves are standard normal; the scales multiply them at use
    sites, which is what makes these the sole knobs of the kernel recursion.
    numpy scalars are accepted and stored as Python numbers; bools are not.
    """

    sigma_w: float = math.sqrt(2.0)
    sigma_u: float = 0.5
    sigma_b: float = 0.1
    sigma_v: float = 1.0
    depth_L: int = 1

    def __post_init__(self):
        for name in ("sigma_w", "sigma_u", "sigma_b", "sigma_v"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        if self.sigma_w <= 0 or self.sigma_u <= 0 or self.sigma_v <= 0:
            raise ValueError("sigma_w, sigma_u, sigma_v must be positive")
        if self.sigma_b < 0:
            raise ValueError("sigma_b must be nonnegative")
        depth = _as_int(self.depth_L)
        if depth is None or depth < 1:
            raise ValueError(f"depth_L must be a positive integer, got {self.depth_L!r}")
        object.__setattr__(self, "depth_L", depth)


def _workspace(shape):
    """Scratch arrays of `_vphi_into`: three float and one boolean."""
    return np.empty(shape), np.empty(shape), np.empty(shape), np.empty(shape, dtype=bool)


# Variances x in this range square without underflow or overflow, and then
# sqrt(fl(x * x)) == x exactly in binary64.
_EXACT_SQUARE = (2.0**-510, 2.0**510)


def _pair_product(a, b, out):
    """out = a * b for a block's per-row factors a (rows of Xa) and b (rows of Xb).

    Two 1-D arrays (a list of pairs) are multiplied entrywise. A column and
    a row (a square block) are multiplied as an einsum outer
    product, at about half the cost of a broadcasting multiply and with the
    same bits, except that it may give +0 where the multiply gives -0.
    Callers either add sb2 >= +0 next, which turns -0 into +0, or multiply
    nonnegative variances, whose products are never -0.
    """
    if a.ndim == 1:
        np.multiply(a, b, out=out)
    else:
        np.einsum("i,j->ij", a[:, 0], b, out=out)


def _vphi_into(k1, k2, k3, vp, vpp, work):
    """Elementwise (vphi, vphi_prime) of 2x2 covariances, written into vp, vpp.

    k1 and k2 broadcast against k3 as `_pair_product` takes them; `work` is
    `_workspace(k3.shape)`. The correlation is clamped to [-1, 1] before
    acos/sqrt so that rounding drift cannot produce NaN. Zero-variance
    entries (k1*k2 == 0) get the c = 0 limit: vphi = 0, vphi_prime = 1/4.
    Each shortcut below skips a full-block pass only where it cannot change
    a bit.
    """
    q, c, w, eq = work
    _pair_product(k1, k2, q)
    np.sqrt(q, out=q)
    # k1, k2 >= 0 and rounding is monotone, so every fl(k1 * k2) is at
    # least fl(min k1 * min k2): if that is positive, so is all of q.
    lo1 = k1.min()
    if lo1 * k2.min() > 0.0 or q.min() > 0.0:
        np.divide(k3, q, out=c)
    else:
        c.fill(0.0)
        np.divide(k3, q, out=c, where=q > 0)
    # the clamp changes nothing unless some c lies outside [-1, 1]
    hi = c.max()
    if hi > 1.0 or c.min() < -1.0:
        np.clip(c, -1.0, 1.0, out=c)
    ang = np.arccos(c, out=vpp)
    np.subtract(np.pi, ang, out=ang)
    # vp = (c * ang + sqrt(1 - c * c)) * q / (2 pi), in this order
    np.multiply(c, ang, out=vp)
    np.square(c, out=w)
    np.subtract(1.0, w, out=w)
    np.sqrt(w, out=w)
    vp += w
    vp *= q
    vp *= _INV_2PI
    vpp *= _INV_2PI
    # Identical streams must pin the c = 1 limit exactly: acos has an
    # unbounded derivative there, so letting rounding decide c would make
    # self pairs drift away from their own variance recursion. A pinned
    # entry has k1 = k2 = k3 = x > 0; with x in _EXACT_SQUARE, q = x and
    # c = x / x = 1 there, so without a c of 1 nothing is pinned. Outside
    # that range the exact test always runs.
    lo, top = _EXACT_SQUARE
    if hi >= 1.0 or not (lo <= lo1 and k1.max() <= top):
        np.equal(k1, k3, out=eq)
        if eq.any():
            eq &= (k2 == k3) & (k3 > 0)
            vp[eq] = 0.5 * k3[eq]
            vpp[eq] = 0.5


def _vphi_scalar(k1: float, k2: float, k3: float) -> tuple[float, float]:
    if k3 > 0.0 and k1 == k3 and k2 == k3:
        return 0.5 * k3, 0.5
    q = math.sqrt(k1 * k2)
    if q <= 0.0:
        return 0.0, 0.25
    c = min(1.0, max(-1.0, k3 / q))
    ang = math.pi - math.acos(c)
    vp = (c * ang + math.sqrt(max(0.0, 1.0 - c * c))) * q / (2.0 * math.pi)
    return vp, ang / (2.0 * math.pi)


def vphi(k1, k2, k3) -> tuple[float, float]:
    """The two ReLU moments of (z1, z2) ~ N(0, [[k1, k3], [k3, k2]]).

    Returns (E[relu(z1) * relu(z2)], E[relu'(z1) * relu'(z2)]), in closed form
    (c*(pi - acos(c)) + sqrt(1 - c^2)) * sqrt(k1*k2) / (2*pi) and
    (pi - acos(c)) / (2*pi), with c = k3 / sqrt(k1*k2) clamped to [-1, 1].
    Each argument must be a finite real (numpy scalars count, bools do not),
    and the variances k1, k2 nonnegative. Moments that overflow raise the
    ValueError that `kernel_pair` raises.
    """
    k1, k2, k3 = float(_real(k1, "k1")), float(_real(k2, "k2")), float(_real(k3, "k3"))
    if k1 < 0 or k2 < 0:
        raise ValueError("variances k1, k2 must be nonnegative")
    moments = _vphi_scalar(k1, k2, k3)
    if not all(map(math.isfinite, moments)):
        raise ValueError(_OVERFLOW)
    return moments


def _require_real(arr: np.ndarray, name: str) -> np.ndarray:
    """arr, unless it holds complex or bool values: refused by name.

    numpy would drop an imaginary part with only a warning, and read a
    bool as 0/1. Integer arrays are accepted.
    """
    if arr.dtype.kind in "cb":
        raise ValueError(f"{name} must hold real numbers, got {arr.dtype} values")
    return arr


def _input_pair(x, x_prime) -> np.ndarray:
    """The inputs as the columns of one (T, 2) array, once they are
    nonempty, finite, real 1-D sequences of equal length."""
    xa = np.asarray(_require_real(np.asarray(x), "x"), dtype=np.float64)
    xb = np.asarray(_require_real(np.asarray(x_prime), "x_prime"), dtype=np.float64)
    if xa.ndim != 1 or xa.shape != xb.shape:
        raise ShapeError("inputs must be 1-D sequences of equal length")
    if xa.shape[0] == 0:
        raise ShapeError("inputs must have at least one time step, got empty sequences")
    x2 = np.stack([xa, xb], axis=1)
    if not np.isfinite(x2).all():
        raise ValueError("inputs must be finite")
    return x2


class PairOutputs(NamedTuple):
    """Kernels of one input pair: last-step and pooled readouts."""

    ck_last: float
    ntk_last: float
    ck_avg: float
    ntk_avg: float


def kernel_pair(x, x_prime, params: HyperParams) -> PairOutputs:
    """Scalar reference recursion for a single input pair.

    Runs the covariance recursion with plain Python floats, one layer state
    per depth, advancing one time step at a time:

      t = 1:  sig[1] = su^2*x_1*x_1' + sb^2, deeper layers feed vphi upward;
      t >= 2: layer 1 adds sw^2*vphi(prev step), layer l >= 2 combines
              su^2*vphi(layer below, same step) + sw^2*vphi(same layer, prev
              step); biases add sb^2 everywhere.

    The NTK companion state accumulates vphi_prime-weighted products along
    the same schedule; each step's output head contributes
    ck_t = sv^2*vphi(top) and ntk_t = ck_t + sv^2*psi_top*vphi_prime(top).
    ck_avg/ntk_avg sum the per-step heads, ck_last/ntk_last keep the final
    step. Intended as the independently-auditable counterpart of `gram`;
    the batched path must agree with it entrywise.
    """
    xa, xb = _input_pair(x, x_prime).T

    su2 = params.sigma_u**2
    sw2 = params.sigma_w**2
    sb2 = params.sigma_b**2
    sv2 = params.sigma_v**2
    L = params.depth_L
    T = xa.shape[0]

    sab = [0.0] * L  # cross covariance per layer
    saa = [0.0] * L  # self covariance of x per layer
    sbb = [0.0] * L  # self covariance of x' per layer
    psi = [0.0] * L  # NTK companion state per layer
    vp = [0.0] * L
    vpp = [0.0] * L

    ck_last = ntk_last = ck_avg = ntk_avg = 0.0
    for t in range(T):
        for layer in range(L):
            if layer == 0:
                sab_new = su2 * float(xa[t] * xb[t]) + sb2
                saa_new = su2 * float(xa[t] * xa[t]) + sb2
                sbb_new = su2 * float(xb[t] * xb[t]) + sb2
                psi_new = 0.0
            else:
                sab_new = su2 * vp[layer - 1] + sb2
                saa_new = su2 * 0.5 * saa[layer - 1] + sb2
                sbb_new = su2 * 0.5 * sbb[layer - 1] + sb2
                psi_new = su2 * psi[layer - 1] * vpp[layer - 1]
            if t > 0:
                sab_new += sw2 * vp[layer]
                # vphi of a self pair is half its variance (correlation 1)
                saa_new += sw2 * 0.5 * saa[layer]
                sbb_new += sw2 * 0.5 * sbb[layer]
                psi_new += sw2 * psi[layer] * vpp[layer]
            psi_new += sab_new
            sab[layer], saa[layer], sbb[layer] = sab_new, saa_new, sbb_new
            psi[layer] = psi_new
            vp[layer], vpp[layer] = _vphi_scalar(saa[layer], sbb[layer], sab[layer])
        ck_t = sv2 * vp[L - 1]
        ntk_t = ck_t + sv2 * psi[L - 1] * vpp[L - 1]
        ck_avg += ck_t
        ntk_avg += ntk_t
        ck_last, ntk_last = ck_t, ntk_t
    out = PairOutputs(ck_last, ntk_last, ck_avg, ntk_avg)
    if not all(map(math.isfinite, out)):
        raise ValueError(_OVERFLOW)
    return out


def _self_trajectory(X, cols, params: HyperParams, depth: int) -> np.ndarray:
    """Variance of every row's state at each step and layer, shape (T, depth, N).

    vphi of a self pair is half its variance (correlation 1): no vphi needed.
    """
    su2, sw2, sb2 = (v**2 for v in (params.sigma_u, params.sigma_w, params.sigma_b))
    s = np.empty((len(cols), depth, X.shape[0]))
    for t, col in enumerate(cols):
        for layer in range(depth):
            if layer == 0:
                s[t, 0] = su2 * (X[:, col] * X[:, col]) + sb2
            else:
                s[t, layer] = (su2 * 0.5) * s[t, layer - 1] + sb2
            if t > 0:
                s[t, layer] += (sw2 * 0.5) * s[t - 1, layer]
    return s


class Readout(NamedTuple):
    """One kernel read off the layer-and-time recursion.

    reverse picks the reversed-time pass, layer the 0-based layer whose head
    is read (layer l of a deeper recursion is the top of a depth-(l + 1)
    one), pooled sums the heads of every step instead of keeping the last,
    sv2 is sigma_v^2 and output the index of the (ck, ntk) pair it adds to.
    """

    reverse: bool
    layer: int
    pooled: bool
    sv2: float
    output: int


def _readouts(params: HyperParams, variant: Variant, output: int) -> list[Readout]:
    """The readouts of one kernel: a bidirectional one reads both passes."""
    if variant.bidirectional:
        directions = (False, True)
    else:
        directions = (variant.input_order is InputOrder.FLIPPED,)
    return [Readout(reverse, params.depth_L - 1, variant.pooled, params.sigma_v**2, output)
            for reverse in directions]


def _block(Xa, Xb, ia, ib, passes, params: HyperParams, outputs, dst):
    """Write the readouts of one block of (row of Xa, row of Xb) pairs into outputs.

    ia and ib turn a per-row vector into two arrays that broadcast to the
    block: a column and a row (a square block; inputs enter as outer
    products), or the row and column indices of a list of pairs. Each
    readout's block goes to out[d] for every index d in dst, where out is
    one of its output's matrices. The first readout of an output assigns:
    an accumulator that starts at +0.0 is never -0.0, so that equals
    0.0 + acc. Later readouts add to it. The block buffers (psi, vp, vpp per
    layer; covariance, vphi workspace, two accumulators per readout) are
    allocated once. Step 0 of each pass (direction) writes psi/vp/vpp
    without reading them, because its carries are zero.
    """
    su2, sw2, sb2 = (v**2 for v in (params.sigma_u, params.sigma_w, params.sigma_b))
    L = passes[0][1].shape[1]  # depth of the self trajectories: the deepest layer read
    shape = np.broadcast_shapes(Xa[:, 0][ia].shape, Xb[:, 0][ib].shape)
    psi, vp, vpp = ([np.empty(shape) for _ in range(L)] for _ in range(3))
    sab = np.empty(shape)
    accs = [(np.empty(shape), np.empty(shape))
            for _ in range(max(len(readouts) for *_, readouts in passes))]
    work = _workspace(shape)
    q, c, w, _ = work
    written = set()
    for cols, saa, sbb, readouts in passes:
        for acc_ck, acc_ntk in accs[:len(readouts)]:
            acc_ck.fill(0.0)
            acc_ntk.fill(0.0)
        for t, col in enumerate(cols):
            for layer in range(L):
                if layer == 0:
                    _pair_product(Xa[:, col][ia], Xb[:, col][ib], sab)
                    sab *= su2
                else:
                    np.multiply(vp[layer - 1], su2, out=sab)
                sab += sb2
                p = psi[layer]
                if layer > 0:
                    np.multiply(psi[layer - 1], su2, out=q)
                    q *= vpp[layer - 1]
                if t == 0:
                    # The zero carries are skipped: after += sb2 (sb2 >= +0)
                    # sab is never -0, so (0 + q) + sab == q + sab and
                    # sab + 0 == sab, bit for bit.
                    if layer > 0:
                        np.add(q, sab, out=p)
                    else:
                        np.copyto(p, sab)
                else:
                    # psi/vp/vpp[layer] still hold the previous step here,
                    # and the layer below already holds this step
                    vp[layer] *= sw2
                    sab += vp[layer]
                    p *= sw2
                    p *= vpp[layer]
                    if layer > 0:
                        p += q
                    p += sab
                _vphi_into(saa[t, layer][ia], sbb[t, layer][ib], sab,
                           vp[layer], vpp[layer], work)
            last = t == len(cols) - 1
            for r, (acc_ck, acc_ntk) in zip(readouts, accs):
                if r.pooled or last:
                    # ck_t = sv2 * vp_top, ntk_t = ck_t + sv2 * psi_top * vpp_top
                    np.multiply(vp[r.layer], r.sv2, out=c)
                    np.multiply(psi[r.layer], r.sv2, out=w)
                    w *= vpp[r.layer]
                    w += c
                    acc_ck += c
                    acc_ntk += w
        for r, pair in zip(readouts, accs):
            first = r.output not in written
            written.add(r.output)
            for out, acc in zip(outputs[r.output], pair):
                if not first:
                    acc += out[dst[0]]
                for d in dst:
                    out[d] = acc


def _resolve_threads(threads) -> int:
    """Worker count: the threads argument, else the cores."""
    if threads is None:
        return os.cpu_count() or 1
    count = _integer(threads, "threads")
    if count < 1:
        raise ValueError(f"threads must be at least 1, got {count}")
    return count


def _kernel_blocks(Xa, Xb, params: HyperParams, readouts, threads):
    """CK and NTK of every (row of Xa, row of Xb) pair for each output, block by block.

    params supplies sigma_w, sigma_u and sigma_b; the readouts supply the
    rest. Returns one (ck, ntk) pair per output index. Only the directions
    some readout reads are run, each up to the deepest layer read, and the
    forward pass runs first. Blocks are squares of edge _BLOCK_EDGE. When
    Xa is Xb only the upper triangle runs: a diagonal block as the list of
    its pairs, written into both triangles through flat indices, and an
    off-diagonal block mirrored.
    """
    edge = _BLOCK_EDGE
    symmetric = Xa is Xb
    depth = 1 + max(r.layer for r in readouts)
    forward = np.arange(Xa.shape[1])
    passes = []
    for reverse, cols in ((False, forward), (True, forward[::-1])):
        reads = [r for r in readouts if r.reverse is reverse]
        if reads:
            saa = _self_trajectory(Xa, cols, params, depth)
            sbb = saa if symmetric else _self_trajectory(Xb, cols, params, depth)
            passes.append((cols, saa, sbb, reads))
    na, nb = len(Xa), len(Xb)
    outputs = [(np.zeros((na, nb)), np.zeros((na, nb)))
               for _ in range(1 + max(r.output for r in readouts))]
    flat = [(ck.reshape(-1), ntk.reshape(-1)) for ck, ntk in outputs]

    def run_block(a: int, b: int):
        ra, rb = slice(a, min(a + edge, na)), slice(b, min(b + edge, nb))
        if symmetric and a == b:
            # a diagonal block runs the pairs of its upper triangle only,
            # and writes each into both triangles
            i, j = (k + a for k in np.triu_indices(ra.stop - a))
            _block(Xa, Xb, i, j, passes, params, flat, (i * nb + j, j * nb + i))
            return
        _block(Xa, Xb, (ra, None), rb, passes, params, outputs, ((ra, rb),))
        if symmetric:
            for ck, ntk in outputs:
                ck[rb, ra] = ck[ra, rb].T
                ntk[rb, ra] = ntk[ra, rb].T

    blocks = [(a, b) for a in range(0, na, edge)
              for b in range(a if symmetric else 0, nb, edge)]
    workers = min(_resolve_threads(threads), len(blocks))
    if workers <= 1:
        for a, b in blocks:
            run_block(a, b)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_block, *zip(*blocks)))  # raises a block's exception
    if not all(np.isfinite(m).all() for pair in outputs for m in pair):
        raise ValueError(_OVERFLOW)
    return outputs


def _as_matrix(data, name: str = "data") -> np.ndarray:
    try:
        arr = np.asarray(data)
        if arr.dtype.kind not in "cb":
            arr = arr.astype(np.float64, copy=False)
    except (ValueError, TypeError) as exc:
        raise ShapeError(f"{name} has ragged or non-numeric rows: {exc}") from exc
    _require_real(arr, name)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be a 2-D array of shape (N, T), got ndim={arr.ndim}")
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ShapeError(f"{name} must be nonempty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return np.ascontiguousarray(arr)


@dataclass(frozen=True)
class GramPair:
    """CK and NTK kernel matrices of one (params, variant) member.

    From `gram`/`gram_family` they are a dataset's Grams: exactly symmetric
    (the upper triangle is computed and mirrored) and positive semi-definite
    up to numerical tolerance, with NTK diagonal entries dominating CK
    diagonal entries. From `gram_cross`/`gram_cross_family` they are
    test-by-train blocks: rows index test points, columns train points.
    """

    ck: np.ndarray
    ntk: np.ndarray
    params: HyperParams
    variant: Variant


def gram(data, params: HyperParams, variant: Variant = Variant(), *,
         threads=None) -> GramPair:
    """Compute the CK/NTK Gram matrices of a dataset under one variant.

    Entry (i, j) matches `kernel_pair` on rows i and j with the variant's
    readout, input ordering, and sigma_v scaling applied. Only the upper
    triangle is computed; mirroring makes symmetry exact by construction.
    This is the one-member `gram_family`.
    """
    return gram_family(data, [(params, variant)], threads=threads)[0]


def gram_cross(train, test, params: HyperParams, variant: Variant = Variant(), *,
               threads=None) -> GramPair:
    """Kernels between test rows and train rows: entry (i, j) = k(test_i, train_j).

    This is the one-member `gram_cross_family`.
    """
    return gram_cross_family(train, test, [(params, variant)], threads=threads)[0]


def _family_key(params: HyperParams) -> tuple:
    """What the members of one kernel family share: sigma_w, sigma_u and sigma_b."""
    return params.sigma_w, params.sigma_u, params.sigma_b


def _family(members) -> tuple[HyperParams, list[Readout]]:
    """Shared params and readouts of (params, variant) members of one family."""
    if not members:
        raise ValueError("a kernel family needs at least one member")
    shared = {_family_key(p) for p, _ in members}
    if len(shared) > 1:
        raise CompositionError("a kernel family must share sigma_w, sigma_u and sigma_b")
    return members[0][0], [r for k, (params, variant) in enumerate(members)
                           for r in _readouts(params, variant, k)]


def gram_family(data, members, *, threads=None) -> list[GramPair]:
    """`gram` of every (params, variant) member, all from one recursion.

    The members share sigma_w, sigma_u and sigma_b; depth, sigma_v and
    variant may differ. Each direction some member reads runs once, up to
    the deepest layer, and every member reads its heads off it, so entry k
    is bit for bit gram(data, *members[k]).
    """
    X = _as_matrix(data)
    outputs = _kernel_blocks(X, X, *_family(members), threads)
    return [GramPair(ck=ck, ntk=ntk, params=params, variant=variant)
            for (ck, ntk), (params, variant) in zip(outputs, members)]


def gram_cross_family(train, test, members, *, threads=None) -> list[GramPair]:
    """`gram_cross` of every (params, variant) member, as `gram_family` computes them."""
    Xtr = _as_matrix(train, "train")
    Xte = _as_matrix(test, "test")
    if Xtr.shape[1] != Xte.shape[1]:
        raise ShapeError(
            f"feature length mismatch: train T={Xtr.shape[1]}, test T={Xte.shape[1]}")
    outputs = _kernel_blocks(Xte, Xtr, *_family(members), threads)
    return [GramPair(ck=ck, ntk=ntk, params=params, variant=variant)
            for (ck, ntk), (params, variant) in zip(outputs, members)]


def flip(x):
    """Reverse the time order of a sequence: out[t] = in[T-1-t]. An involution."""
    arr = np.asarray(x)
    if arr.ndim != 1:
        raise ShapeError("flip expects a 1-D sequence")
    return arr[::-1].copy()
