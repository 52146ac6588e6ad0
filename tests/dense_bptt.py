"""Readouts and BPTT gradients of dense RNN draws, for tests.

The estimators run `_forward_cols` and `_backward_cols` on lazy draws.
Here `dense_pass` runs the same two functions on dense `RNNWeights`
(numpy arrays answer `@` and `.T @` as the lazy operators do), held as
the `weights` of a working set of their own, so a test can perturb
single weights and compare central differences of `readout` with
`flat_gradient`.

`nets` is (forward net,) or (forward net, reversed-direction net); the
second net is read only by bidirectional variants. Flat order is the
blocks W[0..L-1], U[0..L-1], b[0..L-1], V of each net in turn, each
raveled.
"""

import math

import numpy as np

from rntk import InputOrder, flip
from rntk.oracle import _backward_cols, _forward_cols, _selectors, _WorkingSet


def dense_pass(net, params, X, Csel=None):
    """(working set, heads) of the dense draw `net` run forward on the
    (T, B) batch X and, given (T, S) selectors Csel, backward."""
    S = 0 if Csel is None else Csel.shape[1]
    work = _WorkingSet(net.depth_L, net.width, *X.shape, S)
    work.weights = net
    heads = _forward_cols(params, X, work)
    if Csel is not None:
        _backward_cols(params, Csel, work)
    return work, heads


def _fed(nets, x, variant):
    """(net, sequence as fed) for each net the variant reads."""
    arr = np.asarray(x, dtype=np.float64)
    if variant.input_order is InputOrder.FLIPPED:
        arr = flip(arr)
    if variant.bidirectional:
        return [(nets[0], arr), (nets[1], flip(arr))]
    return [(nets[0], arr)]


def readout(nets, params, x, variant) -> float:
    """The variant's output on one input: a bidirectional one sums two nets."""
    total = 0.0
    for net, seq in _fed(nets, x, variant):
        heads = dense_pass(net, params, seq[:, None])[1]
        total += float(heads[:, 0].sum()) if variant.pooled else float(heads[-1, 0])
    return total


def gradient_blocks(net, params, x_fed, pooled: bool):
    """(gW, gU, gb, gV): the readout's gradient w.r.t. one net's raw weights."""
    n = net.width
    L = net.depth_L
    T = x_fed.shape[0]
    X = x_fed[:, None]
    Csel = _selectors(T)[:, 1:2] if pooled else _selectors(T)[:, 0:1]
    work = dense_pass(net, params, X, Csel)[0]
    H, D = work.H, work.Delta[:, :, :, 0, 0]  # D is (L, T, n)

    sw = params.sigma_w / math.sqrt(n)
    su = params.sigma_u / math.sqrt(n)
    sv = params.sigma_v / math.sqrt(n)
    gW = [sw * np.einsum("tn,tm->nm", D[layer], H[layer, :T, :, 0]) for layer in range(L)]
    gU = [params.sigma_u * (D[0].T @ X)]
    gU += [su * np.einsum("tn,tm->nm", D[layer], H[layer - 1, 1:, :, 0])
           for layer in range(1, L)]
    gb = [params.sigma_b * D[layer].sum(axis=0) for layer in range(L)]
    gV = sv * Csel[:, 0][:, None] * H[L - 1, 1:, :, 0]
    return gW, gU, gb, gV


def _blocks(net):
    return net.W + net.U + net.b + [net.V]


def flat_gradient(nets, params, x, variant) -> np.ndarray:
    """Gradient of `readout` in flat order; a net the variant does not read
    contributes zeros."""
    fed = _fed(nets, x, variant)
    parts = []
    for net, seq in fed:
        gW, gU, gb, gV = gradient_blocks(net, params, seq, variant.pooled)
        parts += gW + gU + gb + [gV]
    parts += [np.zeros(a.shape) for net in nets[len(fed):] for a in _blocks(net)]
    return np.concatenate([p.ravel() for p in parts])


def n_weights(nets) -> int:
    return sum(a.size for net in nets for a in _blocks(net))


def _locate(nets, j):
    """(array, raveled index) of flat coordinate j, for in-place perturbation."""
    for arr in (a for net in nets for a in _blocks(net)):
        if j < arr.size:
            return arr, j
        j -= arr.size
    raise IndexError(j)


def central_difference(nets, params, x, variant, j, step) -> float:
    """(readout(w + step e_j) - readout(w - step e_j)) / (2 step); w is restored."""
    arr, k = _locate(nets, j)
    orig = arr.flat[k]
    outs = []
    try:
        for value in (orig + step, orig - step):
            arr.flat[k] = value
            outs.append(readout(nets, params, x, variant))
    finally:
        arr.flat[k] = orig
    return (outs[0] - outs[1]) / (2.0 * step)
