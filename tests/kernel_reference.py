"""The pair-index kernel engine, used only by the tests.

rntk.kernels computes Gram matrices block by block. This is the earlier
engine it replaced: every (row of Xa, row of Xb) pair gets an entry in
global index arrays, tiles of pairs run the recursion on gathered inputs,
and four flat outputs are scattered into the matrix. It is kept verbatim
so that the block engine can be required to return the same bits.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from rntk.kernels import (
    GramPair,
    HyperParams,
    InputOrder,
    Variant,
    _as_matrix,
    _resolve_threads,
)

_INV_2PI = 0.5 / np.pi

# Pairs per tile: the old engine's default, one 256 x 256 block's worth.
TILE_PAIRS = 256 * 256


def _vphi_arrays(k1, k2, k3):
    """Elementwise (vphi, vphi_prime) for arrays of 2x2 covariances.

    The correlation is clamped to [-1, 1] before acos/sqrt so that rounding
    drift cannot produce NaN. Zero-variance entries (k1*k2 == 0) get the
    c = 0 limit: vphi = 0, vphi_prime = 1/4.
    """
    q = np.sqrt(k1 * k2)
    c = np.divide(k3, q, out=np.zeros_like(q), where=q > 0)
    np.clip(c, -1.0, 1.0, out=c)
    ang = np.pi - np.arccos(c)
    vp = (c * ang + np.sqrt(1.0 - c * c)) * q * _INV_2PI
    vpp = ang * _INV_2PI
    # Identical streams must pin the c = 1 limit exactly: acos has an
    # unbounded derivative there, so letting rounding decide c would make
    # self pairs drift away from their own variance recursion.
    eq = (k1 == k3) & (k2 == k3) & (k3 > 0)
    if eq.any():
        vp = np.where(eq, 0.5 * k3, vp)
        vpp = np.where(eq, 0.5, vpp)
    return vp, vpp


class RecursionState:
    """Per-tile buffers of the batched recursion.

    Holds one array per layer for the cross covariance, the two self
    covariances, the NTK companion state, and the cached vphi/vphi_prime of
    the current step, plus four readout accumulators. 6*L + 4 arrays total,
    each sized to the tile's pair count: the working set never grows with
    the sequence length T.
    """

    def __init__(self, depth_L: int):
        self.depth_L = depth_L
        none = [None] * depth_L
        self.sab = list(none)
        self.saa = list(none)
        self.sbb = list(none)
        self.psi = list(none)
        self.vp = list(none)
        self.vpp = list(none)
        self.ck_last = None
        self.ntk_last = None
        self.ck_avg = None
        self.ntk_avg = None

    def buffer_count(self) -> int:
        return 6 * self.depth_L + 4

    def step_heads(self, sv2: float):
        """Update readouts from the top layer after a time step."""
        top = self.depth_L - 1
        ck_t = sv2 * self.vp[top]
        ntk_t = ck_t + sv2 * self.psi[top] * self.vpp[top]
        if self.ck_avg is None:
            self.ck_avg = ck_t.copy()
            self.ntk_avg = ntk_t.copy()
        else:
            self.ck_avg += ck_t
            self.ntk_avg += ntk_t
        self.ck_last, self.ntk_last = ck_t, ntk_t


def _tile_kernels(Xa, Xb, ia, ib, cols, params: HyperParams) -> RecursionState:
    """Run the pair recursion for one tile of (row of Xa, row of Xb) pairs.

    `cols[t]` is the feature column fed at step t (reversed for flipped
    input order). Values are gathered per step, so nothing with a T-sized
    footprint is retained across steps.
    """
    su2 = params.sigma_u**2
    sw2 = params.sigma_w**2
    sb2 = params.sigma_b**2
    sv2 = params.sigma_v**2
    L = params.depth_L

    st = RecursionState(L)
    for t, col in enumerate(cols):
        xa = Xa[ia, col]
        xb = Xb[ib, col]
        for layer in range(L):
            if layer == 0:
                sab_new = su2 * (xa * xb) + sb2
                saa_new = su2 * (xa * xa) + sb2
                sbb_new = su2 * (xb * xb) + sb2
                psi_new = None
            else:
                sab_new = su2 * st.vp[layer - 1] + sb2
                saa_new = (su2 * 0.5) * st.saa[layer - 1] + sb2
                sbb_new = (su2 * 0.5) * st.sbb[layer - 1] + sb2
                psi_new = su2 * st.psi[layer - 1] * st.vpp[layer - 1]
            if t > 0:
                # st.vp/st.vpp[layer] still hold the previous step here.
                sab_new += sw2 * st.vp[layer]
                saa_new += (sw2 * 0.5) * st.saa[layer]
                sbb_new += (sw2 * 0.5) * st.sbb[layer]
                carry = sw2 * st.psi[layer] * st.vpp[layer]
                psi_new = carry if psi_new is None else psi_new + carry
            psi_new = sab_new if psi_new is None else psi_new + sab_new
            st.sab[layer], st.saa[layer], st.sbb[layer] = sab_new, saa_new, sbb_new
            st.psi[layer] = psi_new
            st.vp[layer], st.vpp[layer] = _vphi_arrays(saa_new, sbb_new, sab_new)
        st.step_heads(sv2)
    return st


def _run_pairs(Xa, Xb, ia, ib, cols, params, tile_pairs, threads):
    """Evaluate all index pairs tile by tile; returns four (P,) arrays."""
    n_pairs = ia.shape[0]
    out = tuple(np.empty(n_pairs) for _ in range(4))

    def run_tile(start: int, stop: int):
        st = _tile_kernels(Xa, Xb, ia[start:stop], ib[start:stop], cols, params)
        for dst, src in zip(out, (st.ck_last, st.ntk_last, st.ck_avg, st.ntk_avg)):
            dst[start:stop] = src

    bounds = list(range(0, n_pairs, tile_pairs)) + [n_pairs]
    tiles = [(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]
    workers = min(_resolve_threads(threads), len(tiles))
    if workers <= 1:
        for a, b in tiles:
            run_tile(a, b)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for future in [pool.submit(run_tile, a, b) for a, b in tiles]:
                future.result()
    return out


def _direction_passes(variant: Variant, T: int) -> list[np.ndarray]:
    forward = np.arange(T)
    if variant.bidirectional:
        return [forward, forward[::-1]]
    if variant.input_order is InputOrder.FLIPPED:
        return [forward[::-1]]
    return [forward]


def _select_heads(st_out, pooled: bool):
    ck_last, ntk_last, ck_avg, ntk_avg = st_out
    return (ck_avg, ntk_avg) if pooled else (ck_last, ntk_last)


def reference_gram(data, params: HyperParams, variant: Variant = Variant(), *,
                   tile_pairs: int = TILE_PAIRS, threads=None) -> GramPair:
    """The pair engine's `gram`: upper-triangle pairs, then a scatter."""
    X = _as_matrix(data)
    N, T = X.shape
    ia, ib = np.triu_indices(N)
    ck_flat = ntk_flat = None
    for cols in _direction_passes(variant, T):
        ck_dir, ntk_dir = _select_heads(
            _run_pairs(X, X, ia, ib, cols, params, tile_pairs, threads), variant.pooled)
        if ck_flat is None:
            ck_flat, ntk_flat = ck_dir, ntk_dir
        else:
            ck_flat = ck_flat + ck_dir
            ntk_flat = ntk_flat + ntk_dir
    ck = np.empty((N, N))
    ntk = np.empty((N, N))
    ck[ia, ib] = ck_flat
    ck[ib, ia] = ck_flat
    ntk[ia, ib] = ntk_flat
    ntk[ib, ia] = ntk_flat
    return GramPair(ck=ck, ntk=ntk, params=params, variant=variant)


def reference_gram_cross(train, test, params: HyperParams, variant: Variant = Variant(), *,
                         tile_pairs: int = TILE_PAIRS, threads=None) -> GramPair:
    """The pair engine's `gram_cross`: every (test row, train row) pair."""
    Xtr = _as_matrix(train, "train")
    Xte = _as_matrix(test, "test")
    n_te, T = Xte.shape
    n_tr = Xtr.shape[0]
    ia = np.repeat(np.arange(n_te), n_tr)
    ib = np.tile(np.arange(n_tr), n_te)
    ck_flat = ntk_flat = None
    for cols in _direction_passes(variant, T):
        ck_dir, ntk_dir = _select_heads(
            _run_pairs(Xte, Xtr, ia, ib, cols, params, tile_pairs, threads), variant.pooled)
        if ck_flat is None:
            ck_flat, ntk_flat = ck_dir, ntk_dir
        else:
            ck_flat = ck_flat + ck_dir
            ntk_flat = ntk_flat + ntk_dir
    return GramPair(ck=ck_flat.reshape(n_te, n_tr), ntk=ntk_flat.reshape(n_te, n_tr),
                    params=params, variant=variant)
