import os
import tracemalloc

import numpy as np
import pytest

from rntk import (
    Arch,
    CompositionError,
    GramPair,
    HyperParams,
    InputOrder,
    ShapeError,
    Variant,
    flip,
    gram,
    gram_cross,
    gram_cross_family,
    gram_family,
    kernel_pair,
)
from rntk import kernels

from kernel_reference import reference_gram, reference_gram_cross

ALL_VARIANTS = [
    Variant(Arch.RNN),
    Variant(Arch.RNN, InputOrder.FLIPPED),
    Variant(Arch.RNN_AVG),
    Variant(Arch.RNN_AVG, InputOrder.FLIPPED),
    Variant(Arch.BI_RNN),
    Variant(Arch.BI_RNN_AVG),
]

HP = HyperParams(sigma_u=0.5, sigma_b=0.1, sigma_v=0.7, depth_L=2)


def _pair_reference(xi, xj, hp, variant):
    """Entry oracle assembled from the scalar reference recursion."""
    def heads(a, b):
        out = kernel_pair(a, b, hp)
        return (out.ck_avg, out.ntk_avg) if variant.pooled else (out.ck_last, out.ntk_last)

    if variant.bidirectional:
        ck_f, ntk_f = heads(xi, xj)
        ck_b, ntk_b = heads(flip(xi), flip(xj))
        return ck_f + ck_b, ntk_f + ntk_b
    if variant.input_order is InputOrder.FLIPPED:
        return heads(flip(xi), flip(xj))
    return heads(xi, xj)


def test_matches_scalar_reference_all_variants():
    rng = np.random.default_rng(21)
    X = rng.standard_normal((7, 5))
    for variant in ALL_VARIANTS:
        gp = gram(X, HP, variant)
        for i in range(7):
            for j in range(i, 7):
                ck_ref, ntk_ref = _pair_reference(X[i], X[j], HP, variant)
                assert gp.ck[i, j] == pytest.approx(ck_ref, rel=1e-12), variant
                assert gp.ntk[i, j] == pytest.approx(ntk_ref, rel=1e-12), variant


def test_exact_symmetry():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((23, 6))
    for variant in ALL_VARIANTS:
        gp = gram(X, HP, variant)
        assert np.array_equal(gp.ck, gp.ck.T)
        assert np.array_equal(gp.ntk, gp.ntk.T)


def test_single_point_matches_kernel_pair():
    x = np.array([[0.4, -1.2, 0.9]])
    gp = gram(x, HP)
    out = kernel_pair(x[0], x[0], HP)
    assert gp.ck.shape == (1, 1)
    assert gp.ck[0, 0] == pytest.approx(out.ck_last, rel=1e-12)
    assert gp.ntk[0, 0] == pytest.approx(out.ntk_last, rel=1e-12)


def test_duplicate_rows_give_identical_gram_rows():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((5, 4))
    X[3] = X[1]
    gp = gram(X, HP, Variant(Arch.BI_RNN))
    assert np.array_equal(gp.ck[1], gp.ck[3])
    assert np.array_equal(gp.ntk[1], gp.ntk[3])


def test_positive_semidefinite():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((30, 8))
    for variant in ALL_VARIANTS:
        gp = gram(X, HP, variant)
        for mat in (gp.ck, gp.ntk):
            floor = -1e-8 * np.trace(mat) / mat.shape[0]
            assert np.linalg.eigvalsh(mat).min() >= floor, variant


def test_ntk_dominates_ck_on_diagonal():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((12, 5))
    for variant in ALL_VARIANTS:
        gp = gram(X, HP, variant)
        assert np.all(np.diag(gp.ntk) >= np.diag(gp.ck))


def test_sigma_v_scaling_exact():
    rng = np.random.default_rng(10)
    X = rng.standard_normal((9, 4))
    base = gram(X, HyperParams(sigma_u=0.5, sigma_b=0.1, sigma_v=1.0, depth_L=2))
    scaled = gram(X, HyperParams(sigma_u=0.5, sigma_b=0.1, sigma_v=2.0, depth_L=2))
    assert np.array_equal(scaled.ck, 4.0 * base.ck)
    assert np.array_equal(scaled.ntk, 4.0 * base.ntk)


def test_bidirectional_flip_invariance():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((10, 6))
    for arch in (Arch.BI_RNN, Arch.BI_RNN_AVG):
        original = gram(X, HP, Variant(arch))
        flipped = gram(X[:, ::-1], HP, Variant(arch))
        np.testing.assert_allclose(original.ck, flipped.ck, rtol=1e-12, atol=0)
        np.testing.assert_allclose(original.ntk, flipped.ntk, rtol=1e-12, atol=0)


def test_flip_utility():
    np.testing.assert_array_equal(flip([1.0, 2.0, 3.0, 4.0]), [4.0, 3.0, 2.0, 1.0])
    x = np.array([0.5, -2.0, 7.0])
    np.testing.assert_array_equal(flip(flip(x)), x)
    np.testing.assert_array_equal(flip([1.0, 2.0, 1.0]), [1.0, 2.0, 1.0])
    with pytest.raises(ShapeError):
        flip(np.ones((2, 2)))


def test_compose_bidirectional_matches_internal():
    rng = np.random.default_rng(14)
    X = rng.standard_normal((8, 5))
    for arch, bi_arch in [(Arch.RNN, Arch.BI_RNN), (Arch.RNN_AVG, Arch.BI_RNN_AVG)]:
        fwd = gram(X, HP, Variant(arch))
        bwd = gram(X[:, ::-1], HP, Variant(arch))
        direct = gram(X, HP, Variant(bi_arch))
        np.testing.assert_array_equal(fwd.ck + bwd.ck, direct.ck)
        np.testing.assert_array_equal(fwd.ntk + bwd.ntk, direct.ntk)


def test_palindrome_rows_double_under_bidirectional():
    X = np.array([[1.0, 2.0, 1.0], [0.3, -0.5, 0.3]])
    uni = gram(X, HP, Variant(Arch.RNN))
    bi = gram(X, HP, Variant(Arch.BI_RNN))
    np.testing.assert_allclose(bi.ck, 2.0 * uni.ck, rtol=1e-12)
    np.testing.assert_allclose(bi.ntk, 2.0 * uni.ntk, rtol=1e-12)


def test_gram_cross_consistency():
    rng = np.random.default_rng(18)
    train = rng.standard_normal((9, 5))
    test = rng.standard_normal((4, 5))
    both = np.vstack([train, test])
    for variant in ALL_VARIANTS:
        cross = gram_cross(train, test, HP, variant)
        assert cross.ck.shape == (4, 9)
        full = gram(both, HP, variant)
        np.testing.assert_allclose(cross.ck, full.ck[9:, :9], rtol=1e-12, atol=0)
        np.testing.assert_allclose(cross.ntk, full.ntk[9:, :9], rtol=1e-12, atol=0)


def test_gram_cross_same_set_matches_gram():
    rng = np.random.default_rng(20)
    X = rng.standard_normal((7, 4))
    gp = gram(X, HP, Variant(Arch.BI_RNN))
    cross = gram_cross(X, X, HP, Variant(Arch.BI_RNN))
    np.testing.assert_allclose(cross.ck, gp.ck, rtol=1e-12, atol=0)
    np.testing.assert_allclose(cross.ntk, gp.ntk, rtol=1e-12, atol=0)


def test_one_result_type_through_the_family_engine():
    import rntk

    assert not hasattr(rntk, "CrossGram") and not hasattr(kernels, "CrossGram")
    rng = np.random.default_rng(24)
    train = rng.standard_normal((6, 4))
    test = rng.standard_normal((3, 4))
    for variant in ALL_VARIANTS:
        cross = gram_cross(train, test, HP, variant)
        one, = gram_cross_family(train, test, [(HP, variant)])
        assert type(cross) is type(one) is GramPair
        assert (cross.params, cross.variant) == (HP, variant)
        assert np.array_equal(cross.ck, one.ck) and np.array_equal(cross.ntk, one.ntk)
        gp = gram(train, HP, variant)
        assert type(gp) is GramPair


def test_gram_cross_single_row_matches_kernel_pair():
    rng = np.random.default_rng(22)
    train = rng.standard_normal((5, 3))
    test = rng.standard_normal((1, 3))
    cross = gram_cross(train, test, HP)
    for j in range(5):
        out = kernel_pair(test[0], train[j], HP)
        assert cross.ck[0, j] == pytest.approx(out.ck_last, rel=1e-12)
        assert cross.ntk[0, j] == pytest.approx(out.ntk_last, rel=1e-12)


def test_tiling_and_threads_do_not_change_results(monkeypatch):
    rng = np.random.default_rng(24)
    X = rng.standard_normal((13, 4))
    base = gram(X, HP, Variant(Arch.RNN_AVG))
    monkeypatch.setattr(kernels, "_BLOCK_EDGE", 4)
    tiled = gram(X, HP, Variant(Arch.RNN_AVG))
    threaded = gram(X, HP, Variant(Arch.RNN_AVG), threads=4)
    assert np.array_equal(base.ck, tiled.ck)
    assert np.array_equal(base.ntk, tiled.ntk)
    assert np.array_equal(base.ck, threaded.ck)
    assert np.array_equal(base.ntk, threaded.ntk)


def test_shape_errors():
    with pytest.raises(ShapeError):
        gram([[1.0, 2.0], [3.0]], HP)
    with pytest.raises(ShapeError):
        gram(np.empty((0, 4)), HP)
    with pytest.raises(ShapeError):
        gram(np.empty((4, 0)), HP)
    with pytest.raises(ShapeError):
        gram_cross(np.ones((3, 4)), np.ones((2, 5)), HP)
    with pytest.raises(ValueError):
        gram(np.array([[1.0, float("nan")]]), HP)
    # a complex matrix lost its imaginary part, with numpy's warning as the
    # only sign, and a bool one was read as 0/1
    ones = np.ones((3, 2))
    for bad in (ones + 1j, ones > 0, [[1.0, 2j], [3.0, 4.0]]):
        with pytest.raises(ValueError, match="data must hold real numbers"):
            gram(bad, HP)
        with pytest.raises(ValueError, match="train must hold real numbers"):
            gram_cross(bad, ones[:2], HP)
        with pytest.raises(ValueError, match="test must hold real numbers"):
            gram_cross(ones, bad, HP)
    # integer matrices stay accepted
    X = np.arange(6).reshape(3, 2)
    assert np.array_equal(gram(X, HP).ck, gram(X.astype(float), HP).ck)


def test_block_edge_is_not_a_setting():
    X = np.ones((3, 2))
    with pytest.raises(TypeError):
        gram(X, HP, tile_pairs=16)
    with pytest.raises(TypeError):
        gram_cross(X, X[:2], HP, tile_pairs=16)
    with pytest.raises(TypeError):
        gram_family(X, [(HP, Variant())], tile_pairs=16)
    with pytest.raises(TypeError):
        gram_cross_family(X, X[:2], [(HP, Variant())], tile_pairs=16)


def test_threads_below_one_rejected(monkeypatch):
    X = np.ones((3, 2))
    for threads in (0, -4):
        with pytest.raises(ValueError, match="threads must be at least 1"):
            gram(X, HP, threads=threads)
    # a fraction was truncated and a bool read as 0 or 1 workers
    for threads in (2.7, 1.0, True):
        with pytest.raises(ValueError, match="threads must be an integer"):
            gram(X, HP, threads=threads)
        with pytest.raises(ValueError, match="threads must be an integer"):
            gram_cross(X, X[:2], HP, threads=threads)
    assert np.array_equal(gram(X, HP, threads=np.int64(2)).ck, gram(X, HP, threads=1).ck)
    assert np.array_equal(gram(X, HP, threads=1).ck, gram(X, HP, threads=2).ck)
    # threads= is the one setting: the former RNTK_THREADS variable is ignored
    monkeypatch.setenv("RNTK_THREADS", "abc")
    assert kernels._resolve_threads(None) == (os.cpu_count() or 1)
    assert np.array_equal(gram(X, HP).ck, gram(X, HP, threads=1).ck)
    assert np.array_equal(gram_cross(X, X[:2], HP).ntk, gram_cross(X, X[:2], HP, threads=1).ntk)


def test_block_engine_matches_pair_engine_bit_for_bit(monkeypatch):
    # 13 rows: not a multiple of the block edge 4; a zero row
    # (zero variance when sigma_b = 0), duplicated rows (the c = 1 pin fires
    # off the diagonal) and a test row equal to a train row
    rng = np.random.default_rng(28)
    X = rng.standard_normal((13, 5))
    X[4] = 0.0
    X[9] = X[2]
    Y = rng.standard_normal((6, 5))
    Y[1] = X[2]
    Y[3] = 0.0
    for depth in (1, 2, 3):
        for sigma_b in (0.1, 0.0):
            hp = HyperParams(sigma_u=0.5, sigma_b=sigma_b, sigma_v=0.7, depth_L=depth)
            for variant in ALL_VARIANTS:
                ref = reference_gram(X, hp, variant)
                ref_cross = reference_gram_cross(X, Y, hp, variant)
                for edge in (1, 4, 256):
                    monkeypatch.setattr(kernels, "_BLOCK_EDGE", edge)
                    for threads in (1, 4):
                        gp = gram(X, hp, variant, threads=threads)
                        cross = gram_cross(X, Y, hp, variant, threads=threads)
                        case = (depth, sigma_b, variant, edge, threads)
                        assert np.array_equal(gp.ck, ref.ck), case
                        assert np.array_equal(gp.ntk, ref.ntk), case
                        assert np.array_equal(cross.ck, ref_cross.ck), case
                        assert np.array_equal(cross.ntk, ref_cross.ntk), case


def _edge_case_rows():
    """Rows that reach every shortcut of the block engine, and their cross rows.

    With sigma_b = 0: a scaled and a negated copy of row 0 (correlations
    that round past +1 and below -1), a zero row (zero variance), and
    duplicated rows at scale 2^258 and 2^-259, whose self-variances (about
    2^514 and 2^-520) lie outside [2^-510, 2^510], so that q = sqrt(k1 * k2)
    overflows or loses bits and a pinned pair need not have c = 1.
    """
    rng = np.random.default_rng(33)
    X = rng.standard_normal((10, 4))
    X[1] = 3.0 * X[0]
    X[2] = -X[0]
    X[3] = 0.0
    X[5] = X[4] = 2.0**258 * X[4]
    X[7] = X[6] = 2.0**-259 * X[6]
    Y = rng.standard_normal((7, 4))
    Y[0] = -3.0 * X[0]
    Y[1] = X[4]
    Y[2] = X[6]
    Y[3] = 0.0
    Y[4] = 0.5 * X[0]
    return X, Y


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_block_shortcuts_match_pair_engine_bit_for_bit(monkeypatch):
    # edge 1 puts every pair in a block of its own, so no other entry of
    # the block can trigger the full-block clamp or pin test for it
    X, Y = _edge_case_rows()
    for depth in (1, 2, 3):
        for sigma_b in (0.0, 0.1):
            hp = HyperParams(sigma_u=0.5, sigma_b=sigma_b, sigma_v=0.7, depth_L=depth)
            for variant in ALL_VARIANTS:
                ref = reference_gram(X, hp, variant)
                ref_cross = reference_gram_cross(X, Y, hp, variant)
                for edge in (1, 3, kernels._BLOCK_EDGE):
                    monkeypatch.setattr(kernels, "_BLOCK_EDGE", edge)
                    gp = gram(X, hp, variant, threads=1)
                    cross = gram_cross(X, Y, hp, variant, threads=1)
                    case = (depth, sigma_b, variant, edge)
                    assert np.array_equal(gp.ck, ref.ck), case
                    assert np.array_equal(gp.ntk, ref.ntk), case
                    assert np.array_equal(cross.ck, ref_cross.ck), case
                    assert np.array_equal(cross.ntk, ref_cross.ntk), case


def test_default_edge_blocks_match_pair_engine_bit_for_bit():
    # full-size diagonal and off-diagonal blocks, and the ragged last ones
    rng = np.random.default_rng(35)
    X = rng.standard_normal((2 * kernels._BLOCK_EDGE + 9, 6))
    X[150] = X[3]
    X[200] = 0.0
    Y = rng.standard_normal((kernels._BLOCK_EDGE + 5, 6))
    Y[7] = X[3]
    hp = HyperParams(sigma_u=0.5, sigma_b=0.0, sigma_v=0.7, depth_L=2)
    for variant in (Variant(Arch.RNN), Variant(Arch.BI_RNN_AVG)):
        ref = reference_gram(X, hp, variant)
        ref_cross = reference_gram_cross(X, Y, hp, variant)
        gp = gram(X, hp, variant, threads=2)
        cross = gram_cross(X, Y, hp, variant, threads=2)
        assert np.array_equal(gp.ck, ref.ck), variant
        assert np.array_equal(gp.ntk, ref.ntk), variant
        assert np.array_equal(cross.ck, ref_cross.ck), variant
        assert np.array_equal(cross.ntk, ref_cross.ntk), variant


def test_small_gram_with_two_readouts_per_output_matches_pair_engine():
    # one diagonal block at the default edge, written into both triangles
    # through flat indices; the bidirectional members add their reversed
    # pass onto the forward one, and the plain member is read off it
    rng = np.random.default_rng(37)
    X = rng.standard_normal((75, 6))
    X[10] = X[3]
    X[20] = 0.0
    assert len(X) <= kernels._BLOCK_EDGE
    hp = HyperParams(sigma_u=0.5, sigma_b=0.0, sigma_v=0.7, depth_L=2)
    members = [(hp, Variant(Arch.BI_RNN)), (hp, Variant(Arch.RNN)),
               (HyperParams(sigma_u=0.5, sigma_b=0.0, sigma_v=0.3, depth_L=1),
                Variant(Arch.BI_RNN_AVG))]
    for gp, (params, variant) in zip(gram_family(X, members, threads=1), members):
        ref = reference_gram(X, params, variant)
        assert np.array_equal(gp.ck, ref.ck), variant
        assert np.array_equal(gp.ntk, ref.ntk), variant


def test_family_matches_gram_bit_for_bit(monkeypatch):
    # one family: every variant at depths 1, 2 and 3, each with its own
    # sigma_v; the same zero and duplicated rows as the engine test above
    rng = np.random.default_rng(31)
    X = rng.standard_normal((13, 5))
    X[4] = 0.0
    X[9] = X[2]
    Y = rng.standard_normal((6, 5))
    Y[1] = X[2]
    Y[3] = 0.0
    for sigma_b in (0.1, 0.0):
        members = [(HyperParams(sigma_u=0.5, sigma_b=sigma_b, sigma_v=0.3 + 0.1 * k,
                                depth_L=depth), variant)
                   for k, variant in enumerate(ALL_VARIANTS) for depth in (1, 2, 3)]
        # gram itself does not depend on the block edge or threads (tested above)
        refs = [(gram(X, hp, variant, threads=1), gram_cross(X, Y, hp, variant, threads=1))
                for hp, variant in members]
        for edge in (1, 4, 256):
            monkeypatch.setattr(kernels, "_BLOCK_EDGE", edge)
            for threads in (1, 4):
                family = gram_family(X, members, threads=threads)
                crosses = gram_cross_family(X, Y, members, threads=threads)
                assert len(family) == len(crosses) == len(members)
                for (hp, variant), gp, cross, (ref, ref_cross) in zip(
                        members, family, crosses, refs):
                    case = (hp.depth_L, sigma_b, variant, edge, threads)
                    assert (gp.params, gp.variant) == (hp, variant), case
                    assert (cross.params, cross.variant) == (hp, variant), case
                    assert np.array_equal(gp.ck, ref.ck), case
                    assert np.array_equal(gp.ntk, ref.ntk), case
                    assert np.array_equal(cross.ck, ref_cross.ck), case
                    assert np.array_equal(cross.ntk, ref_cross.ntk), case


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_recursion_fails_loudly():
    # finite rows whose self-variances (~2^514) overflow when multiplied
    X = np.array([[1.0, 2.0], [1.5, -0.5]]) * 2.0**258
    hp = HyperParams(sigma_b=0.0)
    with pytest.raises(ValueError, match="overflowed"):
        gram(X, hp)
    with pytest.raises(ValueError, match="overflowed"):
        gram_cross(X[:1], X[1:], hp)
    with pytest.raises(ValueError, match="overflowed"):
        gram_family(X, [(hp, Variant()), (hp, Variant(Arch.BI_RNN_AVG))])
    with pytest.raises(ValueError, match="overflowed"):
        kernel_pair(X[0], X[1], hp)


def test_family_members_must_share_the_recursion():
    X = np.ones((3, 2))
    with pytest.raises(ValueError, match="at least one member"):
        gram_family(X, [])
    with pytest.raises(ValueError, match="at least one member"):
        gram_cross_family(X, X[:2], [])
    for other in (HyperParams(sigma_u=0.25, sigma_b=0.1),
                  HyperParams(sigma_u=0.5, sigma_b=0.0),
                  HyperParams(sigma_w=1.0, sigma_u=0.5, sigma_b=0.1)):
        members = [(HP, Variant()), (other, Variant())]
        with pytest.raises(CompositionError, match="share"):
            gram_family(X, members)
        with pytest.raises(CompositionError, match="share"):
            gram_cross_family(X, X[:2], members)


def test_peak_working_set_is_outputs_plus_blocks(monkeypatch):
    # tracemalloc peak of one call = the two outputs + the per-row self
    # trajectories (T * L * N per direction) + a fixed per-block allowance:
    # 3L + 6 block-sized buffers plus slack for numpy's own scratch, which
    # is the same at T = 2 and T = 48. Index arrays over all pairs (16
    # bytes per pair) and flat per-pair outputs would exceed it.
    N, edge = 300, 64
    monkeypatch.setattr(kernels, "_BLOCK_EDGE", edge)
    block = edge * edge * 8
    rng = np.random.default_rng(30)
    for depth in (1, 3):
        hp = HyperParams(sigma_u=0.5, sigma_b=0.1, depth_L=depth)
        for variant in (Variant(Arch.RNN), Variant(Arch.BI_RNN_AVG)):
            passes = 2 if variant.bidirectional else 1
            extra = []
            for T in (2, 48):
                X = rng.standard_normal((N, T))
                tracemalloc.start()
                try:
                    gram(X, hp, variant, threads=1)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                extra.append(peak - 2 * N * N * 8 - passes * T * depth * N * 8)
            assert max(extra) <= (3 * depth + 6) * block + 128 * 1024, (depth, variant, extra)
            assert abs(extra[1] - extra[0]) <= 16 * 1024, (depth, variant, extra)
