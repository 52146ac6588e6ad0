import math

import numpy as np
import pytest

from rntk import HyperParams, ShapeError, kernel_pair, vphi


def _vphi_ref(k1, k2, k3):
    q = math.sqrt(k1 * k2)
    if q == 0.0:
        return 0.0, 0.25
    c = min(1.0, max(-1.0, k3 / q))
    ang = math.pi - math.acos(c)
    return (c * ang + math.sqrt(1.0 - c * c)) * q / (2.0 * math.pi), ang / (2.0 * math.pi)


def test_single_step_depth_one_hand_values():
    # x=[1], x'=[2], sigma_u=0.5, sigma_b=0.1: cross covariance 0.25*2 + 0.01 = 0.51
    hp = HyperParams(sigma_u=0.5, sigma_b=0.1, sigma_v=1.0, depth_L=1)
    sab, saa, sbb = 0.51, 0.26, 1.01
    vp, vpp = _vphi_ref(saa, sbb, sab)
    out = kernel_pair([1.0], [2.0], hp)
    assert out.ck_last == pytest.approx(vp, rel=1e-14)
    assert out.ntk_last == pytest.approx(vp + sab * vpp, rel=1e-14)
    assert out.ck_avg == out.ck_last
    assert out.ntk_avg == out.ntk_last


def test_two_steps_depth_one_hand_recursion():
    hp = HyperParams(sigma_w=math.sqrt(2.0), sigma_u=0.5, sigma_b=0.1, sigma_v=0.8, depth_L=1)
    x = [0.3, -1.1]
    xp = [0.7, 0.4]
    su2, sw2, sb2, sv2 = 0.25, 2.0, 0.01, 0.64

    sab = su2 * x[0] * xp[0] + sb2
    saa = su2 * x[0] * x[0] + sb2
    sbb = su2 * xp[0] * xp[0] + sb2
    psi = sab
    vp1, vpp1 = _vphi_ref(saa, sbb, sab)
    ck1 = sv2 * vp1
    ntk1 = ck1 + sv2 * psi * vpp1

    sab2 = su2 * x[1] * xp[1] + sw2 * vp1 + sb2
    saa2 = su2 * x[1] * x[1] + sw2 * 0.5 * saa + sb2
    sbb2 = su2 * xp[1] * xp[1] + sw2 * 0.5 * sbb + sb2
    psi2 = sab2 + sw2 * psi * vpp1
    vp2, vpp2 = _vphi_ref(saa2, sbb2, sab2)
    ck2 = sv2 * vp2
    ntk2 = ck2 + sv2 * psi2 * vpp2

    out = kernel_pair(x, xp, hp)
    assert out.ck_last == pytest.approx(ck2, rel=1e-14)
    assert out.ntk_last == pytest.approx(ntk2, rel=1e-14)
    assert out.ck_avg == pytest.approx(ck1 + ck2, rel=1e-14)
    assert out.ntk_avg == pytest.approx(ntk1 + ntk2, rel=1e-14)


def test_two_layers_single_step_hand_recursion():
    hp = HyperParams(sigma_u=0.5, sigma_b=0.1, sigma_v=1.0, depth_L=2)
    x, xp = [0.9], [-0.2]
    su2, sb2 = 0.25, 0.01

    sab1 = su2 * x[0] * xp[0] + sb2
    saa1 = su2 * x[0] * x[0] + sb2
    sbb1 = su2 * xp[0] * xp[0] + sb2
    psi1 = sab1
    vp1, vpp1 = _vphi_ref(saa1, sbb1, sab1)

    sab2 = su2 * vp1 + sb2
    saa2 = su2 * 0.5 * saa1 + sb2
    sbb2 = su2 * 0.5 * sbb1 + sb2
    psi2 = sab2 + su2 * psi1 * vpp1
    vp2, vpp2 = _vphi_ref(saa2, sbb2, sab2)

    out = kernel_pair(x, xp, hp)
    assert out.ck_last == pytest.approx(vp2, rel=1e-14)
    assert out.ntk_last == pytest.approx(vp2 + psi2 * vpp2, rel=1e-14)


def test_symmetric_in_arguments():
    rng = np.random.default_rng(3)
    hp = HyperParams(sigma_u=0.4, sigma_b=0.05, depth_L=2)
    for _ in range(20):
        x = rng.standard_normal(6)
        xp = rng.standard_normal(6)
        a = kernel_pair(x, xp, hp)
        b = kernel_pair(xp, x, hp)
        assert a == b


def test_single_step_avg_equals_last():
    hp = HyperParams(depth_L=2)
    out = kernel_pair([1.3], [0.2], hp)
    assert out.ck_avg == out.ck_last
    assert out.ntk_avg == out.ntk_last


def test_prefix_additivity():
    rng = np.random.default_rng(5)
    hp = HyperParams(sigma_u=0.5, sigma_b=0.1, depth_L=2)
    x = rng.standard_normal(6)
    xp = rng.standard_normal(6)
    full = kernel_pair(x, xp, hp)
    ck_sum = ntk_sum = 0.0
    for t in range(1, 7):
        prefix = kernel_pair(x[:t], xp[:t], hp)
        ck_sum += prefix.ck_last
        ntk_sum += prefix.ntk_last
    assert full.ck_avg == pytest.approx(ck_sum, rel=1e-12)
    assert full.ntk_avg == pytest.approx(ntk_sum, rel=1e-12)


def test_ntk_dominates_ck_on_diagonal():
    rng = np.random.default_rng(9)
    for depth in (1, 2, 3):
        hp = HyperParams(sigma_u=0.3, sigma_b=0.02, depth_L=depth)
        x = rng.standard_normal(5)
        out = kernel_pair(x, x, hp)
        assert out.ntk_last >= out.ck_last > 0
        assert out.ntk_avg >= out.ck_avg


def test_shape_errors():
    hp = HyperParams()
    with pytest.raises(ShapeError):
        kernel_pair([1.0, 2.0], [1.0], hp)
    with pytest.raises(ShapeError):
        kernel_pair([], [], hp)
    with pytest.raises(ShapeError):
        kernel_pair([[1.0]], [[1.0]], hp)
    with pytest.raises(ValueError):
        kernel_pair([float("nan")], [1.0], hp)
    # a complex input lost its imaginary part and a bool one read as 0/1
    for bad in ([1.0, 2j], np.array([1.0, 2.0]) + 0j, [True, False]):
        with pytest.raises(ValueError, match="x must hold real numbers"):
            kernel_pair(bad, [1.0, 2.0], hp)
        with pytest.raises(ValueError, match="x_prime must hold real numbers"):
            kernel_pair([1.0, 2.0], bad, hp)
    # integer sequences stay accepted
    assert kernel_pair([1, 2], [3, -1], hp) == kernel_pair([1.0, 2.0], [3.0, -1.0], hp)


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        HyperParams(sigma_w=0.0)
    with pytest.raises(ValueError):
        HyperParams(sigma_u=-1.0)
    with pytest.raises(ValueError):
        HyperParams(sigma_b=-0.1)
    with pytest.raises(ValueError):
        HyperParams(depth_L=0)
    with pytest.raises(ValueError):
        HyperParams(sigma_v=float("inf"))


def test_numbers_from_numpy_are_stored_as_python_numbers():
    hp = HyperParams(depth_L=np.int64(2), sigma_u=np.float32(0.5), sigma_b=np.float64(0.1))
    assert hp == HyperParams(depth_L=2, sigma_u=0.5, sigma_b=0.1)
    assert hash(hp) == hash(HyperParams(depth_L=2, sigma_u=0.5, sigma_b=0.1))
    assert type(hp.depth_L) is int and type(hp.sigma_u) is float and type(hp.sigma_b) is float
    assert repr(hp) == repr(HyperParams(depth_L=2, sigma_u=0.5, sigma_b=0.1))
    # Python ints stay ints, so labels built from them keep their text
    assert repr(HyperParams(sigma_u=1).sigma_u) == "1"
    assert vphi(np.float32(1.0), 1.0, np.int64(0)) == vphi(1.0, 1.0, 0)
    assert all(type(m) is float for m in vphi(np.float64(2.0), 2.0, np.float64(2.0)))
    for field in ("sigma_w", "sigma_u", "sigma_b", "sigma_v"):
        for bad in (True, 10**400):
            with pytest.raises(ValueError, match=f"{field} must be a finite real"):
                HyperParams(**{field: bad})
    for depth in (True, np.float64(2.0), 2.0):
        with pytest.raises(ValueError, match="depth_L must be a positive integer"):
            HyperParams(depth_L=depth)
    with pytest.raises(ValueError, match="k2 must be a finite real"):
        vphi(1.0, False, 0.0)
