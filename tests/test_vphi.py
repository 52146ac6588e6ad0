import math

import numpy as np
import pytest

import rntk
from rntk import vphi
from rntk.kernels import _vphi_scalar


def test_uncorrelated_unit_variances():
    assert math.isclose(vphi(1.0, 1.0, 0.0)[0], 1.0 / (2.0 * math.pi), rel_tol=1e-12)


def test_fully_correlated_collapses_to_half_variance():
    assert math.isclose(vphi(1.0, 1.0, 1.0)[0], 0.5, rel_tol=1e-12)


def test_uncorrelated_scales_with_geometric_mean():
    # sqrt(4 * 9) / (2*pi) = 6 / (2*pi) = 3/pi
    assert math.isclose(vphi(4.0, 9.0, 0.0)[0], 3.0 / math.pi, rel_tol=1e-12)
    assert math.isclose(vphi(4.0, 9.0, 0.0)[0], 0.954929658551372, rel_tol=1e-12)


def test_prime_endpoints():
    assert vphi(1.0, 1.0, 1.0)[1] == pytest.approx(0.5, rel=1e-12)
    assert vphi(1.0, 1.0, 0.0)[1] == pytest.approx(0.25, rel=1e-12)
    assert vphi(1.0, 1.0, -1.0)[1] == pytest.approx(0.0, abs=1e-15)


def test_anticorrelated_is_zero():
    assert vphi(2.0, 2.0, -2.0)[0] == pytest.approx(0.0, abs=1e-15)


def test_range_bounds():
    rng = np.random.default_rng(7)
    for _ in range(200):
        k1, k2 = rng.uniform(0.0, 5.0, size=2)
        c = rng.uniform(-1.0, 1.0)
        k3 = c * math.sqrt(k1 * k2)
        moments = vphi(k1, k2, k3)
        assert moments == _vphi_scalar(k1, k2, k3)
        q = math.sqrt(k1 * k2)
        assert 0.0 <= moments[0] <= q + 1e-12
        assert 0.0 <= moments[1] <= 0.5


def test_monotone_in_covariance():
    for k1, k2 in [(1.0, 1.0), (4.0, 9.0), (0.3, 2.5)]:
        q = math.sqrt(k1 * k2)
        grid = np.linspace(-q, q, 41)
        vals = [vphi(k1, k2, k3)[0] for k3 in grid]
        primes = [vphi(k1, k2, k3)[1] for k3 in grid]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert all(b >= a - 1e-12 for a, b in zip(primes, primes[1:]))


def test_clamped_beyond_valid_correlation():
    # rounding drift can push k3 slightly past sqrt(k1*k2); result must match c = 1
    drifted = vphi(1.0, 1.0, 1.0 + 1e-13)[0]
    assert math.isclose(drifted, 0.5, rel_tol=1e-12)
    assert vphi(1.0, 1.0, -1.0 - 1e-13)[1] == pytest.approx(0.0, abs=1e-15)


def test_zero_variance_limit():
    assert vphi(0.0, 2.0, 0.0)[0] == 0.0
    assert vphi(0.0, 2.0, 0.0)[1] == 0.25
    assert vphi(0.0, 0.0, 0.0)[0] == 0.0


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        vphi(float("nan"), 1.0, 0.0)
    with pytest.raises(ValueError):
        vphi(1.0, float("inf"), 0.0)
    with pytest.raises(ValueError):
        vphi(-1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        vphi(1.0, 1.0, float("nan"))


def test_overflowing_moments_refused_by_name():
    # the int product raised a bare OverflowError, and the float one returned inf
    with pytest.raises(ValueError, match="overflowed"):
        vphi(10**300, 10**300, 0)
    with pytest.raises(ValueError, match="overflowed"):
        vphi(1e300, 1e300, 1e299)
    # ints are moments of their float values
    assert vphi(10**150, 10**150, 0) == vphi(1e150, 1e150, 0.0)
    assert math.isfinite(vphi(1e150, 1e150, 0.0)[0])


def test_one_public_moment_function():
    assert not hasattr(rntk, "Cov2") and not hasattr(rntk, "vphi_prime")
    assert "Cov2" not in rntk.__all__ and "vphi_prime" not in rntk.__all__
    assert not hasattr(rntk.kernels, "Cov2") and not hasattr(rntk.kernels, "vphi_prime")


def test_monte_carlo_agreement_smoke():
    # cheap version of the exhaustive closed-form check in the acceptance suite
    rng = np.random.default_rng(11)
    n = 200_000
    for k1, k2, c in [(1.0, 1.0, 0.3), (4.0, 9.0, -0.6), (0.5, 2.0, 0.9)]:
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        z1 = math.sqrt(k1) * u
        z2 = math.sqrt(k2) * (c * u + math.sqrt(1.0 - c * c) * v)
        prod = np.maximum(z1, 0.0) * np.maximum(z2, 0.0)
        est = float(prod.mean())
        se = float(prod.std(ddof=1) / math.sqrt(n))
        assert abs(vphi(k1, k2, c * math.sqrt(k1 * k2))[0] - est) <= 4.0 * se
        ind = (z1 > 0) & (z2 > 0)
        est_p = float(ind.mean())
        se_p = float(ind.std(ddof=1) / math.sqrt(n))
        assert abs(vphi(k1, k2, c * math.sqrt(k1 * k2))[1] - est_p) <= 4.0 * se_p
