import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invlap.specfun import (EULER_GAMMA, SingularBesselArgument, k01_values,
                            laguerre_sum)
from reference_bessel import mp_k01

# published to 15 digits; also reproduced by the extended-precision oracle
K0_AT_1 = 0.421024438240708
K1_AT_1 = 0.601907230197235


def test_reference_oracle_matches_published_implementation():
    # the test oracle itself is validated against an independent library
    for z in (0.5, 2.0, 7.0 + 3.0j, 0.1 + 12.0j, 25.0):
        k0, k1 = mp_k01(z)
        mk0 = complex(mp.besselk(0, mp.mpc(z)))
        mk1 = complex(mp.besselk(1, mp.mpc(z)))
        assert abs(k0 - mk0) <= 1e-14 * abs(mk0)
        assert abs(k1 - mk1) <= 1e-14 * abs(mk1)


def test_values_at_unity():
    k0, k1 = k01_values(1.0)
    assert k0 == pytest.approx(K0_AT_1, rel=1e-13)
    assert k1 == pytest.approx(K1_AT_1, rel=1e-13)


def test_small_argument_log_limit():
    z = 1e-4
    k0, _ = k01_values(z)
    assert abs(k0 + math.log(z / 2) + EULER_GAMMA) < 1e-7


def test_zero_argument_rejected():
    with pytest.raises(SingularBesselArgument):
        k01_values(0.0)
    with pytest.raises(SingularBesselArgument):
        k01_values(np.array([1.0, 0.0]))


def test_accuracy_on_log_grid_against_oracle():
    # 100-point sweep of the guaranteed-accuracy domain
    rng = np.random.default_rng(5)
    mags = np.geomspace(1e-6, 600.0, 100)
    args = rng.uniform(-np.pi / 2 + 1e-4, np.pi / 2 - 1e-4, 100)
    zs = mags * np.exp(1j * args)
    k0, k1 = k01_values(zs)
    for z, a, b in zip(zs, k0, k1):
        if abs(z) <= 30.0:
            r0, r1 = mp_k01(z)
        else:
            r0 = complex(mp.besselk(0, mp.mpc(z)))
            r1 = complex(mp.besselk(1, mp.mpc(z)))
        assert abs(a - r0) <= 1e-12 * abs(r0), f"K0 off at z={z}"
        assert abs(b - r1) <= 1e-12 * abs(r1), f"K1 off at z={z}"


def test_near_imaginary_axis_band():
    # kv accuracy against mpmath just inside the imaginary axis, where K0/K1
    # oscillate and barely decay
    zs = np.geomspace(2.0, 30.0, 25) * np.exp(1j * (np.pi / 2 - 1e-8))
    k0, k1 = k01_values(zs)
    for z, a, b in zip(zs, k0, k1):
        r0, r1 = mp_k01(z)
        assert abs(a - r0) <= 1e-12 * abs(r0)
        assert abs(b - r1) <= 1e-12 * abs(r1)


def test_derivative_identity_k0prime_is_minus_k1():
    rng = np.random.default_rng(11)
    for _ in range(20):
        z = complex(rng.uniform(0.3, 20.0), rng.uniform(-15.0, 15.0))
        h = 1e-5 * abs(z)
        kp, _ = k01_values(np.array([z + h]))
        km, _ = k01_values(np.array([z - h]))
        fd = (kp[0] - km[0]) / (2 * h)
        _, k1 = k01_values(np.array([z]))
        assert abs(fd + k1[0]) <= 1e-6 * abs(k1[0])


@settings(max_examples=100, deadline=None)
@given(st.floats(0.01, 40.0), st.floats(-25.0, 25.0))
def test_conjugate_symmetry(re, im):
    z = complex(re, im)
    a0, a1 = k01_values(z)
    b0, b1 = k01_values(np.conj(z))
    assert b0 == pytest.approx(np.conj(a0), rel=1e-13, abs=1e-300)
    assert b1 == pytest.approx(np.conj(a1), rel=1e-13, abs=1e-300)


def test_left_half_plane_continuation():
    for z in (-3.0 + 2.0j, -1.0 - 4.0j, -0.5 + 0.2j):
        k0, k1 = k01_values(z)
        r0 = complex(mp.besselk(0, mp.mpc(z)))
        r1 = complex(mp.besselk(1, mp.mpc(z)))
        assert abs(k0 - r0) <= 1e-10 * abs(r0)
        assert abs(k1 - r1) <= 1e-10 * abs(r1)


def test_negative_real_axis_takes_upper_side_of_cut():
    # both signed zeros land on the principal value, the upper side
    k0, k1 = k01_values([-3 + 0j, complex(-3, -0.0)])
    r0 = complex(mp.besselk(0, mp.mpc(-3, 0)))
    r1 = complex(mp.besselk(1, mp.mpc(-3, 0)))
    assert np.all(np.abs(k0 - r0) <= 1e-12 * abs(r0))
    assert np.all(np.abs(k1 - r1) <= 1e-12 * abs(r1))


def test_negative_real_float_takes_principal_branch():
    # Cephes k0/k1 give NaN for x < 0, so a real negative argument goes to
    # the complex path and lands on the same principal value as -3 + 0j
    k0, k1 = k01_values(np.array([-3.0, 2.0]))
    assert k0.dtype == np.complex128
    r0 = complex(mp.besselk(0, mp.mpc(-3, 0)))
    r1 = complex(mp.besselk(1, mp.mpc(-3, 0)))
    assert abs(k0[0] - r0) <= 1e-12 * abs(r0)
    assert abs(k1[0] - r1) <= 1e-12 * abs(r1)
    c0, c1 = k01_values([-3 + 0j, 2 + 0j])
    assert np.array_equal(k0, c0) and np.array_equal(k1, c1)


def test_real_argument_dtype_dispatch():
    # positive finite reals stay real; anything else keeps the complex path
    for z in (1.0, [0.5, 30.0], np.array([2.0], dtype=np.float32), 3):
        k0, k1 = k01_values(z)
        assert k0.dtype == k1.dtype == np.float64
    for z in ([1.0, np.inf], [1.0, np.nan], [-0.5], [1.0 + 0j]):
        k0, k1 = k01_values(z)
        assert k0.dtype == k1.dtype == np.complex128
    with pytest.raises(SingularBesselArgument):
        k01_values(np.array([1.0, -0.0]))
    # real and complex paths agree on the positive axis
    x = np.geomspace(1e-6, 500.0, 200)
    k0, k1 = k01_values(x)
    c0, c1 = k01_values(x.astype(complex))
    assert np.all(np.abs(k0 - c0) <= 1e-14 * np.abs(c0))
    assert np.all(np.abs(k1 - c1) <= 1e-14 * np.abs(c1))


def test_left_half_plane_overflow_flagged():
    # past the representable range the values are non-finite, which
    # invlap.core flags as an overflowed sample
    k0, k1 = k01_values(-800.0 + 1.0j)
    assert not np.isfinite(k0) and not np.isfinite(k1)


# ---------------------------------------------------------------------------
# Laguerre series evaluation
# ---------------------------------------------------------------------------

def _laguerre_naive(a, x):
    # forward three-term recurrence, independent of the Clenshaw path
    total = 0.0
    lm, l = 0.0, 1.0
    for n, coeff in enumerate(a):
        total += coeff * l
        lm, l = l, ((2 * n + 1 - x) * l - n * lm) / (n + 1)
    return total


def test_laguerre_constant_term():
    assert laguerre_sum([3.25], 17.0) == pytest.approx(3.25)


def test_laguerre_l1_at_one_vanishes():
    assert laguerre_sum([0.0, 1.0], 1.0) == pytest.approx(0.0, abs=1e-15)


def test_laguerre_ln_at_zero_is_one():
    assert laguerre_sum([0.0, 0.0, 1.0], 0.0) == pytest.approx(1.0)


def test_laguerre_rejects_negative_argument():
    with pytest.raises(ValueError):
        laguerre_sum([1.0], -0.5)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 50), st.floats(0.0, 60.0), st.integers(0, 2**32 - 1))
def test_laguerre_clenshaw_matches_naive(n, x, seed):
    a = np.random.default_rng(seed).uniform(-1.0, 1.0, n + 1)
    got = laguerre_sum(a, x)
    want = _laguerre_naive(a, x)
    assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_laguerre_vector_coefficients():
    a = np.array([[1.0, 0.0], [0.0, 1.0]])
    out = laguerre_sum(a, 1.0)
    assert out.shape == (2,)
    assert out[0] == pytest.approx(1.0)
    assert out[1] == pytest.approx(0.0, abs=1e-15)
