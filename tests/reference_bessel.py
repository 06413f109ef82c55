"""Extended-precision ascending-series evaluator for K0/K1.

Test-suite-only oracle: the ascending series for K0 and K1 in mpmath
arbitrary precision with no regime switching, so it shares no code path
with the implementation under test (scipy.special.kv).  Cross-checked
against mpmath.besselk (an independent published implementation) in the
tests.
"""

import mpmath as mp


def mp_k01(z, extra_dps: int = 25):
    """(K0(z), K1(z)) as mpmath complex values.

    Working precision grows with |z| to absorb the series cancellation,
    which scales like exp(2 Re z).
    """
    az = abs(z)
    dps = int(1.0 * az) + 35 + extra_dps
    with mp.workdps(dps):
        zz = mp.mpc(z)
        w = zz * zz / 4
        lg = mp.log(zz / 2) + mp.euler
        i0 = mp.mpc(1)
        i1s = mp.mpc(1)
        s0 = mp.mpc(0)
        s1 = mp.mpc(1)
        term0 = mp.mpc(1)
        term1 = mp.mpc(1)
        hk = mp.mpf(0)
        tol = mp.mpf(10) ** (-dps + 5)
        for k in range(1, 20000):
            term0 = term0 * w / (k * k)
            term1 = term1 * w / (k * (k + 1))
            hk += mp.mpf(1) / k
            i0 += term0
            i1s += term1
            s0 += term0 * hk
            s1 += term1 * (2 * hk + mp.mpf(1) / (k + 1))
            if abs(term0) < tol * abs(i0) and abs(term1) < tol:
                break
        k0 = -lg * i0 + s0
        i1 = zz / 2 * i1s
        k1 = 1 / zz + (lg - mp.euler) * i1 - zz / 4 * (s1 - 2 * mp.euler * i1s)
        return complex(k0), complex(k1)
