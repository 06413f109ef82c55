"""Modified Bessel functions K0, K1 of real or complex argument, and
Laguerre sums.

K0 and K1 are the free-space kernel of the 2D modified Helmholtz operator.
Real positive arguments, which the real-axis inverters (Stehfest,
Schapery) produce, go to ``scipy.special.k0``/``k1`` (Cephes), six to
seven times cheaper per point than the complex routine and as accurate
(below 1e-15 relative against mpmath for 1e-6 <= x <= 500).  Complex
arguments anywhere in the right half-plane go to ``scipy.special.kv``,
the AMOS routines (Amos 1986, ACM TOMS 12:265, Algorithm 644), which reach
a few times 1e-15 relative accuracy there for 1e-6 <= |z| <= 600.

Arguments with Re(z) < 0 take the principal branch, with the cut on the
negative real axis and -x + 0j on its upper side; a real negative
argument takes that value too.  There the values grow like exp(|Re z|)
and turn non-finite once they leave the representable range;
:mod:`invlap.core` flags non-finite image samples.

Laguerre series are summed by ``numpy.polynomial.laguerre.lagval``.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.laguerre import lagval
from scipy.special import k0, k1, kv

EULER_GAMMA = 0.5772156649015328606065120900824024


class SingularBesselArgument(ValueError):
    """Raised for z = 0, where K0 and K1 diverge."""


def k01_values(z):
    """K0(z) and K1(z), elementwise over an array of real or complex arguments.

    A real array whose entries are all positive and finite is evaluated
    in real arithmetic and gives float64 values; any other argument takes
    the complex path and gives complex128 values, so a real negative
    argument gets the principal-branch value (Cephes ``k0`` returns NaN
    there).  Accuracy is a few times 1e-15 relative for Re(z) >= 0 with
    1e-6 <= |z| <= 600.  Re(z) < 0 may overflow to inf or NaN, which
    :mod:`invlap.core` flags as a non-finite sample.  z == 0 raises
    :class:`SingularBesselArgument`.
    """
    z = np.asarray(z)
    # kv returns NaN at 0 rather than raising
    if np.any(z == 0):
        raise SingularBesselArgument("K0/K1 are singular at z = 0")
    if not np.iscomplexobj(z):
        z = z.astype(float, copy=False)
        if takes_real_path(z):
            return k0(z), k1(z)
    z = z.astype(complex, copy=False)
    return kv(0, z), kv(1, z)


def takes_real_path(z, axis=None):
    """Whether the real arguments z, along `axis` (all of them for None),
    are all positive and finite, so that :func:`k01_values` evaluates them
    in real arithmetic."""
    return np.all((z > 0) & np.isfinite(z), axis=axis)


def laguerre_sum(a, x):
    """Evaluate sum_n a_n L_n(x) with ``numpy.polynomial.laguerre.lagval``.

    Parameters
    ----------
    a : array_like
        Coefficients a_0 .. a_N; extra trailing axes evaluate several
        coefficient sets at once.
    x : float or array_like
        Arguments, x >= 0.  An array broadcasts against the trailing axes
        of a, so each coefficient set is summed at its own argument.

    ``lagval`` runs the Laguerre three-term relation backwards (Clenshaw),
    which keeps the sum stable for high orders where the forward
    recurrence would amplify rounding.  Each sum rounds the same whether
    it is taken alone or with others.
    """
    if np.any(np.asarray(x) < 0):
        raise ValueError("laguerre_sum requires x >= 0")
    a = np.asarray(a, dtype=float)
    total = lagval(x, a, tensor=False)
    if a.ndim == 1 and np.ndim(x) == 0:
        return float(total)
    return total
