"""Complex-argument modified Bessel functions K0, K1 and Laguerre sums.

K0 and K1 are the free-space kernel of the 2D modified Helmholtz operator
and must be evaluated for complex wavenumbers anywhere in the right
half-plane.  They come from ``scipy.special.kv``, the AMOS routines
(Amos 1986, ACM TOMS 12:265, Algorithm 644), which reach a few times
1e-15 relative accuracy in the right half-plane for 1e-6 <= |z| <= 600.

Arguments with Re(z) < 0 take the principal branch, with the cut on the
negative real axis and -x + 0j on its upper side.  There the values grow
like exp(|Re z|) and turn non-finite once they leave the representable
range; :mod:`invlap.core` flags non-finite image samples.

Laguerre series are summed by ``numpy.polynomial.laguerre.lagval``.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.laguerre import lagval
from scipy.special import kv

EULER_GAMMA = 0.5772156649015328606065120900824024


class SingularBesselArgument(ValueError):
    """Raised for z = 0, where K0 and K1 diverge."""


def k01_values(z):
    """K0(z) and K1(z), elementwise over an array of complex arguments.

    Accuracy is a few times 1e-15 relative for Re(z) >= 0 with
    1e-6 <= |z| <= 600.  Re(z) < 0 takes the principal branch and may
    overflow to inf or NaN, which :mod:`invlap.core` flags as a
    non-finite sample.  z == 0 raises :class:`SingularBesselArgument`.
    """
    z = np.asarray(z, dtype=complex)
    # kv returns NaN at 0 rather than raising
    if np.any(z == 0):
        raise SingularBesselArgument("K0/K1 are singular at z = 0")
    return kv(0, z), kv(1, z)


def laguerre_sum(a, x):
    """Evaluate sum_n a_n L_n(x) with ``numpy.polynomial.laguerre.lagval``.

    Parameters
    ----------
    a : array_like
        Coefficients a_0 .. a_N; an extra trailing axis evaluates several
        coefficient sets at once.
    x : float
        Argument, x >= 0.

    ``lagval`` runs the Laguerre three-term relation backwards (Clenshaw),
    which keeps the sum stable for high orders where the forward
    recurrence would amplify rounding.
    """
    if x < 0:
        raise ValueError("laguerre_sum requires x >= 0")
    a = np.asarray(a, dtype=float)
    total = lagval(x, a)
    if a.ndim == 1:
        return float(total)
    return total
