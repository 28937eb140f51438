"""Scalar solver: one bracketed root.

Every solve in phasemag is one root of a one-dimensional function: the
1/e times and the decay grid are roots of a monotone exponent, calibration
is a root in u = t2_star/tau_c, the T2g fit is a root of the projected
gradient, and the best berry slope is a root of its derivative in a lobe.
``find_root`` widens a bracket geometrically (or keeps it fixed, with
``steps=0``) and then runs Brent's (1973) method, step for step as in the
classic zeroin: inverse quadratic interpolation or secant steps, guarded
by bisection.  It is plain Python on floats, so a process that solves
never imports an optimisation library.
"""

from __future__ import annotations

import math

from .errors import PhasemagError

__all__ = ["NoRoot", "find_root"]

_EPS = 2.220446049250313e-16
# iteration cap: Brent's root needs a few dozen steps at most on the solves
# in this package
_MAX_ROOT_ITER = 100


class NoRoot(PhasemagError):
    """No sign change was bracketed, or Brent's iteration did not converge.

    ``lo`` and ``hi`` are the last bracket ends tried.
    """

    def __init__(self, message, lo, hi):
        super().__init__(message)
        self.lo, self.hi = lo, hi


def find_root(f, lo: float, hi: float, *, xtol: float, grow: float = 2.0,
              steps: int = 40, rtol: float = 4 * _EPS) -> float:
    """Root of an increasing ``f`` near the positive interval [lo, hi].

    ``lo`` is divided by ``grow`` until f(lo) < 0 and ``hi`` multiplied by
    it until f(hi) > 0, at most ``steps`` times each; ``lo == hi`` is a
    valid start.  ``steps=0`` keeps the bracket as given, so [lo, hi] may
    then be any finite interval, of either sign.  Brent's method then
    narrows the bracket until it is shorter than xtol + rtol*|x|.  Raises
    NoRoot when either end fails to change sign or the iteration does not
    converge in 100 steps.
    """
    flo = f(lo)
    for _ in range(steps):
        if flo < 0:
            break
        lo /= grow
        flo = f(lo)
    fhi = f(hi)
    for _ in range(steps):
        if fhi > 0:
            break
        hi *= grow
        fhi = f(hi)
    if not flo < 0 < fhi:
        raise NoRoot("no sign change bracketed", lo, hi)

    xpre, fpre, xcur, fcur = lo, flo, hi, fhi
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAX_ROOT_ITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                # 0 once subnormal f values underflow: bisect, as C's inf does
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
        if not math.isfinite(fcur):
            break
    raise NoRoot("Brent iteration did not converge", lo, hi)
