"""Scalar solvers: one bracketed root and one bounded minimiser.

Every solve in phasemag is one-dimensional: the 1/e times and the decay
grid are roots of a monotone exponent, calibration is a root in
q = 1/(delta*tau_c)^2, the T2g fit is a root of the projected gradient,
and the best slope is a bounded maximum.  Both routines are plain Python
on floats, so a process that solves never imports an optimisation
library.

* ``find_root`` widens a bracket geometrically and then runs Brent's
  (1973) method, step for step as in the classic zeroin: inverse
  quadratic interpolation or secant steps, guarded by bisection.
* ``minimize_bounded`` is Brent's (1973) derivative-free minimiser on a
  closed interval (golden section with parabolic steps), the fminbound
  algorithm of Forsythe, Malcolm and Moler (1977).
"""

from __future__ import annotations

import math

from .errors import PhasemagError

__all__ = ["NoRoot", "find_root", "minimize_bounded"]

_EPS = 2.220446049250313e-16
# iteration caps: Brent's root needs a few dozen steps at most and the
# bounded minimiser a few dozen evaluations on the solves in this package
_MAX_ROOT_ITER = 100
_MAX_MIN_EVALS = 500


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
    valid start.  Brent's method then narrows the bracket until it is
    shorter than xtol + rtol*|x|.  Raises NoRoot when either end fails to
    change sign or the iteration does not converge in 100 steps.
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
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
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


def minimize_bounded(f, a: float, b: float, xatol: float) -> float:
    """Brent's bounded minimiser of ``f`` on [a, b]; returns the abscissa.

    Stops when the bracket around the best point is within
    2*(sqrt(eps)*|x| + xatol/3) of it, or after 500 evaluations.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    fulc = a + golden_mean * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabola through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e

        x = xf + (1.0 if rat >= 0 else -1.0) * max(abs(rat), tol1)
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _MAX_MIN_EVALS:
            break
    return xf
