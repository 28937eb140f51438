"""The scalar root against scipy's brentq, which stays on the test side."""

import math

import pytest
from scipy import optimize

from phasemag.solve import NoRoot, find_root

ROOT_CASES = [
    (lambda x: x**3 - 2.0, 0.1, 40.0, 2e-12, 8.881784197001252e-16),
    (lambda x: math.exp(x) - 7.0, 0.2, 9.0, 1e-9, 1e-12),
    (lambda x: math.atan(x - 3.0) + 0.1 * x**3 - 2.7, 0.01, 20.0, 1e-6, 1e-10),
    (lambda x: math.tanh(5.0 * (x - 2.0)) + 1e-3 * (x - 2.0), 1e-3, 30.0,
     2e-12, 1e-12),
]


class TestFindRoot:
    @pytest.mark.parametrize("f, lo, hi, xtol, rtol", ROOT_CASES)
    def test_brent_matches_brentq_bit_for_bit(self, f, lo, hi, xtol, rtol):
        assert (find_root(f, lo, hi, xtol=xtol, rtol=rtol)
                == optimize.brentq(f, lo, hi, xtol=xtol, rtol=rtol))

    def test_bracket_grows_from_a_point(self):
        # the root of x^2 - 1e6 lies 10 doublings above the start
        calls = []

        def f(x):
            calls.append(x)
            return x * x - 1e6

        x = find_root(f, 1.0, 1.0, xtol=0.0)
        assert x == pytest.approx(1e3, rel=1e-15)
        assert 512.0 in calls and 1024.0 in calls and 2048.0 not in calls

    def test_no_sign_change_reports_the_last_bracket(self):
        with pytest.raises(NoRoot) as info:
            find_root(lambda x: x + 1.0, 1.0, 2.0, xtol=0.0, grow=4.0, steps=3)
        assert (info.value.lo, info.value.hi) == (1.0 / 64.0, 2.0)

    def test_fixed_bracket_is_not_widened(self):
        # steps=0: the root at -3 lies outside [-2, 2], and no end moves
        calls = []

        def f(x):
            calls.append(x)
            return x + 3.0

        with pytest.raises(NoRoot) as info:
            find_root(f, -2.0, 2.0, xtol=0.0, steps=0)
        assert (info.value.lo, info.value.hi) == (-2.0, 2.0)
        assert calls == [-2.0, 2.0]

    def test_fixed_bracket_of_either_sign(self):
        x = find_root(lambda x: x + 3.0, -5.0, 1.0, xtol=1e-12, steps=0)
        assert x == pytest.approx(-3.0, abs=1e-12)

    def test_underflowing_interpolation_bisects(self):
        # f is subnormal near the root, where the inverse quadratic step's
        # denominator underflows to 0: the step falls back to bisection
        x = find_root(lambda x: (x * 1e-160) ** 2 / 2 - 1e-320, 0.01, 0.01,
                      xtol=0.0, grow=4.0, steps=60)
        assert x == pytest.approx(math.sqrt(2.0), abs=1e-3)
