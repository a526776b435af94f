"""Radius of convexity for the starlike class, by exact bisection.

For a class member the convexity inequality at |z| = r reduces to

    g(r) = (1 - r - r^2/4) - r (1 + r/2) / ((1 - r/2)^2 (1 - r^2)) >= gamma

with gamma = 0 marking plain convexity.  g is strictly decreasing on
[0, 1) from g(0) = 1, so the radius is the unique root of g(r) = gamma.
All sign tests are exact rational; floats only appear in the reported
midpoint.

Monotonicity is not taken on faith: the derivative of the subtracted
term h(r) = r (1 + r/2) / ((1 - r/2)^2 (1 - r^2)) has numerator
4 (-r^4 - 3 r^3 + 2 r^2 + 3 r + 2), positive on (0, 1) because of the
identity  -r^4 - 3r^3 + 2r^2 + 3r + 2 = (1 - r^2)(r^2 + 3r + 2) + 3r^2,
so h increases while the polynomial part decreases.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .rationals import as_fraction

__all__ = ["radius_g", "RadiusResult", "solve_radius", "UPPER_BRACKET"]

# stay strictly inside the domain; g blows down near r = 1
UPPER_BRACKET = 1 - Fraction(1, 2 ** 20)


def radius_g(r) -> Fraction:
    """g(r), exact, for rational 0 <= r < 1."""
    r = as_fraction(r)
    if not 0 <= r < 1:
        raise ValueError(f"r must lie in [0, 1), got {r}")
    poly = 1 - r - r * r / 4
    h = (r * (1 + r / 2)) / ((1 - r / 2) ** 2 * (1 - r * r))
    return poly - h


class RadiusResult(NamedTuple):
    bracket_lo: Fraction
    bracket_hi: Fraction
    iterations: int
    gamma: Fraction

    # the bracket's midpoint, the one float in the result
    root = property(lambda self: float((self.bracket_lo + self.bracket_hi) / 2))


def solve_radius(gamma=0, tol: float = 1e-12) -> RadiusResult:
    """Solve g(r) = gamma by bisection with exact sign tests.

    The bracket starts at [0, 1 - 2^-20] and is halved until its width is
    at most ``tol``, which must be positive and finite; the sign of
    g(mid) - gamma is evaluated in exact rational arithmetic at every
    step, so the final bracket provably contains the root.  Requires
    gamma < 1 = g(0) and gamma above the value at the upper bracket end.
    """
    gamma = as_fraction(gamma)
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    lo, hi = Fraction(0), UPPER_BRACKET
    if not radius_g(lo) > gamma:
        raise ValueError(f"gamma = {gamma} is not below g(0) = 1; no root in (0, 1)")
    if not radius_g(hi) < gamma:
        raise ValueError(f"g({hi}) >= gamma; root not bracketed below {float(hi)}")
    iterations = 0
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if radius_g(mid) > gamma:
            lo = mid
        else:
            hi = mid
        iterations += 1
    return RadiusResult(lo, hi, iterations, gamma)
