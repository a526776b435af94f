"""Coefficient machinery for the starlike class with target (1 + z/2)^2.

This module collects the algebraic ingredients used by the verification
pipelines:

* the map from Schwarz-function coefficients ``c = (c1, c2, c3, c4)`` to
  the class coefficients ``a2..a5``;
* the classical parametrization of the Schwarz coefficient body in terms
  of points ``(gamma, eta, rho)`` of the closed unit disk, typed once, and
  the Caratheodory one derived from it through p = (1 + w)/(1 - w);
* the Hankel determinants ``H2(2) = a2 a4 - a3^2`` and ``H3(1)``,
  together with the degree-six polynomial identity for ``9216 * H3(1)``;
* the piecewise closed form for ``max_{|z|<=1} |A + Bz + Cz^2| + 1 - |z|^2``;
* the Janowski disk criterion and the scan of the target function, whose
  float kernels are in :mod:`starcert.oracles`;
* the two endpoint polynomials that bound ``|H2(2)|`` along the
  Caratheodory slice.

Exact inputs (ints/Fractions) stay exact through every polynomial map;
floats/complex are accepted and then everything is float.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .rationals import as_fraction

__all__ = [
    "schwarz_to_coeffs", "lz_parametrize", "schwarz_parametrize",
    "hankel2", "hankel3", "h3_schwarz_poly",
    "y_max", "y_max_detail", "YMaxDetail",
    "JanowskiParams", "janowski_check",
    "PhiScanReport", "ma_minda_scan",
    "h2_terms", "h2_envelope",
]


# The most samples one float oracle or scan may take: each counts its
# samples before numpy loads and refuses more.  Blocks keep memory flat,
# so this bounds run time.
MAX_SAMPLES = 10 ** 9


def _within_budget(samples: int) -> None:
    if samples > MAX_SAMPLES:
        raise ValueError(f"the grid asks for {samples} samples, more than "
                         f"the budget of {MAX_SAMPLES}")


def _exact_div(value, n: int):
    """value / n, kept exact (Fraction) when value is int or Fraction.

    Plain ``/`` would silently turn exact integer data into floats; the
    coefficient maps must stay exact on exact input so the sharpness
    witnesses come out as literal rationals.
    """
    if isinstance(value, (int, Fraction)):
        return Fraction(value, n)
    return value / n


def _abs2(v):
    """|v|^2, exact when v is rational (real), float otherwise."""
    return v.real * v.real + v.imag * v.imag


def _check_unit(name: str, v) -> None:
    m2 = _abs2(v)
    tol = 1e-12 if isinstance(m2, float) else 0
    if m2 > 1 + tol:
        raise ValueError(f"|{name}| must be <= 1, got |{name}|^2 = {m2}")


# ---------------------------------------------------------------------------
# coefficient maps
# ---------------------------------------------------------------------------

def schwarz_to_coeffs(c: tuple) -> tuple:
    """Class coefficients a2..a5 of the member driven by the Schwarz data c.

    These are the closed forms obtained by expanding
    z f'/f = (1 + w/2)^2; they agree with the series route
    (:func:`starcert.series.member_from_schwarz`) identically.
    """
    c1, c2, c3, c4 = c
    a2 = c1
    a3 = _exact_div(5 * c1 * c1 + 4 * c2, 8)
    a4 = _exact_div(7 * c1 ** 3 + 16 * c1 * c2 + 8 * c3, 24)
    a5 = _exact_div(43 * c1 ** 4 + 184 * c1 * c1 * c2 + 72 * c2 * c2
                    + 176 * c1 * c3 + 96 * c4, 384)
    return a2, a3, a4, a5


# ---------------------------------------------------------------------------
# parametrizations of the coefficient bodies
# ---------------------------------------------------------------------------

def lz_parametrize(p1, t: tuple) -> tuple:
    """Caratheodory coefficients (p1..p4) from the disk parameters (gamma, eta, rho).

    Standard parametrization of the Caratheodory coefficient body: with
    0 <= p1 <= 2 fixed (rotation makes p1 real), every admissible
    (p2, p3, p4) arises from some point of the closed unit tridisk via

        2 p2 = p1^2 + gamma (4 - p1^2),
        4 p3 = p1^3 + 2 (4 - p1^2) p1 gamma - (4 - p1^2) p1 gamma^2
               + 2 (4 - p1^2)(1 - |gamma|^2) eta,
        8 p4 = p1^4 + (4 - p1^2) gamma (p1^2 (gamma^2 - 3 gamma + 3) + 4 gamma)
               - 4 (4 - p1^2)(1 - |gamma|^2)
                 (p1 (gamma - 1) eta + conj(gamma) eta^2 - (1 - |eta|^2) rho).

    Computed, not typed: the coefficients of p = (1 + w)/(1 - w) for the
    Schwarz function w with coefficients ``schwarz_parametrize(p1/2, t)``.
    """
    if not 0 <= p1 <= 2:
        raise ValueError(f"p1 must lie in [0, 2], got {p1}")
    c1, c2, c3, c4 = schwarz_parametrize(_exact_div(p1, 2), t)
    # p = 1 + 2 (w + w^2 + w^3 + w^4 + ...), to z^4
    return (p1, 2 * (c2 + c1 * c1), 2 * (c3 + 2 * c1 * c2 + c1 ** 3),
            2 * (c4 + 2 * c1 * c3 + c2 * c2 + 3 * c1 * c1 * c2 + c1 ** 4))


def schwarz_parametrize(c1, t: tuple) -> tuple:
    """Schwarz coefficients (c1..c4) from disk parameters, c1 in [0, 1].

        c2 = (1 - c1^2) gamma,
        c3 = (1 - c1^2) ((1 - |gamma|^2) eta - c1 gamma^2),
        c4 = (1 - c1^2) (c1^2 gamma^3
                         - (1 - |gamma|^2)(2 c1 gamma eta + conj(gamma) eta^2
                                           - (1 - |eta|^2) rho)).
    """
    if not 0 <= c1 <= 1:
        raise ValueError(f"c1 must lie in [0, 1], got {c1}")
    gamma, eta, rho = t
    _check_unit("gamma", gamma)
    _check_unit("eta", eta)
    _check_unit("rho", rho)
    u = 1 - c1 * c1
    g2 = 1 - _abs2(gamma)
    e2 = 1 - _abs2(eta)
    c2 = u * gamma
    c3 = u * (g2 * eta - c1 * gamma * gamma)
    c4 = u * (c1 * c1 * gamma ** 3
              - g2 * (2 * c1 * gamma * eta + gamma.conjugate() * eta * eta
                      - e2 * rho))
    return c1, c2, c3, c4


# ---------------------------------------------------------------------------
# Hankel determinants
# ---------------------------------------------------------------------------

def hankel2(a: tuple):
    """Second Hankel determinant H2(2) = a2 a4 - a3^2."""
    a2, a3, a4, _a5 = a
    return a2 * a4 - a3 * a3


def hankel3(a: tuple):
    """Third Hankel determinant

    H3(1) = a3 (a2 a4 - a3^2) - a4 (a4 - a2 a3) + a5 (a3 - a2^2).
    """
    a2, a3, a4, a5 = a
    return (a3 * (a2 * a4 - a3 * a3)
            - a4 * (a4 - a2 * a3)
            + a5 * (a3 - a2 * a2))


def h3_schwarz_poly(c: tuple):
    """The degree-six polynomial equal to 9216 * H3(1) in Schwarz coefficients.

        -61 c1^6 + 244 c1^4 c2 + 464 c1^3 c3 + 1088 c1 c2 c3
        - 8 c1^2 (89 c2^2 + 108 c4) - 32 (9 c2^3 + 32 c3^2 - 36 c2 c4)

    Exact identity: h3_schwarz_poly(c) == 9216 * hankel3(schwarz_to_coeffs(c)).
    """
    c1, c2, c3, c4 = c
    return (-61 * c1 ** 6 + 244 * c1 ** 4 * c2 + 464 * c1 ** 3 * c3
            + 1088 * c1 * c2 * c3
            - 8 * c1 * c1 * (89 * c2 * c2 + 108 * c4)
            - 32 * (9 * c2 ** 3 + 32 * c3 * c3 - 36 * c2 * c4))


# ---------------------------------------------------------------------------
# max of |A + Bz + Cz^2| + 1 - |z|^2 over the closed unit disk
# ---------------------------------------------------------------------------

class YMaxDetail(NamedTuple):
    value: float
    branch: str


def _y_R(aA: float, aB: float, aC: float, A: float, B: float, C: float):
    if aC * (aB + 4 * aA) <= abs(A * B):
        return aA + aB - aC, "R.edge"
    if abs(A * B) <= aC * (aB - 4 * aA):
        return -aA + aB + aC, "R.opposite"
    return (aA + aC) * math.sqrt(1 - B * B / (4 * A * C)), "R.curve"


def y_max_detail(A, B, C) -> YMaxDetail:
    """max over the closed unit disk of |A + Bz + Cz^2| + 1 - |z|^2.

    Case split for real A, B, C.  For AC < 0 the inner condition uses
    -4AC(C^{-2} - 1); with C^2 in place of C^{-2} the formula fails
    against direct maximization, so the inverse-square form is the one
    implemented.  Branch boundaries are decided by first match in the
    order written here.
    """
    A, B, C = float(A), float(B), float(C)
    aA, aB, aC = abs(A), abs(B), abs(C)
    if A * C >= 0:
        if aB >= 2 * (1 - aC):
            val, br = aA + aB + aC, "i.edge"
        else:
            val, br = 1 + aA + B * B / (4 * (1 - aC)), "i.parabola"
    else:
        disc = -4 * A * C * (C ** -2 - 1)
        if disc <= B * B and aB < 2 * (1 - aC):
            val, br = 1 - aA + B * B / (4 * (1 - aC)), "ii.inner"
        elif B * B < min(4 * (1 + aC) ** 2, disc):
            val, br = 1 + aA + B * B / (4 * (1 + aC)), "ii.outer"
        else:
            val, br = _y_R(aA, aB, aC, A, B, C)
    return YMaxDetail(val, br)


def y_max(A, B, C) -> float:
    """Value-only form of :func:`y_max_detail`."""
    return y_max_detail(A, B, C).value


# ---------------------------------------------------------------------------
# Janowski disk criterion
# ---------------------------------------------------------------------------

class JanowskiParams:
    """Parameters of (1 + Az)/(1 + Bz) with -1 < B < A <= 1, kept exact.

    A and B are read-only views of the one slot the constructor fills
    after its range check; the image disk of the unit circle and both
    inclusion tests are read from them."""

    __slots__ = ("_AB",)

    def __init__(self, A, B):
        # floats are converted to their exact binary rational so that the
        # two equivalent tests below can never disagree by rounding
        to_frac = lambda v: Fraction(v) if isinstance(v, float) else as_fraction(v)
        A, B = to_frac(A), to_frac(B)
        if not (-1 < B < A <= 1):
            raise ValueError(f"need -1 < B < A <= 1, got A={A}, B={B}")
        self._AB = (A, B)

    A = property(lambda self: self._AB[0])
    B = property(lambda self: self._AB[1])
    # the image disk: center (1 - AB)/(1 - B^2), radius (A - B)/(1 - B^2),
    # and its ends on the real axis, (1 - A)/(1 - B) and (1 + A)/(1 + B)
    center = property(lambda self: (1 - self.A * self.B) / (1 - self.B * self.B))
    radius = property(lambda self: (self.A - self.B) / (1 - self.B * self.B))
    inner_value = property(lambda self: self.center - self.radius)
    outer_value = property(lambda self: self.center + self.radius)
    interval_test = property(lambda self: self.inner_value >= Fraction(1, 4)
                             and self.outer_value <= Fraction(9, 4))
    disk_test = property(lambda self: abs(self.center - Fraction(5, 4)) + self.radius <= 1)
    agree = property(lambda self: self.interval_test == self.disk_test)


def janowski_check(j: JanowskiParams) -> tuple[bool, JanowskiParams]:
    """Does (1 + Az)/(1 + Bz) map the disk into the region between 1/4 and 9/4?

    Checks the endpoint inequalities (1-A)/(1-B) >= 1/4 and
    (1+A)/(1+B) <= 9/4, and independently the single disk inclusion
    |center - 5/4| + radius <= 1.  The two are algebraically equivalent,
    and with exact rational arithmetic they must agree verbatim.
    Returns the interval test's verdict and ``j``, which reads both.

    Floats are accepted (converted exactly to their binary rational), so
    the two routes still agree bit-for-bit.
    """
    if not j.agree:  # pragma: no cover - the two tests are algebraically equal
        raise AssertionError("interval and disk tests disagree on exact input")
    return j.interval_test, j


# ---------------------------------------------------------------------------
# scans of the target phi(z) = (1 + z/2)^2
# ---------------------------------------------------------------------------

# the radius of the polar grid ma_minda_scan lays over the disk
_PHI_SCAN_RADIUS = 1 - 1e-6


class PhiScanReport(NamedTuple):
    grid_density: int
    min_modulus: float
    max_modulus: float
    min_real: float
    max_starlike_ratio: float      # max |z / (8 + 3z)|, must stay < 1/5
    boundary_min: float            # min over t of |phi(e^it) - 5/4|^2
    boundary_argmin: float
    boundary_at_0: float
    boundary_at_pi: float
    samples: int                   # points where the scan evaluated phi

    radius_cap = property(lambda self: _PHI_SCAN_RADIUS)

    @property
    def checks(self) -> dict:
        """The six verdicts, read from the measured values."""
        return {
            "modulus_above_quarter": self.min_modulus > 0.25,
            "modulus_below_nine_quarters": self.max_modulus < 2.25,
            "real_part_positive": self.min_real > 0.0,
            "starlike_ratio_below_fifth": self.max_starlike_ratio < 0.2,
            "boundary_distance_at_least_one": self.boundary_min >= 1 - 1e-10,
            "tangency_at_0_and_pi": (abs(self.boundary_at_0 - 1) <= 1e-10
                                     and abs(self.boundary_at_pi - 1) <= 1e-10),
        }

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def _phi_scan_samples(grid_density: int, boundary_points: int) -> int:
    """Samples :func:`ma_minda_scan` takes: the polar grid, then the circle."""
    return grid_density * 4 * grid_density + boundary_points


def ma_minda_scan(grid_density: int = 64) -> PhiScanReport:
    """Numeric scan of the analytic properties the target function needs.

    On a polar grid of the disk of radius ``_PHI_SCAN_RADIUS`` it measures
    the range of phi(z) = (1 + z/2)^2 (modulus between 1/4 and 9/4,
    positive real part) and the starlikeness ratio |z/(8 + 3z)| of the
    Mobius transform (1 + z/2)/(1 + z/4).  On ``grid_density**2`` points
    of the unit circle (one more if that is odd) it measures
    |phi(e^it) - 5/4|^2, whose minimum value 1 is attained exactly at
    t = 0 and t = pi.  Both scans run in blocks.
    """
    if grid_density < 8:
        raise ValueError("grid_density must be >= 8")
    npts = grid_density * grid_density
    npts += npts % 2  # keep t = pi on the grid
    _within_budget(_phi_scan_samples(grid_density, npts))
    from . import oracles
    # the oracle returns the measured values in the report's field order
    return PhiScanReport(grid_density,
                         *oracles._phi_scan(grid_density, _PHI_SCAN_RADIUS, npts))


# ---------------------------------------------------------------------------
# the |H2(2)| envelope over the Caratheodory slice
# ---------------------------------------------------------------------------

def _h2_slice(q) -> tuple:
    """(A, B, C, |D|, g1, g0) at p1 = q, exact; ``q`` is a Fraction, or
    ``BiPoly.var_p()`` for the same formulas as polynomials in p1.

    g1 = -A + B - C and g0 = -A + B + |D| are the values at |gamma| = 1
    and |gamma| = 0 of the capped slice bound, typed on their own so that
    their identities with the groups are checked, not assumed."""
    s = 4 - q * q
    return (q ** 4 * Fraction(-19, 3072),
            q * q * s * Fraction(1, 384),
            (q ** 4 + 8 * q * q - 48) * Fraction(1, 192),
            q * s * Fraction(1, 24),
            (768 - 96 * q * q - 5 * q ** 4) * Fraction(1, 3072),
            (512 * q + 32 * q * q - 128 * q ** 3 + 11 * q ** 4) * Fraction(1, 3072))


def h2_terms(p1) -> tuple:
    """Exact slice coefficients (A, B, C, |D|) of
    H2(2) = A + B gamma + C gamma^2 + D (1 - |gamma|^2) at fixed p1 in [0, 2].

    D is reported by magnitude (its phase is carried by eta, |eta| <= 1).
    """
    q = as_fraction(p1)
    if not 0 <= q <= 2:
        raise ValueError(f"p1 must lie in [0, 2], got {p1}")
    return _h2_slice(q)[:4]


def h2_envelope(p1) -> Fraction:
    """Sharp upper envelope g1(p1) = (768 - 96 p1^2 - 5 p1^4)/3072 of
    |H2(2)| at fixed p1, exact: 1/4 at p1 = 0 and 19/192 at p1 = 2."""
    q = as_fraction(p1)
    if not 0 <= q <= 2:
        raise ValueError(f"p1 must lie in [0, 2], got {p1}")
    return _h2_slice(q)[4]
