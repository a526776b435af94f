"""End-to-end verification pipelines.

Each pipeline pairs a *certified chain* (exact rational identities,
Bernstein certificates) with an *independent float oracle* (dense numeric
sampling of the quantity the chain is supposed to bound).  The oracles live
in :mod:`starcert.oracles`, which imports numpy and no starcert code, so a
bug would have to appear in two unrelated routes to go unnoticed.  Each
pipeline counts its samples against the budget before it imports them, and
judges what they measured; this module imports no numpy.

Pipelines
---------
verify_h2    sharp bound |H2(2)| <= 1/4
verify_h3    sharp bound |H3(1)| <= 1/9 via Bernstein certificates
max_a4       numeric maximization of |a4| over the Schwarz parametrization
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .bernstein import (UNIT_BOX, Box, CornerRule, PositivityCertificate,
                        bound_above, certify_positive, check_certificate,
                        enclosure, to_bernstein)
from .gft import _h2_slice, _within_budget, hankel2, hankel3, schwarz_to_coeffs
from .poly import BiPoly
from .rationals import format_rational
from .reduction import HANKEL3_SCALE, MAJORANT_TARGET, build_h3_reduction

__all__ = ["VerificationReport", "verify_h2", "verify_h3",
           "A4Search", "max_a4", "a4_family"]


class VerificationReport(NamedTuple):
    """Outcome of one pipeline: a claim, its exact bound, and evidence.

    The verdict is stored once, as ``details["failure"]``: None if every
    step held, ``"certification"`` if any exact step failed, else
    ``"oracle"`` if a float check failed.  The status, the JSON and the
    CLI's exit code all read it."""

    claim: str
    bound: Fraction
    details: dict
    certificate: PositivityCertificate | None = None

    @property
    def status(self) -> str:
        return "verified" if self.details["failure"] is None else "failed"

    @property
    def verified(self) -> bool:
        return self.status == "verified"

    def to_json_doc(self, artifacts: Sequence[str] = ()) -> dict:
        """The report as JSON; ``artifacts`` are the files the run wrote."""
        return {
            "claim": self.claim,
            "bound": format_rational(self.bound),
            "status": self.status,
            "artifacts": list(artifacts),
            "details": self.details,
        }

    def render(self) -> str:
        lines = [f"claim:  {self.claim}",
                 f"bound:  {format_rational(self.bound)}"
                 f" = {float(self.bound):.12g}",
                 f"status: {self.status}"]
        for key in sorted(self.details):
            lines.append(f"  {key}: {self.details[key]}")
        return "\n".join(lines)


def _report(claim: str, bound: Fraction, details: dict, exact: bool,
            floats: bool, certificate=None) -> VerificationReport:
    """The report, with the failure kind its exact steps and float checks give."""
    failure = "certification" if not exact else None if floats else "oracle"
    return VerificationReport(claim, bound, {**details, "failure": failure},
                              certificate)


# ---------------------------------------------------------------------------
# the capped-slice step both Hankel bounds rest on
# ---------------------------------------------------------------------------

def _nonnegative(poly: BiPoly, box: Box) -> bool:
    """poly >= 0 on the box: its Bernstein coefficients enclose its range."""
    return enclosure(to_bernstein(poly, box))[0] >= 0


def _capped_slice(groups: tuple, e1: BiPoly, e0: BiPoly, box: Box, target,
                  details: dict) -> tuple:
    """Bound base + ycoef y + y2coef y^2 + comp (1 - y^2) over the box and
    0 <= y <= 1 (the grouped triangle inequality of Kowalczyk, Lecko & Sim
    2018); returns (proven, bound, certificate or None), facts in details.

    With ycoef >= 0, freezing the linear y at 1 raises the sum by
    ycoef (1 - y) to H1 = y^2 e1 + (1 - y^2) e0, given the identities
    e1 = base + ycoef + y2coef and e0 = base + ycoef + comp, and H1 is at
    most max(e1, e0).  An endpoint is bounded by its largest Bernstein
    coefficient on the box or, where that exceeds the target, by a
    re-checked certificate of target - e: of the two pipelines, only
    H3's endpoint_y1 needs one, and the report carries it.
    """
    base, ycoef, y2coef, comp = groups
    ycoef_ok = _nonnegative(ycoef, box)
    capped = e1 == base + ycoef + y2coef and e0 == base + ycoef + comp
    details["ycoef_nonnegative"] = ycoef_ok
    details["capped_between_endpoints"] = capped
    proven, cert, tops = ycoef_ok and capped, None, []
    for name, end in (("endpoint_y1", e1), ("endpoint_y0", e0)):
        top = bound_above(end, box, 0)
        details[f"{name}_bernstein_max"] = format_rational(top)
        if top > target:
            # both bounds are attained at their box's origin, where the corner
            # estimate closes the tree; H3's corner box [0, 1/8]^2 is at depth 3
            gap = target - end
            cert = certify_positive(gap, box, 3, CornerRule(0, 0))
            recheck = check_certificate(gap, cert, box)
            details["certificate_leaves"] = len(cert.leaves())
            details["certificate_succeeded"] = cert.succeeded
            details["certificate_revalidated"] = recheck
            proven = proven and cert.succeeded and recheck
            top = target
        tops.append(top)
    return proven, max(tops), cert


# ---------------------------------------------------------------------------
# |H2(2)| <= 1/4
# ---------------------------------------------------------------------------

def _h2_samples(grid: int) -> int:
    """Samples of the verify_h2 oracle: p1 x gamma x eta grids."""
    return grid * (grid // 3 + 1) * grid * 3 * 16


def verify_h2(grid: int = 32) -> VerificationReport:
    """Certify |H2(2)| <= 1/4 on the class and cross-check numerically.

    Certified chain, exact for all p1 in [0, 2] at once: the slice
    coefficients of H2(2) = A + B gamma + C gamma^2 + D (1 - |gamma|^2)
    and the endpoints g1, g0 are polynomials in p1 (see
    :func:`starcert.gft.h2_terms`), signed by their Bernstein coefficients:

    * -A, -C, |D| >= 0, so |H2(2)| <= -A + B y - C y^2 + |D| (1 - y^2)
      with y = |gamma| and |eta| <= 1;
    * the capped-slice step on (-A, B, -C, |D|) bounds that by
      max(g1, g0) <= 1/4 (largest coefficients 1/4 and 3/16), no cases;
    * sharpness: the member driven by w(z) = z^2 has H2(2) = -1/4.

    Float oracle: a >= 10^5-point scan of |A + B gamma + C gamma^2 +
    D (1 - |gamma|^2)| over p1 in [0, 2] and gamma, eta in the closed
    disk must stay below 1/4 + 1e-9.
    """
    if grid < 32:
        raise ValueError("grid must be >= 32")
    _within_budget(_h2_samples(grid))
    from . import oracles
    details: dict = {}

    # --- the groups are the moduli, then the capped-slice step -------------
    box = Box(0, 2, 0, 1)
    A, B, C, D, g1, g0 = _h2_slice(BiPoly.var_p())
    signs_ok = all(_nonnegative(group, box) for group in (-A, -C, D))
    details["envelope_identity_exact"] = signs_ok
    step_ok, bound, _ = _capped_slice((-A, B, -C, D), g1, g0, box,
                                      Fraction(1, 4), details)

    # --- sharpness -------------------------------------------------------
    witness = hankel2(schwarz_to_coeffs((0, 1, 0, 0)))
    details["sharpness_w_z2"] = format_rational(witness)
    exact = signs_ok and step_ok and witness == Fraction(-1, 4)

    # --- float oracle ----------------------------------------------------
    observed, samples = oracles._h2_scan(grid)
    details["oracle_samples"] = samples
    details["oracle_max"] = observed
    floats = samples >= 10 ** 5 and observed <= 0.25 + 1e-9

    return _report(
        "second Hankel determinant bound |H2(2)| <= 1/4 on the "
        "starlike class with target (1+z/2)^2, sharp at w(z) = z^2",
        bound, details, exact, floats)


# ---------------------------------------------------------------------------
# |H3(1)| <= 1/9
# ---------------------------------------------------------------------------

def _h3_samples(grid: int) -> int:
    """Samples of the verify_h3 grid oracle: c1 x gamma x eta x rho grids."""
    return (grid + 1) * (grid // 2 + 1) * 2 * grid * 3 * grid * 2 * 8


def verify_h3(grid: int = 12) -> VerificationReport:
    """Certify |H3(1)| <= 1/9 and cross-check numerically.

    Certified chain:

    * :func:`starcert.reduction.build_h3_reduction` expands the grouped
      majorant H of the scaled determinant and survives its transcription
      guard;
    * the capped-slice step on its groups over [0,1]^2, target 1024:
      endpoint_y0 <= 910 by its Bernstein coefficients, endpoint_y1 <= 1024
      by a re-validated branch-and-bound certificate of 1024 - endpoint_y1;
    * the reduction's published gap is that certified polynomial;
    * sharpness: the Schwarz data (0, 0, 1, 0) (i.e. w(z) = z^3) give
      9216 H3(1) = -1024 exactly.

    Float oracle: dense sampling of |9216 H3| through the disk
    parametrization stays below 1024 (1 + 1e-9), and at every sampled
    (c1, gamma, eta) the majorant H(c1, |gamma|, |eta|) + 1e-9 dominates
    |P| + |Q|, the largest |P + Q rho| over the closed rho disk.
    """
    if grid < 4:  # the smallest grid whose oracle reaches 10^4 samples
        raise ValueError("grid must be >= 4")
    _within_budget(_h3_samples(grid))
    from . import oracles
    red = build_h3_reduction()
    details: dict = {}

    # a saved certificate is re-checked against the published gap
    gap_ok = red.gap == MAJORANT_TARGET - red.endpoint_y1
    details["gap_is_target_minus_endpoint_y1"] = gap_ok
    step_ok, bound, cert = _capped_slice(
        (red.base, red.ycoef, red.y2coef, red.comp), red.endpoint_y1,
        red.endpoint_y0, UNIT_BOX, MAJORANT_TARGET, details)

    # --- sharpness -----------------------------------------------------
    sharp = HANKEL3_SCALE * hankel3(schwarz_to_coeffs((0, 0, 1, 0)))
    details["sharpness_w_z3_scaled"] = format_rational(sharp)
    exact = gap_ok and step_ok and sharp == -MAJORANT_TARGET

    # --- float oracle ----------------------------------------------------
    # H is evaluated here, on the grid's rings: the oracle calls no
    # certified code
    observed, samples, dominated = oracles._h3_scan(
        grid, red.majorant(*oracles._h3_rings(grid)))
    details["oracle_samples"] = samples
    details["oracle_max_scaled"] = observed
    details["majorant_dominates_samples"] = dominated
    floats = (samples >= 10 ** 4 and observed <= MAJORANT_TARGET * (1 + 1e-9)
              and dominated)

    return _report(
        "third Hankel determinant bound |H3(1)| <= 1/9 on the "
        "starlike class with target (1+z/2)^2, sharp at w(z) = z^3",
        Fraction(bound, HANKEL3_SCALE), details, exact, floats,
        certificate=cert)


# ---------------------------------------------------------------------------
# maximum of |a4|
# ---------------------------------------------------------------------------

def a4_family(t: float) -> float:
    """|a4| along the one-parameter Blaschke family: t (1 - t^2) - 7/24 t^3."""
    return t * (1 - t * t) - (7 / 24) * t ** 3


class A4Search(NamedTuple):
    value: float            # best |a4| found
    c1: float               # witness Schwarz data
    gamma: complex
    eta: complex
    samples: int

    @property
    def family_t(self) -> float:
        # the maximizer of a4_family: 1 - (31/8) t^2 vanishes there
        return math.sqrt(8 / 31)

    @property
    def family_value(self) -> float:
        return a4_family(self.family_t)


def _a4_samples(grid: int, refine: int) -> int:
    """Samples of max_a4: coarse c1 x gamma x eta scan, then refinements."""
    return (grid + 1) * (grid // 3 + 1) * 2 * grid * 3 * 8 + refine * 9 * 81 * 25


def max_a4(grid: int = 48, refine: int = 60) -> A4Search:
    """Maximize |a4| over the Schwarz coefficient body.

    A coarse polar scan over (c1, gamma, eta) seeds a shrinking-window
    local refinement around the incumbent.  The closed-form single
    parameter family t (1 - t^2) - 7/24 t^3 (the |a4| value of the
    degree-two Blaschke witness with parameter t) peaks at t = sqrt(8/31),
    and is reported there for comparison; the two must agree.
    """
    if grid < 16:
        raise ValueError("grid must be >= 16")
    if refine < 1:
        raise ValueError("refine must be >= 1")
    _within_budget(_a4_samples(grid, refine))
    from . import oracles
    (val, c1b, gb, eb), samples = oracles._a4_search(grid, refine)
    return A4Search(val, c1b, gb, eb, samples)
