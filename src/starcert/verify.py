"""End-to-end verification pipelines.

Each pipeline pairs a *certified chain* (exact rational identities,
Bernstein certificates) with an *independent float oracle* (dense numeric
sampling of the quantity the chain is supposed to bound).  The oracle
never reuses the certified code path: the Hankel oracles sample the disk
parametrizations directly with numpy, so a bug would have to appear in
two unrelated routes to go unnoticed.

Pipelines
---------
verify_h2    sharp bound |H2(2)| <= 1/4
verify_h3    sharp bound |H3(1)| <= 1/9 via Bernstein certificates
max_a4       numeric maximization of |a4| over the Schwarz parametrization
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .bernstein import (UNIT_BOX, CornerRule, PositivityCertificate,
                        bound_above, certify_positive, check_certificate)
from .gft import (h2_envelope, h2_envelope_deriv, h2_normalized, h2_terms,
                  h3_schwarz_poly, hankel2, schwarz_to_coeffs)
from .rationals import format_rational
from .reduction import HANKEL3_SCALE, MAJORANT_TARGET, build_h3_reduction

__all__ = ["VerificationReport", "verify_h2", "verify_h3",
           "A4Search", "max_a4", "a4_family"]

DEFAULT_SEED = 20240605


@dataclass
class VerificationReport:
    """Outcome of one pipeline: a claim, its exact bound, and evidence."""

    claim: str
    bound: Fraction
    status: str                      # "verified" | "failed"
    details: dict = field(default_factory=dict)
    artifacts: list = field(default_factory=list)
    certificate: PositivityCertificate | None = None

    @property
    def verified(self) -> bool:
        return self.status == "verified"

    def to_json_doc(self) -> dict:
        return {
            "claim": self.claim,
            "bound": format_rational(self.bound),
            "status": self.status,
            "artifacts": list(self.artifacts),
        }

    def render(self) -> str:
        lines = [f"claim:  {self.claim}",
                 f"bound:  {format_rational(self.bound)}"
                 f" = {float(self.bound):.12g}",
                 f"status: {self.status}"]
        for key in sorted(self.details):
            lines.append(f"  {key}: {self.details[key]}")
        return "\n".join(lines)


def _random_fraction(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    den = rng.randint(40, 400)
    num = rng.randint(1, den - 1)
    return lo + (hi - lo) * Fraction(num, den)


# ---------------------------------------------------------------------------
# |H2(2)| <= 1/4
# ---------------------------------------------------------------------------

def _polar_grid(n_radii: int, n_angles: int):
    """Flattened complex grid of the closed unit disk, r = 1 included."""
    import numpy as np
    r = np.linspace(0.0, 1.0, n_radii)
    t = np.linspace(0.0, 2 * math.pi, n_angles, endpoint=False)
    return (r[:, None] * np.exp(1j * t)[None, :]).ravel()


def verify_h2(grid: int = 32, seed: int = DEFAULT_SEED) -> VerificationReport:
    """Certify |H2(2)| <= 1/4 on the class and cross-check numerically.

    Certified chain (all exact rational):

    * envelope identity |A| + |B| + |C| = g1(p1) at 50 random rational
      p1 in (0, 2), where (A, B, C, |D|) are the slice coefficients of
      H2(2) = A + B gamma + C gamma^2 + D (1 - |gamma|^2);
    * the piecewise-max case conditions A1 C1 > 0, |C1| >= 1 and
      |B1| >= 2 (1 - |C1|) that make the slice maximum equal |D| times
      (|A1| + |B1| + |C1|);
    * g1 strictly decreasing (g1' < 0 on (0, 2)), so the supremum sits at
      p1 = 0 with value 1/4; the endpoint slices give 1/4 and 19/192;
    * sharpness: the member driven by w(z) = z^2 has H2(2) = -1/4.

    Float oracle: a >= 10^5-point scan of |A + B gamma + C gamma^2 +
    D (1 - |gamma|^2)| over p1 in [0, 2] and gamma, eta in the closed
    disk must stay below 1/4 + 1e-9.
    """
    if grid < 32:
        raise ValueError("grid must be >= 32")
    import numpy as np
    rng = random.Random(seed)
    details: dict = {}
    failure = None

    # --- exact envelope identity and case conditions -------------------
    identity_ok = True
    cases_ok = True
    for _ in range(50):
        p1 = _random_fraction(rng, Fraction(0), Fraction(2))
        A, B, C, D_mag = h2_terms(p1)
        a1, b1, c1 = h2_normalized(p1)
        lhs = abs(A) + abs(B) + abs(C)
        if lhs != h2_envelope(p1) or lhs != D_mag * (abs(a1) + abs(b1) + abs(c1)):
            identity_ok = False
        if not (a1 * c1 > 0 and abs(c1) >= 1 and abs(b1) >= 2 * (1 - abs(c1))):
            cases_ok = False
    details["envelope_identity_exact_50"] = identity_ok
    details["case_conditions_hold"] = cases_ok

    # --- monotone decrease and endpoints --------------------------------
    grid_vals = [h2_envelope(Fraction(i, 128)) for i in range(0, 257)]
    decreasing = all(grid_vals[i] > grid_vals[i + 1] for i in range(256))
    deriv_neg = all(h2_envelope_deriv(_random_fraction(rng, Fraction(0), Fraction(2))) < 0
                    for _ in range(50))
    details["envelope_strictly_decreasing"] = decreasing and deriv_neg
    endpoints_ok = (h2_envelope(0) == Fraction(1, 4)
                    and h2_envelope(2) == Fraction(19, 192))
    details["endpoint_values"] = "1/4 and 19/192" if endpoints_ok else "WRONG"

    # --- sharpness -------------------------------------------------------
    witness = hankel2(schwarz_to_coeffs((0, 1, 0, 0)))
    details["sharpness_w_z2"] = format_rational(witness)
    sharp_ok = witness == Fraction(-1, 4)

    exact_ok = identity_ok and cases_ok and decreasing and deriv_neg \
        and endpoints_ok and sharp_ok
    if not exact_ok:
        failure = "oracle"

    # --- float oracle ----------------------------------------------------
    gam = _polar_grid(grid // 3 + 1, grid)
    eta = _polar_grid(3, 16)
    one_minus_g2 = (1 - np.abs(gam) ** 2)[:, None]
    gcol = gam[:, None]
    erow = eta[None, :]
    observed = 0.0
    samples = 0
    for p1 in np.linspace(0.0, 2.0, grid):
        s = 4 - p1 * p1
        a = -19 * p1 ** 4 / 3072
        b = p1 * p1 * s / 384
        c = (p1 ** 4 + 8 * p1 * p1 - 48) / 192
        d0 = p1 * s / 24
        vals = np.abs(a + b * gcol + c * gcol ** 2 + d0 * erow * one_minus_g2)
        observed = max(observed, float(vals.max()))
        samples += vals.size
    details["oracle_samples"] = samples
    details["oracle_max"] = observed
    if not (samples >= 10 ** 5 and observed <= 0.25 + 1e-9):
        failure = failure or "oracle"

    return VerificationReport(
        claim="second Hankel determinant bound |H2(2)| <= 1/4 on the "
              "starlike class with target (1+z/2)^2, sharp at w(z) = z^2",
        bound=Fraction(1, 4),
        status="verified" if failure is None else "failed",
        details={**details, "failure": failure},
    )


# ---------------------------------------------------------------------------
# |H3(1)| <= 1/9
# ---------------------------------------------------------------------------

def _h3_param_abs(c1, gam, eta, rho):
    """|h3 polynomial| through the Schwarz parametrization, numpy-native.

    This duplicates the scalar formulas on purpose: the oracle must not
    depend on the code path it is checking.
    """
    import numpy as np
    u = 1 - c1 * c1
    g2 = 1 - np.abs(gam) ** 2
    e2 = 1 - np.abs(eta) ** 2
    c2 = u * gam
    c3 = u * (g2 * eta - c1 * gam ** 2)
    c4 = u * (c1 * c1 * gam ** 3
              - g2 * (2 * c1 * gam * eta + np.conjugate(gam) * eta ** 2 - e2 * rho))
    val = (-61 * c1 ** 6 + 244 * c1 ** 4 * c2 + 464 * c1 ** 3 * c3
           + 1088 * c1 * c2 * c3
           - 8 * c1 * c1 * (89 * c2 * c2 + 108 * c4)
           - 32 * (9 * c2 ** 3 + 32 * c3 * c3 - 36 * c2 * c4))
    return np.abs(val)


def verify_h3(max_depth: int = 3, grid: int = 12,
              seed: int = DEFAULT_SEED) -> VerificationReport:
    """Certify |H3(1)| <= 1/9 and cross-check numerically.

    Certified chain:

    * :func:`starcert.reduction.build_h3_reduction` expands the grouped
      majorant H of the scaled determinant and survives its transcription
      guard;
    * a Bernstein branch-and-bound certificate (with the corner estimate
      at the origin) proves gap = 1024 - endpoint_y1 >= 0 on [0,1]^2, and
      the certificate passes independent re-validation;
    * the max Bernstein coefficient of endpoint_y0 on [0,1]^2 (910) also
      sits below the target 1024;
    * exact spot checks on rational grids: the y-coefficient group of H
      is nonnegative and H1 is bounded by its two y-endpoints;
    * sharpness: the Schwarz data (0, 0, 1, 0) (i.e. w(z) = z^3) attains
      the scaled value -1024 exactly.

    Float oracle: dense sampling of |9216 H3| through the disk
    parametrization stays below 1024 (1 + 1e-9), and on random scalar
    samples the majorant H dominates the sampled value.
    """
    if max_depth < 3:
        raise ValueError("max_depth must be >= 3 (the corner box appears at depth 3)")
    if grid < 4:  # the smallest grid whose oracle reaches 10^4 samples
        raise ValueError("grid must be >= 4")
    import numpy as np
    red = build_h3_reduction()
    details: dict = {}
    failure = None

    cert = certify_positive(red.gap, UNIT_BOX, max_depth, CornerRule(0, 0))
    details["certificate_leaves"] = len(cert.leaves())
    details["certificate_succeeded"] = cert.succeeded
    if not cert.succeeded:
        failure = "certification"
    recheck = check_certificate(red.gap, cert, UNIT_BOX)
    details["certificate_revalidated"] = recheck
    if not recheck:
        failure = failure or "certification"

    y0_max = bound_above(red.endpoint_y0, UNIT_BOX, 0)
    details["endpoint_y0_bernstein_max"] = format_rational(y0_max)
    if y0_max > MAJORANT_TARGET:
        failure = failure or "certification"

    # --- exact structural spot checks ---------------------------------
    ninths = [Fraction(i, 8) for i in range(9)]
    ycoef_ok = all(red.ycoef.evaluate(p, x) >= 0 for p in ninths for x in ninths)
    endpoint_ok = True
    for p in ninths[::2]:
        for x in ninths[::2]:
            hi = max(red.endpoint_y1.evaluate(p, x), red.endpoint_y0.evaluate(p, x))
            for y in ninths[::2]:
                if red.majorant_capped(p, x, y) > hi:
                    endpoint_ok = False
                if red.majorant(p, x, y) > red.majorant_capped(p, x, y):
                    endpoint_ok = False
    details["ycoef_nonnegative_grid"] = ycoef_ok
    details["capped_between_endpoints"] = endpoint_ok
    if not (ycoef_ok and endpoint_ok):
        failure = failure or "certification"

    # --- sharpness -----------------------------------------------------
    sharp = h3_schwarz_poly((0, 0, 1, 0))
    details["sharpness_w_z3_scaled"] = format_rational(sharp)
    if sharp != -MAJORANT_TARGET:
        failure = failure or "oracle"

    # --- float oracle ----------------------------------------------------
    gam = _polar_grid(grid // 2 + 1, 2 * grid)
    eta = _polar_grid(3, grid)
    rho = _polar_grid(2, 8)
    gc = gam[:, None, None]
    ec = eta[None, :, None]
    rc = rho[None, None, :]
    observed = 0.0
    samples = 0
    for c1 in np.linspace(0.0, 1.0, grid + 1):
        vals = _h3_param_abs(c1, gc, ec, rc)
        observed = max(observed, float(vals.max()))
        samples += vals.size
    details["oracle_samples"] = samples
    details["oracle_max_scaled"] = observed
    if not (samples >= 10 ** 4 and observed <= MAJORANT_TARGET * (1 + 1e-9)):
        failure = failure or "oracle"

    # majorant domination on random scalar samples
    rng = np.random.default_rng(seed)
    dominated = True
    for _ in range(300):
        c1 = rng.uniform(0, 1)
        g = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        e = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        r = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        val = float(_h3_param_abs(c1, g, e, r))
        maj = red.majorant(c1, abs(g), abs(e))
        if val > maj + 1e-9:
            dominated = False
    details["majorant_dominates_samples"] = dominated
    if not dominated:
        failure = failure or "oracle"

    bound = Fraction(max(MAJORANT_TARGET, y0_max), HANKEL3_SCALE)
    return VerificationReport(
        claim="third Hankel determinant bound |H3(1)| <= 1/9 on the "
              "starlike class with target (1+z/2)^2, sharp at w(z) = z^3",
        bound=bound,
        status="verified" if failure is None else "failed",
        details={**details, "failure": failure},
        certificate=cert,
    )


# ---------------------------------------------------------------------------
# maximum of |a4|
# ---------------------------------------------------------------------------

def a4_family(t: float) -> float:
    """|a4| along the one-parameter Blaschke family: t (1 - t^2) - 7/24 t^3."""
    return t * (1 - t * t) - (7 / 24) * t ** 3


@dataclass(frozen=True)
class A4Search:
    value: float            # best |a4| found
    c1: float               # witness Schwarz data
    gamma: complex
    eta: complex
    family_t: float         # maximizer of the closed-form family
    family_value: float
    samples: int


def _a4_abs(c1, gam, eta):
    import numpy as np
    u = 1 - c1 * c1
    c2 = u * gam
    c3 = u * ((1 - np.abs(gam) ** 2) * eta - c1 * gam ** 2)
    return np.abs(c3 / 3 + (2 / 3) * c1 * c2 + (7 / 24) * c1 ** 3)


def max_a4(grid: int = 48, refine: int = 60) -> A4Search:
    """Maximize |a4| over the Schwarz coefficient body.

    A coarse polar scan over (c1, gamma, eta) seeds a shrinking-window
    local refinement around the incumbent.  The closed-form single
    parameter family t (1 - t^2) - 7/24 t^3 (the |a4| value of the
    degree-two Blaschke witness with parameter t) is maximized separately
    by ternary search and reported for comparison; the two must agree.
    """
    if grid < 16:
        raise ValueError("grid must be >= 16")
    if refine < 1:
        raise ValueError("refine must be >= 1")
    import numpy as np
    c1s = np.linspace(0.0, 1.0, grid + 1)
    gam = _polar_grid(grid // 3 + 1, 2 * grid)
    eta = _polar_grid(3, 8)
    samples = 0
    best = (-1.0, 0.0, 0.0 + 0j, 0.0 + 0j)
    vals = _a4_abs(c1s[:, None, None], gam[None, :, None], eta[None, None, :])
    samples += vals.size
    idx = np.unravel_index(np.argmax(vals), vals.shape)
    best = (float(vals[idx]), float(c1s[idx[0]]), complex(gam[idx[1]]),
            complex(eta[idx[2]]))

    # shrinking-window refinement around the incumbent
    w_c, w_r, w_t = 1.5 / grid, 0.4, 0.4
    val, c1b, gb, eb = best
    for _ in range(refine):
        rb, tb = abs(gb), math.atan2(gb.imag, gb.real)
        re_, te = abs(eb), math.atan2(eb.imag, eb.real)
        c1_loc = np.clip(np.linspace(c1b - w_c, c1b + w_c, 9), 0.0, 1.0)
        g_loc = (np.clip(np.linspace(rb - w_r, rb + w_r, 9), 0.0, 1.0)[:, None]
                 * np.exp(1j * np.linspace(tb - w_t, tb + w_t, 9))[None, :]).ravel()
        e_loc = (np.clip(np.linspace(re_ - w_r, re_ + w_r, 5), 0.0, 1.0)[:, None]
                 * np.exp(1j * np.linspace(te - w_t, te + w_t, 5))[None, :]).ravel()
        vals = _a4_abs(c1_loc[:, None, None], g_loc[None, :, None],
                       e_loc[None, None, :])
        samples += vals.size
        idx = np.unravel_index(np.argmax(vals), vals.shape)
        if float(vals[idx]) > val:
            val = float(vals[idx])
            c1b = float(c1_loc[idx[0]])
            gb = complex(g_loc[idx[1]])
            eb = complex(e_loc[idx[2]])
        w_c *= 0.65
        w_r *= 0.65
        w_t *= 0.65

    # closed-form family by ternary search on [0, 1]
    lo, hi = 0.0, 1.0
    for _ in range(200):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if a4_family(m1) < a4_family(m2):
            lo = m1
        else:
            hi = m2
    t_star = (lo + hi) / 2

    return A4Search(value=val, c1=c1b, gamma=gb, eta=eb,
                    family_t=t_star, family_value=a4_family(t_star),
                    samples=samples)
