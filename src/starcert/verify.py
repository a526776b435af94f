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
from fractions import Fraction
from typing import NamedTuple

from .bernstein import (UNIT_BOX, BiPoly, Box, CornerRule,
                        PositivityCertificate, bound_above, certify_positive,
                        check_certificate, enclosure, to_bernstein)
from .gft import (_BLOCK_SAMPLES, _h2_slice, _within_budget, h2_envelope,
                  h3_schwarz_poly, hankel2, schwarz_to_coeffs)
from .rationals import format_rational
from .reduction import HANKEL3_SCALE, MAJORANT_TARGET, build_h3_reduction

__all__ = ["VerificationReport", "verify_h2", "verify_h3",
           "A4Search", "max_a4", "a4_family"]

DEFAULT_SEED = 20240605


class VerificationReport:
    """Outcome of one pipeline: a claim, its exact bound, and evidence.

    Mutable: the CLI appends each file it writes to ``artifacts``."""

    __slots__ = ("claim", "bound", "status", "details", "artifacts", "certificate")

    def __init__(self, claim: str, bound: Fraction,
                 status: str,                # "verified" | "failed"
                 details: dict | None = None, artifacts: list | None = None,
                 certificate: PositivityCertificate | None = None):
        self.claim, self.bound, self.status = claim, bound, status
        self.details = {} if details is None else details
        self.artifacts = [] if artifacts is None else artifacts
        self.certificate = certificate

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


def _report(claim: str, bound: Fraction, details: dict, exact: bool,
            floats: bool, **extra) -> VerificationReport:
    """The verdict of a pipeline: any failed exact step is a
    ``certification`` failure; with every exact step holding, a failed
    float check is an ``oracle`` failure."""
    failure = "certification" if not exact else None if floats else "oracle"
    return VerificationReport(
        claim=claim, bound=bound,
        status="verified" if failure is None else "failed",
        details={**details, "failure": failure}, **extra)


# ---------------------------------------------------------------------------
# |H2(2)| <= 1/4
# ---------------------------------------------------------------------------

def _polar_grid(n_radii: int, n_angles: int):
    """Flattened complex grid of the closed unit disk, r = 1 included."""
    import numpy as np
    r = np.linspace(0.0, 1.0, n_radii)
    t = np.linspace(0.0, 2 * math.pi, n_angles, endpoint=False)
    return (r[:, None] * np.exp(1j * t)[None, :]).ravel()


def _nonnegative(poly: BiPoly) -> bool:
    """f >= 0 for p1 in [0, 2]: its Bernstein coefficients enclose its range."""
    return enclosure(to_bernstein(poly, Box(0, 2, 0, 1)))[0] >= 0


def _positive_inside(poly: BiPoly) -> bool:
    """f > 0 for p1 in (0, 2): Bernstein coefficients all >= 0 and one > 0,
    as every Bernstein basis polynomial is positive inside."""
    lo, hi = enclosure(to_bernstein(poly, Box(0, 2, 0, 1)))
    return lo >= 0 < hi


def _h2_samples(grid: int) -> int:
    """Samples of the verify_h2 oracle: p1 x gamma x eta grids."""
    return grid * (grid // 3 + 1) * grid * 3 * 16


def verify_h2(grid: int = 32) -> VerificationReport:
    """Certify |H2(2)| <= 1/4 on the class and cross-check numerically.

    Certified chain, exact for all p1 in [0, 2] at once: the slice
    coefficients of H2(2) = A + B gamma + C gamma^2 + D (1 - |gamma|^2) and
    the envelope g1 are polynomials in p1 (:func:`starcert.gft.h2_terms`),
    and each sign is read off their power coefficients or their Bernstein
    coefficients over [0, 2]:

    * envelope identity |A| + |B| + |C| = g1(p1): -A, B, -C >= 0 and
      -A + B - C = g1 as polynomials;
    * the piecewise-max case conditions A1 C1 > 0, |C1| >= 1 and
      |B1| >= 2 (1 - |C1|), for (A1, B1, C1) = (A, B, C)/|D|, that make the
      slice maximum |D| (|A1| + |B1| + |C1|): -A, -C, |D| > 0 on (0, 2) and
      -C - |D| >= 0 (then B >= 0 >= 2 (|D| + C) gives the third);
    * g1 strictly decreasing, as no power coefficient past the constant is
      positive and one is negative: the supremum sits at p1 = 0 with value
      1/4; the endpoint slices give 1/4 and 19/192;
    * sharpness: the member driven by w(z) = z^2 has H2(2) = -1/4.

    Float oracle: a >= 10^5-point scan of |A + B gamma + C gamma^2 +
    D (1 - |gamma|^2)| over p1 in [0, 2] and gamma, eta in the closed
    disk must stay below 1/4 + 1e-9.

    A failed exact step reports ``failure: certification``; only the float
    oracle reports ``failure: oracle``.
    """
    if grid < 32:
        raise ValueError("grid must be >= 32")
    _within_budget(_h2_samples(grid))
    import numpy as np
    details: dict = {}

    # --- exact sign facts on the slice polynomials -----------------------
    A, B, C, D, g1 = _h2_slice(BiPoly.var_p())
    identity_ok = all(map(_nonnegative, (-A, B, -C))) and -A + B - C == g1
    cases_ok = all(map(_positive_inside, (-A, -C, D))) and _nonnegative(-C - D)
    details["envelope_identity_exact"] = identity_ok
    details["case_conditions_hold"] = cases_ok

    # --- monotone decrease and endpoints --------------------------------
    slope = [c for i, _, c in g1.terms() if i > 0]
    decreasing = bool(slope) and all(c < 0 for c in slope)
    details["envelope_strictly_decreasing"] = decreasing
    endpoints_ok = (h2_envelope(0) == Fraction(1, 4)
                    and h2_envelope(2) == Fraction(19, 192))
    details["endpoint_values"] = "1/4 and 19/192" if endpoints_ok else "WRONG"

    # --- sharpness -------------------------------------------------------
    witness = hankel2(schwarz_to_coeffs((0, 1, 0, 0)))
    details["sharpness_w_z2"] = format_rational(witness)
    exact = (identity_ok and cases_ok and decreasing and endpoints_ok
             and witness == Fraction(-1, 4))

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
    floats = samples >= 10 ** 5 and observed <= 0.25 + 1e-9

    return _report(
        "second Hankel determinant bound |H2(2)| <= 1/4 on the "
        "starlike class with target (1+z/2)^2, sharp at w(z) = z^2",
        Fraction(1, 4), details, exact, floats)


# ---------------------------------------------------------------------------
# |H3(1)| <= 1/9
# ---------------------------------------------------------------------------

def _h3_param(c1, gam, eta, rho):
    """The h3 polynomial through the Schwarz parametrization, numpy-native.

    This duplicates the scalar formulas on purpose: the oracle must not
    depend on the code path it is checking.  rho enters only through the
    (1 - |eta|^2) rho term of c4, so the value is affine in rho.
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
    return val


def _h3_param_abs(c1, gam, eta, rho):
    """|h3 polynomial| through the Schwarz parametrization."""
    import numpy as np
    return np.abs(_h3_param(c1, gam, eta, rho))


# numpy.random.default_rng(seed) is a PCG64 generator (O'Neill 2014: a
# 128-bit LCG with the XSL-RR output) seeded by a SeedSequence; both are
# reproduced below in integers, so the domination draws need not load
# numpy.random, which costs more than drawing them here
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_sequence_words(seed: int) -> list:
    """The four 64-bit words of numpy's
    ``SeedSequence(seed).generate_state(4, np.uint64)``: the seed's 32-bit
    words, least significant first, hashed into a pool of four and mixed."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    entropy = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _MASK32)
    mult = 0x43B0D7E5

    def hashmix(value):
        nonlocal mult
        value ^= mult
        mult = mult * 0x931E8875 & _MASK32
        value = value * mult & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        out = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return out ^ out >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    mult, halves = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ mult
        mult = mult * 0x58F38DED & _MASK32
        value = value * mult & _MASK32
        halves.append(value ^ value >> 16)
    return [halves[k] | halves[k + 1] << 32 for k in range(0, 8, 2)]


def _pcg64_doubles(seed: int, count: int) -> list:
    """The first ``count`` values of ``np.random.default_rng(seed).random()``,
    bit for bit: each PCG64 output's top 53 bits over 2^53."""
    s_hi, s_lo, i_hi, i_lo = _seed_sequence_words(seed)
    inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
    state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULTIPLIER + inc) & _MASK128
    out = []
    for _ in range(count):
        state = (state * _PCG_MULTIPLIER + inc) & _MASK128
        x, rot = (state >> 64 ^ state) & _MASK64, state >> 122
        x = (x >> rot | x << (64 - rot)) & _MASK64
        out.append((x >> 11) * 2.0 ** -53)
    return out


def _domination_samples(seed: int):
    """300 random (c1, gamma, eta, rho) in [0, 1] x disk^3, as arrays.

    The 300 x 7 uniforms of ``np.random.default_rng(seed).uniform(0,
    (1, 1, 2 pi, 1, 2 pi, 1, 2 pi), (300, 7))``, bit for bit; per round, in
    stream order: c1, then modulus and argument of gamma, eta and rho.
    """
    import numpy as np
    turn = 2 * math.pi
    u = (np.array(_pcg64_doubles(seed, 300 * 7)).reshape(300, 7)
         * (1.0, 1.0, turn, 1.0, turn, 1.0, turn))
    return (u[:, 0], u[:, 1] * np.exp(1j * u[:, 2]),
            u[:, 3] * np.exp(1j * u[:, 4]), u[:, 5] * np.exp(1j * u[:, 6]))


def _h3_samples(grid: int) -> int:
    """Samples of the verify_h3 grid oracle: c1 x gamma x eta x rho grids."""
    return (grid + 1) * (grid // 2 + 1) * 2 * grid * 3 * grid * 2 * 8


def verify_h3(grid: int = 12) -> VerificationReport:
    """Certify |H3(1)| <= 1/9 and cross-check numerically.

    Certified chain:

    * :func:`starcert.reduction.build_h3_reduction` expands the grouped
      majorant H of the scaled determinant and survives its transcription
      guard;
    * gap = 1024 - endpoint_y1 holds as a polynomial identity, and a
      Bernstein branch-and-bound certificate (with the corner estimate at
      the origin) proves gap >= 0 on [0,1]^2 and passes independent
      re-validation;
    * the max Bernstein coefficient of endpoint_y0 on [0,1]^2 (910) also
      sits below the target 1024;
    * H <= H1 <= max(endpoint_y1, endpoint_y0) on the whole cube:
      H1 - H = ycoef (1 - y) and ycoef >= 0 (smallest Bernstein
      coefficient 0), and the identities endpoint_y1 = base + ycoef +
      y2coef, endpoint_y0 = base + ycoef + comp make H1 a convex
      combination y^2 endpoint_y1 + (1 - y^2) endpoint_y0;
    * sharpness: the Schwarz data (0, 0, 1, 0) (i.e. w(z) = z^3) attains
      the scaled value -1024 exactly.

    Float oracle: dense sampling of |9216 H3| through the disk
    parametrization stays below 1024 (1 + 1e-9), and on 300 random
    samples (seeded with DEFAULT_SEED) the majorant H dominates the
    sampled value.

    A failed exact step reports ``failure: certification``; only a float
    check reports ``failure: oracle``.
    """
    if grid < 4:  # the smallest grid whose oracle reaches 10^4 samples
        raise ValueError("grid must be >= 4")
    _within_budget(_h3_samples(grid))
    import numpy as np
    red = build_h3_reduction()
    details: dict = {}

    # the certified polynomial is the gap the majorant leaves below 1024
    gap_ok = red.gap == MAJORANT_TARGET - red.endpoint_y1
    details["gap_is_target_minus_endpoint_y1"] = gap_ok

    # the corner box [0, 1/8]^2 appears at depth 3, which closes the tree
    cert = certify_positive(red.gap, UNIT_BOX, 3, CornerRule(0, 0))
    details["certificate_leaves"] = len(cert.leaves())
    details["certificate_succeeded"] = cert.succeeded
    recheck = check_certificate(red.gap, cert, UNIT_BOX)
    details["certificate_revalidated"] = recheck

    y0_max = bound_above(red.endpoint_y0, UNIT_BOX, 0)
    details["endpoint_y0_bernstein_max"] = format_rational(y0_max)

    # --- exact steps H <= H1 <= max(endpoint_y1, endpoint_y0) ----------
    ycoef_ok = enclosure(to_bernstein(red.ycoef, UNIT_BOX))[0] >= 0
    endpoint_ok = (red.endpoint_y1 == red.base + red.ycoef + red.y2coef
                   and red.endpoint_y0 == red.base + red.ycoef + red.comp)
    details["ycoef_nonnegative"] = ycoef_ok
    details["capped_between_endpoints"] = endpoint_ok

    # --- sharpness -----------------------------------------------------
    sharp = h3_schwarz_poly((0, 0, 1, 0))
    details["sharpness_w_z3_scaled"] = format_rational(sharp)
    exact = (gap_ok and cert.succeeded and recheck and y0_max <= MAJORANT_TARGET
             and ycoef_ok and endpoint_ok and sharp == -MAJORANT_TARGET)

    # --- float oracle ----------------------------------------------------
    # the value is affine in rho: per c1 and block of (gamma, eta) points,
    # P at rho = 0 and Q = (value at rho = 1) - P give |P + Q rho| at
    # every rho sample, in blocks of at most _BLOCK_SAMPLES either way
    gam = _polar_grid(grid // 2 + 1, 2 * grid)
    eta = _polar_grid(3, grid)
    rho = _polar_grid(2, 8)
    ec = eta[None, :]
    rc = rho[None, None, :]
    span = max(1, _BLOCK_SAMPLES // eta.size)
    rows = max(1, _BLOCK_SAMPLES // (eta.size * rho.size))
    observed = 0.0
    samples = 0
    for c1 in np.linspace(0.0, 1.0, grid + 1):
        for start in range(0, gam.size, span):
            gc = gam[start:start + span, None]
            p = _h3_param(c1, gc, ec, 0.0)[:, :, None]
            q = _h3_param(c1, gc, ec, 1.0)[:, :, None] - p
            for row in range(0, len(p), rows):
                vals = np.abs(p[row:row + rows] + q[row:row + rows] * rc)
                observed = max(observed, float(vals.max()))
                samples += vals.size
    details["oracle_samples"] = samples
    details["oracle_max_scaled"] = observed

    # majorant domination on random samples
    c1, g, e, r = _domination_samples(DEFAULT_SEED)
    val = _h3_param_abs(c1, g, e, r)
    maj = red.majorant(c1, np.abs(g), np.abs(e))
    dominated = not bool(np.any(val > maj + 1e-9))
    details["majorant_dominates_samples"] = dominated
    floats = (samples >= 10 ** 4 and observed <= MAJORANT_TARGET * (1 + 1e-9)
              and dominated)

    return _report(
        "third Hankel determinant bound |H3(1)| <= 1/9 on the "
        "starlike class with target (1+z/2)^2, sharp at w(z) = z^3",
        Fraction(max(MAJORANT_TARGET, y0_max), HANKEL3_SCALE), details, exact,
        floats, certificate=cert)


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
    family_t: float         # maximizer of the closed-form family
    family_value: float
    samples: int


def _a4(c1, gam, eta):
    """a4 = c3/3 + (2/3) c1 c2 + (7/24) c1^3 through the Schwarz
    parametrization, with u = 1 - c1^2, c2 = u gamma and
    c3 = u ((1 - |gamma|^2) eta - c1 gamma^2): affine in eta, through c3.

    The operations run in that order in one array of the broadcast shape.
    As one expression, each operation makes a fresh array (627 KB per
    coarse row of max_a4) that the allocator may map and unmap each time:
    split from its modulus that way, a fresh ``max-a4`` took about 20k
    more page faults and 40 ms more CPU time.
    """
    import numpy as np
    u = 1 - c1 * c1
    c2 = u * gam
    val = np.empty(np.broadcast_shapes(np.shape(c1), np.shape(gam),
                                       np.shape(eta)), complex)
    np.multiply(1 - np.abs(gam) ** 2, eta, out=val)
    np.subtract(val, c1 * gam ** 2, out=val)
    np.multiply(u, val, out=val)                        # c3
    np.divide(val, 3, out=val)
    np.add(val, (2 / 3) * c1 * c2, out=val)
    np.add(val, (7 / 24) * c1 ** 3, out=val)
    return val


def _a4_abs(c1, gam, eta):
    import numpy as np
    return np.abs(_a4(c1, gam, eta))


def _a4_coarse(grid: int) -> tuple[tuple, int]:
    """The coarse polar scan of :func:`max_a4`: its incumbent
    (value, c1, gamma, eta) and sample count.

    One c1 row at a time; the strict ``>`` keeps the first maximum in C
    order, the index ``np.argmax`` picks over the whole (c1, gamma, eta)
    array.
    """
    import numpy as np
    c1s = np.linspace(0.0, 1.0, grid + 1)
    gam = _polar_grid(grid // 3 + 1, 2 * grid)
    eta = _polar_grid(3, 8)
    gc = gam[None, :, None]
    ec = eta[None, None, :]
    best = (-1.0, 0.0, 0.0 + 0j, 0.0 + 0j)
    samples = 0
    for i in range(c1s.size):
        vals = _a4_abs(c1s[i:i + 1, None, None], gc, ec)
        samples += vals.size
        _, j, k = np.unravel_index(np.argmax(vals), vals.shape)
        if float(vals[0, j, k]) > best[0]:
            best = (float(vals[0, j, k]), float(c1s[i]), complex(gam[j]),
                    complex(eta[k]))
    return best, samples


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
    import numpy as np
    (val, c1b, gb, eb), samples = _a4_coarse(grid)

    # shrinking-window refinement around the incumbent
    w_c, w_r, w_t = 1.5 / grid, 0.4, 0.4
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

    # the family peaks where its derivative 1 - (31/8) t^2 vanishes
    t_star = math.sqrt(8 / 31)

    return A4Search(value=val, c1=c1b, gamma=gb, eta=eb,
                    family_t=t_star, family_value=a4_family(t_star),
                    samples=samples)
