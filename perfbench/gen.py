"""Seeded inputs and independent answers for the in-process workloads.

Nothing here calls starcert.  Polynomials are built and evaluated with
the small dict arithmetic below, so the answers the benchmark checks
against do not come from the code under test.

A generated input is a "valley" polynomial

    f(p, x) = c(p, x)^2 * g(p, x) + sign * eps

with c = p - (a0 + a1 x [+ a2 x^2]) and g = 1 + (terms with nonnegative
coefficients), so g >= 1 on the unit square.  For sign = +1 the minimum
of f on the square is exactly eps, attained along the curve c = 0; for
sign = -1 the rational point on that curve recorded with the input has
f = -eps, so no positivity certificate can exist.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

# ---------------------------------------------------------------------------
# polynomials as {(i, j): Fraction}, i = power of p, j = power of x
# ---------------------------------------------------------------------------


def padd(*polys: dict) -> dict:
    out: dict = {}
    for poly in polys:
        for key, c in poly.items():
            out[key] = out.get(key, 0) + c
    return {k: c for k, c in out.items() if c != 0}


def pmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i, j), c in a.items():
        for (k, l), d in b.items():
            out[(i + k, j + l)] = out.get((i + k, j + l), 0) + c * d
    return {k: c for k, c in out.items() if c != 0}


def pconst(c) -> dict:
    return {(0, 0): Fraction(c)} if c else {}


def peval(poly: dict, p: Fraction, x: Fraction) -> Fraction:
    m = max(i for i, _ in poly)
    n = max(j for _, j in poly)
    pp = [Fraction(1)]
    for _ in range(m):
        pp.append(pp[-1] * p)
    xp = [Fraction(1)]
    for _ in range(n):
        xp.append(xp[-1] * x)
    return sum((c * pp[i] * xp[j] for (i, j), c in poly.items()), Fraction(0))


def read_poly(text: str) -> dict:
    """The .poly text format: a 'bidegree m n' header, then 'i j coeff' lines."""
    poly: dict = {}
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0][0] != "bidegree":
        raise ValueError("missing bidegree header")
    for i, j, c in lines[1:]:
        poly[(int(i), int(j))] = Fraction(c)
    return poly


P = {(1, 0): Fraction(1)}
X = {(0, 1): Fraction(1)}


# ---------------------------------------------------------------------------
# the valley generator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Valley:
    """One generated polynomial with the answer fixed by its construction."""

    terms: dict
    positive: bool
    eps: Fraction
    point: tuple          # (p, x) on the valley curve: f(point) = +-eps


def _strata(rng: random.Random, n: int) -> list:
    """n numbers in [0, 1), one in each of n equal strata, in seeded order."""
    order = list(range(n))
    rng.shuffle(order)
    return [(k + rng.random()) / n for k in order]


def _dyadic(t: float, lo: int, hi: int, den: int) -> Fraction:
    return Fraction(lo + round(t * (hi - lo)), den)


def _valley(positive: bool, eps: Fraction, a0: Fraction, a1: Fraction,
            a2: Fraction, g: tuple, curved: bool) -> Valley:
    a = padd(pconst(a0), pmul(pconst(a1), X),
             pmul(pconst(a2), pmul(X, X)) if curved else {})
    c = padd(P, {k: -v for k, v in a.items()})
    g4, g21, gx = g
    p4 = pmul(pmul(P, P), pmul(P, P))
    tail = X if curved else pmul(X, X)
    mult = padd(pconst(1), pmul(pconst(g4), p4),
                pmul(pconst(g21), pmul(pmul(P, P), X)), pmul(pconst(gx), tail))
    f = padd(pmul(pmul(c, c), mult), pconst(eps if positive else -eps))
    # a rational point of the curve c = 0 inside the square
    for k in range(9):
        xs = Fraction(k, 8)
        ps = peval(a, Fraction(0), xs) if a else Fraction(0)
        if 0 <= ps <= 1:
            return Valley(f, positive, eps, (ps, xs))
    raise AssertionError("valley curve misses the unit square")


def _power(poly: dict, k: int) -> dict:
    out = pconst(1)
    for _ in range(k):
        out = pmul(out, poly)
    return out


def reflect(v: Valley, flip_p: bool, flip_x: bool) -> Valley:
    """The valley under p -> 1 - p and/or x -> 1 - x.

    A reflection maps the unit square and its dyadic subdivisions onto
    themselves, so the reflected polynomial has the same Bernstein
    coefficients in mirrored order and its certificate the same shape:
    the same work on different input.
    """
    one = pconst(1)
    lp = padd(one, {(1, 0): Fraction(-1)}) if flip_p else P
    lx = padd(one, {(0, 1): Fraction(-1)}) if flip_x else X
    terms = padd(*(pmul(pconst(c), pmul(_power(lp, i), _power(lx, j)))
                   for (i, j), c in v.terms.items()))
    p, x = v.point
    return Valley(terms, v.positive, v.eps,
                  (1 - p if flip_p else p, 1 - x if flip_x else x))


def _reflected(rng: random.Random, base: list) -> list:
    return [reflect(v, rng.random() < 0.5, rng.random() < 0.5) for v in base]


def positive_valleys(rng: random.Random, n: int) -> list:
    """n inputs with eps spread log-uniformly over [2^-12, 2^-6].

    The n base valleys are fixed, with every parameter stratified; the
    seed picks a reflection of each (see :func:`reflect`), so every seed
    gives different polynomials and the same spread of certificate sizes.
    """
    base_rng = random.Random(n)
    e, s0, s1, s2, t4, t21, tx = (_strata(base_rng, n) for _ in range(7))
    base = []
    for k in range(n):
        eps = Fraction(round(2 ** (6 * e[k])), 4096)
        base.append(_valley(
            True, eps,
            a0=_dyadic(s0[k], 28, 36, 64),
            a1=(-1) ** k * _dyadic(s1[k], 4, 8, 64),
            a2=(-1) ** (k // 2) * _dyadic(s2[k], 3, 5, 64),
            g=(_dyadic(t4[k], 2, 3, 4), _dyadic(t21[k], 1, 2, 4),
               _dyadic(tx[k], 2, 3, 4)),
            curved=bool(k % 2)))
    return _reflected(rng, base)


def negative_valleys(rng: random.Random, n: int) -> list:
    """n inputs whose valley dips to -2^-11, reflections of two base ones.

    The curve enters near the corner p = x = 0 and leaves through the
    edge p = 0, so seven or eight depth-3 boxes fail.
    """
    base = [_valley(False, Fraction(1, 2 ** 11), a0=Fraction(12, 64),
                    a1=-Fraction(22, 64), a2=-Fraction(3, 64),
                    g=(Fraction(1, 2), Fraction(1, 4), Fraction(1, 2)),
                    curved=bool(k % 2))
            for k in range(n)]
    return _reflected(rng, base)


# ---------------------------------------------------------------------------
# tampering with certificate JSON
# ---------------------------------------------------------------------------

# a status change that check_certificate must reject whatever the node
_STATUS_SWAP = {"coeff_positive": "failed", "subdivided": "coeff_positive",
                "failed": "coeff_positive", "corner_certified": "coeff_positive"}


def nodes(doc: dict) -> list:
    out = [doc]
    for child in doc["children"]:
        out.extend(nodes(child))
    return out


def tamper(text: str, rng: random.Random, kind: str | None = None) -> tuple[str, str]:
    """Change one recorded number, box or status of a certificate.

    Returns (tampered JSON, description).  The field kind (unless given)
    and the node are drawn from ``rng``; every change is one the checker
    must reject.
    """
    doc = json.loads(text)
    every = nodes(doc)
    kinds = ["bound", "box", "status"]
    if any("margin" in nd for nd in every):
        kinds.append("margin")
    if any("witness" in nd for nd in every):
        kinds.append("witness")
    kind = kind or rng.choice(kinds)
    field = {"margin": "margin", "witness": "witness"}.get(kind)
    node = rng.choice([nd for nd in every if field is None or field in nd])
    bump = Fraction(1, rng.randint(2, 9))
    if kind == "bound":
        key = rng.choice(["min_bcoeff", "max_bcoeff"])
        node[key] = str(Fraction(node[key]) + bump)
    elif kind == "margin":
        node["margin"] = str(Fraction(node["margin"]) + bump)
    elif kind == "witness":
        node["witness"][2] = str(Fraction(node["witness"][2]) + bump)
    elif kind == "box":
        k = rng.randrange(4)
        lo, hi = Fraction(node["box"][k & ~1]), Fraction(node["box"][k | 1])
        # widen the box on one side, so it stays a valid box
        node["box"][k] = str(lo - (hi - lo) / 2 if k % 2 == 0 else hi + (hi - lo) / 2)
    else:
        node["status"] = _STATUS_SWAP[node["status"]]
    return json.dumps(doc, indent=2), f"{kind} of node {every.index(node)}"


# ---------------------------------------------------------------------------
# independent checks of a certificate document
# ---------------------------------------------------------------------------


def check_cert_doc(doc: dict, poly: dict) -> list:
    """Problems found in a certificate, re-derived from ``poly`` alone.

    Each child box must be an exact quadrant of its parent; each node's
    recorded enclosure must contain the value of ``poly`` at the box
    corners (the corner Bernstein coefficients equal those values); a
    positive leaf must have a positive lower bound; a failed leaf's
    witness must lie in its box and carry the polynomial's value there.
    """
    problems = []

    def walk(nd: dict, box: tuple) -> None:
        got = tuple(Fraction(v) for v in nd["box"])
        if got != box:
            problems.append(f"box {nd['box']} != expected {box}")
            return
        lo, hi = Fraction(nd["min_bcoeff"]), Fraction(nd["max_bcoeff"])
        p0, p1, x0, x1 = box
        for pc in (p0, p1):
            for xc in (x0, x1):
                v = peval(poly, pc, xc)
                if not lo <= v <= hi:
                    problems.append(f"f({pc},{xc}) = {v} outside [{lo}, {hi}]")
        status = nd["status"]
        if status == "coeff_positive" and lo <= 0:
            problems.append(f"positive leaf on {box} has min {lo}")
        if status == "failed":
            wp, wx, wv = (Fraction(v) for v in nd["witness"])
            if not (p0 <= wp <= p1 and x0 <= wx <= x1):
                problems.append(f"witness ({wp},{wx}) outside {box}")
            if peval(poly, wp, wx) != wv:
                problems.append(f"witness value {wv} != f({wp},{wx})")
        if status == "subdivided":
            pm, xm = (p0 + p1) / 2, (x0 + x1) / 2
            quads = ((p0, pm, x0, xm), (p0, pm, xm, x1),
                     (pm, p1, x0, xm), (pm, p1, xm, x1))
            if len(nd["children"]) != 4:
                problems.append(f"subdivided node on {box} without 4 children")
                return
            for child, q in zip(nd["children"], quads):
                walk(child, q)
        elif nd["children"]:
            problems.append(f"{status} leaf on {box} has children")

    walk(doc, (Fraction(0), Fraction(1), Fraction(0), Fraction(1)))
    return problems


def leaves_at(doc: dict, point: tuple) -> list:
    """Leaves whose box contains ``point``."""
    p, x = point
    out = []
    for nd in nodes(doc):
        p0, p1, x0, x1 = (Fraction(v) for v in nd["box"])
        if not nd["children"] and p0 <= p <= p1 and x0 <= x <= x1:
            out.append(nd)
    return out


def check_valley_cert(doc: dict, v: Valley) -> list:
    """The answer fixed by construction, plus :func:`check_cert_doc`."""
    problems = check_cert_doc(doc, v.terms)
    leaves = [nd for nd in nodes(doc) if not nd["children"]]
    failed = [nd for nd in leaves if nd["status"] == "failed"]
    at = leaves_at(doc, v.point)
    if v.positive:
        if failed:
            problems.append(f"{len(failed)} failed leaves on a positive input")
        if Fraction(doc["min_bcoeff"]) > v.eps:
            problems.append("root enclosure above the true minimum eps")
        if any(Fraction(nd["min_bcoeff"]) > v.eps for nd in at):
            problems.append("leaf at the valley point bounds f above eps")
    else:
        if not failed:
            problems.append("no failed leaf on an input that reaches -eps")
        if not at or any(nd["status"] != "failed"
                         or Fraction(nd["min_bcoeff"]) > -v.eps for nd in at):
            problems.append("leaf at the negative point is not a failed leaf "
                            "with min <= -eps")
    return problems
