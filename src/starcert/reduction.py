"""Reduction of the third Hankel determinant to certified polynomial bounds.

Writing the scaled determinant through the Schwarz parametrization with
p = c1 in [0, 1], x = |gamma|, y = |eta| and applying the triangle
inequality groupwise majorizes |9216 H3(1)| by

    H(p, x, y) = base(p, x) + ycoef(p, x) y + y2coef(p, x) y^2
                 + comp(p, x) (1 - y^2),

where every group is nonnegative on the unit cube.  Freezing the linear
factor y at its maximum 1 gives a function H1 affine in y^2, so its
maximum over y sits at an endpoint:

    endpoint_y1 = H1(p, x, 1)   and   endpoint_y0 = H1(p, x, 0),

two bivariate polynomials of bidegree (6, 4).  The capped-slice step of
:mod:`starcert.verify`, which the |H2(2)| bound shares, then shows
endpoint_y1 <= 1024 (via positivity of gap = 1024 - endpoint_y1) and
endpoint_y0 <= 1024 (its max Bernstein coefficient is 910), hence
|H3(1)| <= 1024/9216 = 1/9.

The two endpoint polynomials are expanded here symbolically from the
grouped product form.  As a guard against transcription slips, the
expansions are compared entrywise against coefficient tables recorded
independently of this code path; any mismatch aborts the build.
"""
from __future__ import annotations

from typing import NamedTuple

from .poly import BiPoly

__all__ = ["H3Reduction", "build_h3_reduction", "MAJORANT_TARGET", "HANKEL3_SCALE"]

# the chain certifies (scaled determinant) <= MAJORANT_TARGET, i.e.
# |H3(1)| <= MAJORANT_TARGET / HANKEL3_SCALE = 1/9
MAJORANT_TARGET = 1024
HANKEL3_SCALE = 9216


# --------------------------------------------------------------------------
# independently recorded expansions (transcription guard)
# --------------------------------------------------------------------------
# gap = 1024 - endpoint_y1, grouped by powers of x: {j: [(i, coeff), ...]}

_GAP_TABLE = {
    0: [(6, -61), (5, 464), (4, -1024), (3, -464), (2, 2048)],
    1: [(6, 244), (5, 640), (4, 620), (3, 448), (2, -864), (1, -1088)],
    2: [(6, -248), (5, -720), (4, 1856), (3, 976), (2, -2504), (1, -256), (0, 896)],
    3: [(6, 64), (5, -640), (4, -416), (3, -448), (2, 640), (1, 1088), (0, -288)],
    4: [(6, -128), (5, 256), (4, 384), (3, -512), (2, -384), (1, 256), (0, 128)],
}

# endpoint_y0, grouped by powers of p: {i: [(j, coeff), ...]}

_ENDPOINT_Y0_TABLE = {
    6: [(4, 128), (3, -64), (2, 248), (1, -244), (0, 61)],
    5: [(4, -256), (3, 640), (2, 720), (1, -640), (0, -464)],
    4: [(4, -256), (3, -1600), (2, -96), (1, 1396), (0, -864)],
    3: [(4, 512), (3, 448), (2, -976), (1, -448), (0, 464)],
    2: [(4, 128), (3, 2528), (2, -152), (1, -2304), (0, 864)],
    1: [(4, -256), (3, -1088), (2, 256), (1, 1088)],
    0: [(3, -864), (1, 1152)],
}


def _table_poly(table: dict, by_x: bool) -> BiPoly:
    terms = []
    for outer, row in table.items():
        for inner, c in row:
            i, j = (inner, outer) if by_x else (outer, inner)
            terms.append((i, j, c))
    return BiPoly.from_terms(terms)


class H3Reduction(NamedTuple):
    """The grouped majorant H and its two y-endpoint polynomials."""

    base: BiPoly        # y-free group
    ycoef: BiPoly       # multiplies y
    y2coef: BiPoly      # multiplies y^2
    comp: BiPoly        # multiplies (1 - y^2)
    endpoint_y1: BiPoly
    endpoint_y0: BiPoly
    gap: BiPoly         # MAJORANT_TARGET - endpoint_y1

    def majorant(self, p, x, y):
        """H(p, x, y); exact for rational arguments, float Horner (numpy
        arrays included) otherwise."""
        y2 = y * y
        return (self.base.evaluate(p, x) + self.ycoef.evaluate(p, x) * y
                + self.y2coef.evaluate(p, x) * y2
                + self.comp.evaluate(p, x) * (1 - y2))


def build_h3_reduction() -> H3Reduction:
    """Expand the grouped majorant and cross-check against recorded tables.

    The groups are built from the product form (s abbreviates 1 - p^2):

        base  = 61 p^6 + 244 p^4 s x + 8 p^2 (89 - 120 p^2 + 31 p^4) x^2
                - 32 (-9 - 7 p^2 + 14 p^4 + 2 p^6) x^3 + 128 p^2 s^2 x^4
        ycoef = 16 (1 - x^2) p s (29 p^2 + 16 x^2 s + (68 + 40 p^2) x)
        y2coef= 32 (1 - x^2) s (32 (1 - x^2) s + 9 (3 p^2 + 4 x s) x)
        comp  = 288 (1 - x^2) s (3 p^2 + 4 x s)

    Raises RuntimeError if the expanded endpoint polynomials disagree
    with the independently recorded coefficient tables.
    """
    p = BiPoly.var_p()
    x = BiPoly.var_x()
    one = BiPoly.constant(1)
    s = one - p * p
    u = one - x * x

    base = (61 * p ** 6
            + 244 * p ** 4 * s * x
            + 8 * p ** 2 * (89 * one - 120 * p ** 2 + 31 * p ** 4) * x ** 2
            - 32 * ((-9) * one - 7 * p ** 2 + 14 * p ** 4 + 2 * p ** 6) * x ** 3
            + 128 * p ** 2 * s ** 2 * x ** 4)
    ycoef = 16 * u * p * s * (29 * p ** 2 + 16 * x ** 2 * s + (68 * one + 40 * p ** 2) * x)
    y2coef = 32 * u * s * (32 * u * s + 9 * (3 * p ** 2 + 4 * x * s) * x)
    comp = 288 * u * s * (3 * p ** 2 + 4 * x * s)

    endpoint_y1 = (base + ycoef + y2coef).trim()
    endpoint_y0 = (base + ycoef + comp).trim()
    gap = (MAJORANT_TARGET - endpoint_y1).trim()

    if gap != _table_poly(_GAP_TABLE, by_x=True):
        raise RuntimeError("expansion of 1024 - endpoint_y1 disagrees with the "
                           "recorded table; refusing to certify from it")
    if endpoint_y0 != _table_poly(_ENDPOINT_Y0_TABLE, by_x=False):
        raise RuntimeError("expansion of endpoint_y0 disagrees with the recorded "
                           "table; refusing to certify from it")

    return H3Reduction(base=base.trim(), ycoef=ycoef.trim(), y2coef=y2coef.trim(),
                       comp=comp.trim(), endpoint_y1=endpoint_y1,
                       endpoint_y0=endpoint_y0, gap=gap)
