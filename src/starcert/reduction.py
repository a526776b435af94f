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

The four groups are expanded here symbolically from the grouped product
form.  The endpoint polynomials are not: gap and endpoint_y0 are read from
coefficient tables recorded independently of that expansion, and
endpoint_y1 = 1024 - gap.  The capped-slice step checks them against the
groups (report line ``capped_between_endpoints``), so a slip in a table or
in a group fails the certification.
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
# the endpoint polynomials, recorded independently of the groups
# --------------------------------------------------------------------------
# gap = 1024 - endpoint_y1 as {(i, j): coeff of p^i x^j}, one row per power of x

_GAP_TABLE = {
    (6, 0): -61, (5, 0): 464, (4, 0): -1024, (3, 0): -464, (2, 0): 2048,
    (6, 1): 244, (5, 1): 640, (4, 1): 620, (3, 1): 448, (2, 1): -864, (1, 1): -1088,
    (6, 2): -248, (5, 2): -720, (4, 2): 1856, (3, 2): 976, (2, 2): -2504, (1, 2): -256, (0, 2): 896,
    (6, 3): 64, (5, 3): -640, (4, 3): -416, (3, 3): -448, (2, 3): 640, (1, 3): 1088, (0, 3): -288,
    (6, 4): -128, (5, 4): 256, (4, 4): 384, (3, 4): -512, (2, 4): -384, (1, 4): 256, (0, 4): 128,
}

# endpoint_y0, one row per power of p

_ENDPOINT_Y0_TABLE = {
    (6, 4): 128, (6, 3): -64, (6, 2): 248, (6, 1): -244, (6, 0): 61,
    (5, 4): -256, (5, 3): 640, (5, 2): 720, (5, 1): -640, (5, 0): -464,
    (4, 4): -256, (4, 3): -1600, (4, 2): -96, (4, 1): 1396, (4, 0): -864,
    (3, 4): 512, (3, 3): 448, (3, 2): -976, (3, 1): -448, (3, 0): 464,
    (2, 4): 128, (2, 3): 2528, (2, 2): -152, (2, 1): -2304, (2, 0): 864,
    (1, 4): -256, (1, 3): -1088, (1, 2): 256, (1, 1): 1088,
    (0, 3): -864, (0, 1): 1152,
}


class H3Reduction(NamedTuple):
    """The grouped majorant H and its two y-endpoint polynomials."""

    base: BiPoly        # y-free group
    ycoef: BiPoly       # multiplies y
    y2coef: BiPoly      # multiplies y^2
    comp: BiPoly        # multiplies (1 - y^2)
    endpoint_y0: BiPoly
    gap: BiPoly         # MAJORANT_TARGET - endpoint_y1
    endpoint_y1 = property(lambda self: (MAJORANT_TARGET - self.gap).trim())

    def majorant(self, p, x, y):
        """H(p, x, y); exact for rational arguments, float Horner (numpy
        arrays included) otherwise."""
        y2 = y * y
        return (self.base.evaluate(p, x) + self.ycoef.evaluate(p, x) * y
                + self.y2coef.evaluate(p, x) * y2
                + self.comp.evaluate(p, x) * (1 - y2))


def build_h3_reduction() -> H3Reduction:
    """Expand the grouped majorant's groups; read its endpoints from the tables.

    The groups are built from the product form (s abbreviates 1 - p^2):

        base  = 61 p^6 + 244 p^4 s x + 8 p^2 (89 - 120 p^2 + 31 p^4) x^2
                - 32 (-9 - 7 p^2 + 14 p^4 + 2 p^6) x^3 + 128 p^2 s^2 x^4
        ycoef = 16 (1 - x^2) p s (29 p^2 + 16 x^2 s + (68 + 40 p^2) x)
        y2coef= 32 (1 - x^2) s (32 (1 - x^2) s + 9 (3 p^2 + 4 x s) x)
        comp  = 288 (1 - x^2) s (3 p^2 + 4 x s)
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

    gap = BiPoly.from_terms(_GAP_TABLE)
    endpoint_y0 = BiPoly.from_terms(_ENDPOINT_Y0_TABLE)

    return H3Reduction(base=base.trim(), ycoef=ycoef.trim(), y2coef=y2coef.trim(),
                       comp=comp.trim(), endpoint_y0=endpoint_y0, gap=gap)
