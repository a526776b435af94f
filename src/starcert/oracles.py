"""The float oracles: dense numpy sampling of what the certified chain bounds.

The only starcert module that imports numpy, and it imports nothing from
starcert: each kernel re-derives its formula, so a bug would have to appear
in two unrelated routes to go unnoticed.  Its callers (``verify_h2``,
``verify_h3``, ``max_a4`` and ``gft.ma_minda_scan``) check their sample
budget before they import it, and judge what it measures.

Every scan evaluates its grid in blocks of at most ``_BLOCK_SAMPLES``
samples, cut by ``_blocks``, and holds only its one-dimensional axes
whole, so its memory does not grow with the number of samples.  Blocking
changes no sample, no sample count and no maximum.
"""
from __future__ import annotations

import math

import numpy as np

# The one block rule: no numpy temporary spans more than this many
# samples, whatever the grid, so memory stays flat in the grid.  A complex
# block is 64 KB; of 2^12, 2^13 and 2^14 samples, 2^12 gave each fresh
# oracle subcommand the lowest peak RSS.  The formulas are elementwise,
# so blocking changes no value.
_BLOCK_SAMPLES = 1 << 12


def _blocks(n: int, per_item: int = 1):
    """Slices that cut range(n) into runs of _BLOCK_SAMPLES // per_item
    items (at least one), the last run partial: each block of an n x
    per_item array spans at most _BLOCK_SAMPLES samples unless per_item
    alone does: then each block is one row, which _phi_scan and
    _a4_first_max cut again.  Within the sample budget the innermost axes
    (eta, and eta x rho in _h3_scan: at most 3216 samples) always fit."""
    step = max(1, _BLOCK_SAMPLES // per_item)
    for start in range(0, n, step):
        yield slice(start, start + step)


def _polar_grid(n_radii: int, n_angles: int):
    """Flattened complex grid of the closed unit disk, r = 1 included."""
    r = np.linspace(0.0, 1.0, n_radii)
    t = np.linspace(0.0, 2 * math.pi, n_angles, endpoint=False)
    return (r[:, None] * np.exp(1j * t)[None, :]).ravel()


def _h2_scan(grid: int) -> tuple[float, int]:
    """Max of |A + B gamma + C gamma^2 + D (1 - |gamma|^2)| over p1 in [0, 2]
    and gamma, eta in the closed disk (D carries eta), and the sample count.
    Per p1, the (gamma, eta) slice runs in blocks of gamma."""
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
        for g in _blocks(gam.size, eta.size):
            vals = np.abs(a + b * gcol[g] + c * gcol[g] ** 2
                          + d0 * erow * one_minus_g2[g])
            observed = max(observed, float(vals.max()))
            samples += vals.size
    return observed, samples


def _h3_param(c1, gam, eta, rho):
    """The h3 polynomial through the Schwarz parametrization, numpy-native.

    This duplicates the scalar formulas on purpose: the oracle must not
    depend on the code path it is checking.  rho enters only through the
    (1 - |eta|^2) rho term of c4, so the value is affine in rho.
    """
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


def _h3_rings(grid: int) -> tuple:
    """c1, |gamma| and |eta| on _h3_scan's rings, to broadcast together."""
    return (np.linspace(0.0, 1.0, grid + 1)[:, None, None],
            np.linspace(0.0, 1.0, grid // 2 + 1)[:, None], np.linspace(0.0, 1.0, 3))


def _h3_scan(grid: int, maj) -> tuple[float, int, bool]:
    """Max of |h3| over the (c1, gamma, eta, rho) grid, the sample count, and
    whether |P| + |Q| <= maj + 1e-9 at each (c1, gamma, eta), maj the
    majorant on _h3_rings.  The value is affine in rho: per c1 and block of
    (gamma, eta), P at rho = 0 and Q = (value at rho = 1) - P give
    |P + Q rho| at every rho, peaking at |P| + |Q| over the closed disk."""
    c1s = np.linspace(0.0, 1.0, grid + 1)
    gam = _polar_grid(grid // 2 + 1, 2 * grid)
    eta = _polar_grid(3, grid)
    rho = _polar_grid(2, 8)
    ec = eta[None, :]
    rc = rho[None, None, :]
    # _polar_grid lists its points ring by ring, so point k of gam is on
    # ring k // (2 grid), of eta on ring k // grid
    eta_ring = np.arange(eta.size) // grid
    observed = 0.0
    samples = 0
    dominated = True
    for c1, maj_c1 in zip(c1s, maj):
        for g in _blocks(gam.size, eta.size):
            gc = gam[g, None]
            p = _h3_param(c1, gc, ec, 0.0)
            q = _h3_param(c1, gc, ec, 1.0) - p
            gam_ring = np.arange(g.start, g.start + len(gc))[:, None] // (2 * grid)
            dominated &= bool(np.all(np.abs(p) + np.abs(q)
                                     <= maj_c1[gam_ring, eta_ring] + 1e-9))
            p, q = p[:, :, None], q[:, :, None]
            for r in _blocks(len(p), eta.size * rho.size):
                vals = np.abs(p[r] + q[r] * rc)
                observed = max(observed, float(vals.max()))
                samples += vals.size
    return observed, samples, dominated


def _a4(c1, gam, eta):
    """a4 = c3/3 + (2/3) c1 c2 + (7/24) c1^3 through the Schwarz
    parametrization, with u = 1 - c1^2, c2 = u gamma and
    c3 = u ((1 - |gamma|^2) eta - c1 gamma^2): affine in eta, through c3.
    """
    u = 1 - c1 * c1
    c2 = u * gam
    return (u * ((1 - np.abs(gam) ** 2) * eta - c1 * gam ** 2) / 3
            + (2 / 3) * c1 * c2 + (7 / 24) * c1 ** 3)


def _a4_first_max(best: tuple, c1s, gam, eta) -> tuple[tuple, int]:
    """``best`` (value, c1, gamma, eta), or, if the largest |a4| on the
    (c1, gamma, eta) grid beats it, the first point in C order where the
    grid attains it; and the sample count.

    The grid runs in blocks of whole (gamma, eta) rows while a row fits in
    a block, else of one row in pieces along gamma, in C order; within a
    block ``np.argmax`` picks the first maximum, and the strict ``>``
    keeps it across blocks, so the point is the one ``np.argmax`` picks
    over the whole array.
    """
    ec = eta[None, None, :]
    samples = 0
    for r in _blocks(c1s.size, gam.size * eta.size):
        c1 = c1s[r, None, None]
        for g in _blocks(gam.size, eta.size):
            vals = np.abs(_a4(c1, gam[None, g, None], ec))
            samples += vals.size
            i, j, k = np.unravel_index(np.argmax(vals), vals.shape)
            if float(vals[i, j, k]) > best[0]:
                best = (float(vals[i, j, k]), float(c1[i, 0, 0]),
                        complex(gam[g.start + j]), complex(eta[k]))
    return best, samples


def _a4_coarse(grid: int) -> tuple[tuple, int]:
    """The coarse polar scan of max_a4: its incumbent (value, c1, gamma,
    eta) and sample count."""
    return _a4_first_max((-1.0, 0.0, 0.0 + 0j, 0.0 + 0j),
                         np.linspace(0.0, 1.0, grid + 1),
                         _polar_grid(grid // 3 + 1, 2 * grid), _polar_grid(3, 8))


def _a4_search(grid: int, refine: int) -> tuple[tuple, int]:
    """The coarse scan's incumbent, refined ``refine`` times in a shrinking
    window around it: ((value, c1, gamma, eta), sample count)."""
    best, samples = _a4_coarse(grid)
    w_c, w_r, w_t = 1.5 / grid, 0.4, 0.4
    for _ in range(refine):
        _, c1b, gb, eb = best
        rb, tb = abs(gb), math.atan2(gb.imag, gb.real)
        re_, te = abs(eb), math.atan2(eb.imag, eb.real)
        c1_loc = np.clip(np.linspace(c1b - w_c, c1b + w_c, 9), 0.0, 1.0)
        g_loc = (np.clip(np.linspace(rb - w_r, rb + w_r, 9), 0.0, 1.0)[:, None]
                 * np.exp(1j * np.linspace(tb - w_t, tb + w_t, 9))[None, :]).ravel()
        e_loc = (np.clip(np.linspace(re_ - w_r, re_ + w_r, 5), 0.0, 1.0)[:, None]
                 * np.exp(1j * np.linspace(te - w_t, te + w_t, 5))[None, :]).ravel()
        best, n = _a4_first_max(best, c1_loc, g_loc, e_loc)
        samples += n
        w_c *= 0.65
        w_r *= 0.65
        w_t *= 0.65
    return best, samples


def _phi(z):
    """The target function phi(z) = (1 + z/2)^2 at the numpy array ``z``."""
    return (1 + z / 2) ** 2


def _boundary_distance(t):
    """|phi(e^it) - 5/4|^2 at the angles of the numpy array ``t``."""
    return np.abs(_phi(np.exp(1j * t)) - 1.25) ** 2


def _phi_scan(grid_density: int, radius: float, npts: int) -> tuple:
    """On a grid_density x 4 grid_density polar grid of the disk of that
    radius: min and max of |phi|, min of Re phi, max of |z/(8 + 3z)|.  On
    npts (even) angles t_k = k 2 pi / npts: the min of _boundary_distance,
    its angle (the first, as np.argmin picks), and its values at t = 0 and
    t = pi (k = 0 and k = npts / 2).  Last, the sample count: the disk
    grid's points and the angles.  The disk grid runs in blocks of
    whole rows, or of one row in pieces when a row is longer than a block;
    the angles in blocks of consecutive k."""
    radii = np.linspace(0.0, radius, grid_density)
    circle = np.exp(1j * np.linspace(0.0, 2 * math.pi, 4 * grid_density,
                                     endpoint=False))
    mod_min, mod_max, min_real, max_ratio = math.inf, -math.inf, math.inf, -math.inf
    samples = 0
    # whole rows while a row fits in a block, else a row in pieces
    for r in _blocks(radii.size, circle.size):
        for c in _blocks(circle.size):
            z = radii[r, None] * circle[None, c]
            phi = _phi(z)
            mod = np.abs(phi)
            mod_min, mod_max = min(mod_min, float(mod.min())), max(mod_max, float(mod.max()))
            min_real = min(min_real, float(phi.real.min()))
            max_ratio = max(max_ratio, float(np.abs(z / (8 + 3 * z)).max()))
            samples += z.size

    step = 2 * math.pi / npts
    bnd_min, t_min = math.inf, 0.0
    for b in _blocks(npts):
        t = np.arange(b.start, min(npts, b.stop), dtype=float) * step
        bnd = _boundary_distance(t)
        samples += bnd.size
        k = int(np.argmin(bnd))
        if float(bnd[k]) < bnd_min:
            bnd_min, t_min = float(bnd[k]), float(t[k])
        if b.start == 0:
            at0 = float(bnd[0])
        if 0 <= npts // 2 - b.start < bnd.size:
            atpi = float(bnd[npts // 2 - b.start])
    return mod_min, mod_max, min_real, max_ratio, bnd_min, t_min, at0, atpi, samples
