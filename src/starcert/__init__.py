"""starcert: certified coefficient and Hankel determinant bounds.

Exact truncated power series, coefficient maps for a starlike class with
target (1 + z/2)^2, sharp second and third Hankel determinant bounds
(1/4 and 1/9) certified by exact-rational Bernstein branch-and-bound,
the radius solver for the convexity functional, and numeric cross-check
oracles for everything.

The public names are those in the submodules' ``__all__``.  They are
resolved on first use (PEP 562), so ``import starcert`` loads no submodule,
and numpy is loaded only by the float oracles and scans that use it.
"""
from __future__ import annotations

from importlib import import_module

__version__ = "0.1.0"

# each after the modules it imports, so resolving a name loads little else
_MODULES = ("rationals", "poly", "reduction", "series", "bernstein", "radius", "gft",
            "verify")


def __getattr__(name: str):
    if name in _MODULES:
        return import_module(f"{__name__}.{name}")
    if name == "__all__":
        return [n for m in _MODULES
                for n in import_module(f"{__name__}.{m}").__all__]
    for m in _MODULES:
        module = import_module(f"{__name__}.{m}")
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
