"""Command-line front end.

Exit codes
----------
0   verified / computed successfully
2   a certification or verdict failed (an exact proof step or certificate
    failed, disk test negative)
3   an oracle violation (a float scan contradicted a certified bound, and
    every exact step held)
64  usage errors (bad flags, unreadable input files, unwritable output paths
    or a closed stdout)
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

from .rationals import format_rational

__all__ = ["main"]

USAGE_EXIT = 64
CERT_EXIT = 2
ORACLE_EXIT = 3
_REPORT_EXIT = {None: 0, "certification": CERT_EXIT, "oracle": ORACLE_EXIT}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract here reserves 2 for
    failed certifications, so remap usage errors to 64."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let option values like "-1/4" parse as numbers, not unknown flags
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _number(text: str) -> Fraction:
    """Rational 'num/den', integer or decimal, read exactly ('0.5' is 1/2).

    Exponents are refused: '1e999999999' would build a huge integer.
    """
    if "e" not in text.lower():
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError):
            pass
    raise argparse.ArgumentTypeError(f"not a number: {text!r}")


def _read(path: str) -> str:
    """Read an input file; main() reports a failure as a usage error."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _write(path: str, text: str) -> None:
    """Write an output file; main() reports a failure as a usage error."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc
    print(f"wrote {path}")


def _write_json(path: str, doc: dict) -> None:
    _write(path, json.dumps(doc, indent=2) + "\n")


def _leaf_note(leaf) -> str:
    if leaf.margin is not None:
        return f" margin={format_rational(leaf.margin)}"
    if leaf.witness is not None:
        p, x, v = leaf.witness
        return (f" witness=({format_rational(p)},{format_rational(x)})"
                f" value={format_rational(v)}")
    return f" min_coeff={format_rational(leaf.min_bcoeff)}"


def _read_schwarz(spec: str, order: int):
    """A Schwarz function from 'z', 'z^k' ('z**k'), or a coefficient file.

    A file holds whitespace-separated exact rationals w1 w2 ... (the
    coefficients of z, z^2, ...); '#' starts a comment.  The monomial
    forms are matched first, so a file named like one is given as './z'.
    """
    from .series import TruncSeries, schwarz_monomial
    mono = spec.replace("**", "^")
    if mono == "z":
        return schwarz_monomial(1, order)
    if mono.startswith("z^"):
        if not mono[2:].isdecimal():
            raise ValueError(f"--schwarz wants 'z', 'z^k' or a file; got {spec!r}")
        return schwarz_monomial(int(mono[2:]), order)
    try:
        text = _read(spec)
    except ValueError as exc:
        raise ValueError(f"--schwarz wants 'z', 'z^k' or a file; {exc}") from exc
    tokens = []
    for line in text.splitlines():
        tokens.extend(line.split("#", 1)[0].split())
    return TruncSeries.from_coeffs([0] + tokens, order)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_expand(args) -> int:
    from .series import member_from_schwarz
    # checked before the Schwarz function is built at this order, which
    # would refuse a negative one with its own message
    if args.order < 1:
        raise ValueError("order must be >= 1")
    f = member_from_schwarz(_read_schwarz(args.schwarz, args.order), args.order)
    parts = [f"a{k}={format_rational(f.coeff(k))}"
             for k in range(2, args.order + 1)]
    print(" ".join(parts))
    return 0


def _cmd_verify_h2(args) -> int:
    from .verify import verify_h2
    report = verify_h2(grid=args.grid)
    print(report.render())
    if args.json:
        _write_json(args.json, report.to_json_doc())
    return _REPORT_EXIT[report.details["failure"]]


def _cmd_certify_h3(args) -> int:
    from .verify import verify_h3
    report = verify_h3(grid=args.grid)
    cert = report.certificate
    if args.out:
        _write(args.out, cert.to_json() + "\n")
    print(report.render())
    by_status: dict[str, int] = {}
    for leaf in cert.leaves():
        by_status[leaf.status] = by_status.get(leaf.status, 0) + 1
    print("  leaves by status: "
          + ", ".join(f"{k}={v}" for k, v in sorted(by_status.items())))
    if args.json:
        _write_json(args.json, report.to_json_doc([args.out] if args.out else []))
    return _REPORT_EXIT[report.details["failure"]]


def _cmd_bernstein(args) -> int:
    from .bernstein import (UNIT_BOX, Box, CertificateError, CornerRule,
                            bound_above, certify_positive, check_certificate)
    from .poly import parse_poly_text
    if args.bound_above:
        mode, foreign = "--bound-above", {"--out": args.out,
                                          "--corner": args.corner,
                                          "--max-depth": args.max_depth}
    else:
        mode, foreign = "--certify", {"--depth": args.depth}
    for flag, value in foreign.items():
        if value is not None:
            raise ValueError(f"{flag} does not apply to {mode}")
    poly = parse_poly_text(_read(args.poly))
    box = Box(*args.box) if args.box else UNIT_BOX
    if args.bound_above:
        hi = bound_above(poly, box, args.depth or 0)
        print(f"bernstein upper bound on {box}: "
              f"{format_rational(hi)} = {float(hi):.12g}")
        return 0
    corner = CornerRule(*args.corner) if args.corner else None
    max_depth = 3 if args.max_depth is None else args.max_depth
    cert = certify_positive(poly, box, max_depth, corner)
    try:
        check_certificate(poly, cert, box)
    except CertificateError as exc:  # pragma: no cover - internal bug guard
        print(f"bernstein: certificate failed re-validation: {exc}",
              file=sys.stderr)
        return CERT_EXIT
    print(f"certificate: {'succeeded' if cert.succeeded else 'FAILED'} "
          f"({cert.node_count()} nodes, {len(cert.leaves())} leaves, "
          f"re-validated)")
    for leaf in cert.leaves():
        print(f"  {leaf.status:16s} box={leaf.box}{_leaf_note(leaf)}")
    if args.out:
        _write(args.out, cert.to_json() + "\n")
    return 0 if cert.succeeded else CERT_EXIT


def _cmd_radius(args) -> int:
    from .radius import solve_radius
    res = solve_radius(args.gamma, args.tol)
    print(f"gamma:      {format_rational(res.gamma)}")
    print(f"root:       {res.root:.18f}")
    print(f"bracket:    [{format_rational(res.bracket_lo)}, "
          f"{format_rational(res.bracket_hi)}]")
    print(f"width:      {float(res.bracket_hi - res.bracket_lo):.3e} "
          f"({res.iterations} bisections)")
    return 0


def _cmd_max_a4(args) -> int:
    from .verify import max_a4
    res = max_a4(grid=args.grid, refine=args.refine)
    print(f"max |a4|:      {res.value:.9f}  ({res.samples} samples)")
    print(f"witness:       c1={res.c1:.9f}  gamma={res.gamma:.6f}  "
          f"eta={res.eta:.6f}")
    print(f"family argmax: t={res.family_t:.9f}  value={res.family_value:.9f}")
    if args.json:
        _write_json(args.json, {
            "max_a4": res.value, "c1": res.c1,
            "gamma": [res.gamma.real, res.gamma.imag],
            "eta": [res.eta.real, res.eta.imag],
            "family_t": res.family_t, "family_value": res.family_value,
            "samples": res.samples,
        })
    return 0


def _cmd_janowski(args) -> int:
    from .gft import JanowskiParams, janowski_check
    params = JanowskiParams(args.A, args.B)
    ok, rep = janowski_check(params)
    print(f"A = {format_rational(params.A)}, B = {format_rational(params.B)}")
    print(f"image disk:    center {format_rational(rep.center)}, "
          f"radius {format_rational(rep.radius)}")
    print(f"value range:   [{format_rational(rep.inner_value)}, "
          f"{format_rational(rep.outer_value)}]  (needs [1/4, 9/4])")
    print(f"interval test: {rep.interval_test}")
    print(f"disk test:     {rep.disk_test}   (|center - 5/4| + radius <= 1)")
    print(f"verdict:       {'inside' if ok else 'NOT inside'}")
    return 0 if ok else CERT_EXIT


def _cmd_scan_phi(args) -> int:
    from .gft import ma_minda_scan
    rep = ma_minda_scan(grid_density=args.grid)
    print(f"grid density:     {rep.grid_density} (radius cap {rep.radius_cap})")
    print(f"modulus range:    [{rep.min_modulus:.9f}, {rep.max_modulus:.9f}]"
          f"  (needs (1/4, 9/4))")
    print(f"min real part:    {rep.min_real:.9f}")
    print(f"starlike ratio:   {rep.max_starlike_ratio:.9f}  (needs < 1/5)")
    print(f"boundary minimum: {rep.boundary_min:.12f} at t={rep.boundary_argmin:.6f}"
          f"  (tangency value 1 at t=0 and pi)")
    for name, ok in rep.checks.items():
        print(f"  {'pass' if ok else 'FAIL'}  {name}")
    return 0 if rep.passed else ORACLE_EXIT


# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    p = _Parser(prog="starcert",
                description="Certified coefficient and Hankel determinant "
                            "bounds for a starlike class (exact rational "
                            "arithmetic + Bernstein positivity certificates).")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    q = sub.add_parser("expand", help="series coefficients of the member "
                                      "driven by a Schwarz function")
    q.add_argument("--schwarz", required=True,
                   help="'z', 'z^k', or a file of rational coefficients")
    q.add_argument("--order", type=int, default=5,
                   help="highest coefficient index to print (default 5)")
    q.set_defaults(func=_cmd_expand)

    q = sub.add_parser("verify-h2",
                       help="certify the sharp bound 1/4 for the second "
                            "Hankel determinant")
    q.add_argument("--grid", type=int, default=32)
    q.add_argument("--json", metavar="PATH", help="write the report as JSON")
    q.set_defaults(func=_cmd_verify_h2)

    q = sub.add_parser("certify-h3",
                       help="certify the sharp bound 1/9 for the third "
                            "Hankel determinant")
    q.add_argument("--grid", type=int, default=12)
    q.add_argument("--out", metavar="PATH",
                   help="write the positivity certificate as JSON")
    q.add_argument("--json", metavar="PATH", help="write the report as JSON")
    q.set_defaults(func=_cmd_certify_h3)

    q = sub.add_parser("bernstein",
                       help="certify positivity / bound a bivariate "
                            "polynomial from a .poly file")
    q.add_argument("--poly", required=True, metavar="FILE")
    q.add_argument("--box", nargs=4, type=_number,
                   metavar=("PLO", "PHI", "XLO", "XHI"))
    mode = q.add_mutually_exclusive_group(required=True)
    mode.add_argument("--certify", action="store_true")
    mode.add_argument("--bound-above", action="store_true")
    q.add_argument("--corner", nargs=2, type=_number, metavar=("PLO", "XLO"),
                   help="corner point eligible for the tail estimate "
                        "(--certify)")
    q.add_argument("--max-depth", type=int,
                   help="subdivision budget for --certify (default 3)")
    q.add_argument("--depth", type=int,
                   help="uniform subdivision depth for --bound-above "
                        "(default 0)")
    q.add_argument("--out", metavar="PATH",
                   help="write the certificate JSON (--certify)")
    q.set_defaults(func=_cmd_bernstein)

    q = sub.add_parser("radius",
                       help="radius at which the convexity functional "
                            "reaches a level gamma")
    q.add_argument("--gamma", type=_number, default=Fraction(0),
                   help="level, rational like 1/10 (default 0)")
    q.add_argument("--tol", type=float, default=1e-12)
    q.set_defaults(func=_cmd_radius)

    q = sub.add_parser("max-a4", help="maximize |a4| over the Schwarz "
                                      "coefficient body")
    q.add_argument("--grid", type=int, default=48)
    q.add_argument("--refine", type=int, default=60)
    q.add_argument("--json", metavar="PATH")
    q.set_defaults(func=_cmd_max_a4)

    q = sub.add_parser("janowski",
                       help="test whether (1+Az)/(1+Bz) maps into the "
                            "target region")
    q.add_argument("--A", type=_number, required=True)
    q.add_argument("--B", type=_number, required=True)
    q.set_defaults(func=_cmd_janowski)

    q = sub.add_parser("scan-phi", help="numeric scan of the target "
                                        "function's analytic properties")
    q.add_argument("--grid", type=int, default=64)
    q.set_defaults(func=_cmd_scan_phi)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"starcert {args.command}: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except BrokenPipeError as exc:
        # the output still buffered is flushed again at exit: send it nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"starcert {args.command}: cannot write stdout: {exc.strerror or exc}",
              file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
