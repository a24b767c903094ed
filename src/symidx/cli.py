"""Command line front end.

Subcommands
-----------
verify
    Run the bundled checks and print their outcomes as a JSON array.
index
    Load a space document, compute the parallel Killing fields, the
    index and coindex, and the ideal dimension bound.
sweep
    Tabulate index data over a parameter grid of a catalog family as CSV.
jacobi
    Spectrum of the curvature operator along a tangent basis direction.
catalog
    List the named example spaces or emit one as a JSON document.

Exit codes: 0 on success, 1 when a computation fails (any ValueError,
mapped in ``main``) or a check does not pass, 2 for unusable input (bad
arguments, unreadable files, malformed or invalid JSON, unknown names).
The numerical tolerance is ``--tol`` when given, else the ``SYMIDX_TOL``
environment variable, else 1e-9; ``verify`` takes none, as its checks fix
their own.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import catalog
from .homspace import (
    augment_left_invariant,
    jacobi_operator,
    symmetry_ideal,
    symmetry_ideals,
    transvection_space,
    transvection_stack,
)
from .liealg import DEFAULT_TOL, checked_tol
from .serialize import (
    SpaceFormatError,
    load_space,
    plain,
    space_to_dict,
    spectrum_to_dict,
    to_json,
)
from .verify import run_checks

SWEEP_HEADER = ("lambda,s,t,rho,index,coindex,dim_transvection,"
                "psd_ok,bound_lhs,bound_rhs,equality")

#: Most points a sweep grid may have, on each axis and over all axes.
MAX_GRID_POINTS = 10 ** 5


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``symidx`` argument parser, built once per process, so that an
    in-process caller of :func:`main` pays for it once; ``parse_args``
    keeps no state in it between calls."""
    parser = argparse.ArgumentParser(
        prog="symidx",
        description="Index of symmetry computations for compact "
                    "homogeneous spaces.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--tol", type=float, default=None,
        help="numerical rank/residual tolerance (default: SYMIDX_TOL "
             "environment variable, else 1e-9)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the bundled verification checks")
    p.add_argument("--filter", default=None,
                   help="only run checks whose name contains this substring")

    p = sub.add_parser("index", parents=[common],
                       help="index and coindex of symmetry of a space document")
    p.add_argument("--space", required=True, help="path to a space JSON file")
    p.add_argument("--augment", action="store_true",
                   help="enlarge the algebra by opposite-side invariant "
                        "fields first (trivial isotropy only)")

    p = sub.add_parser("sweep", parents=[common],
                       help="tabulate a catalog family over a parameter grid")
    p.add_argument("--family", required=True,
                   choices=("so4-so2", "spin3", "product-spheres"))
    p.add_argument("--lambda", dest="lam", default=None, metavar="A:B:STEP",
                   help="slope grid for so4-so2")
    p.add_argument("--s", default=None, metavar="A:B:STEP",
                   help="metric parameter grid")
    p.add_argument("--t", default=None, metavar="A:B:STEP",
                   help="metric parameter grid")
    p.add_argument("--rho", default=None, metavar="A:B:STEP",
                   help="radius grid for product-spheres")
    p.add_argument("--coupled", action="store_true",
                   help="tie t = 2 - s instead of sweeping t")

    p = sub.add_parser("jacobi", parents=[common],
                       help="curvature operator along a tangent basis direction")
    p.add_argument("--space", required=True, help="path to a space JSON file")
    p.add_argument("--direction", required=True, type=int, metavar="IDX",
                   help="0-based index into the tangent (complement) basis")

    p = sub.add_parser("catalog", parents=[common],
                       help="named example spaces")
    p.add_argument("action", choices=("list", "emit"))
    p.add_argument("name", nargs="?", default=None,
                   help="catalog name, e.g. round-sphere:3 (emit only)")
    return parser


def _resolve_tol(args, parser) -> float:
    """``--tol``, else ``SYMIDX_TOL``, else the default; a tolerance that is
    not a number in [MIN_TOL, 1) is a usage error."""
    source, tol = "--tol", args.tol
    if tol is None:
        source, tol = "SYMIDX_TOL", os.environ.get("SYMIDX_TOL") or DEFAULT_TOL
    try:
        return checked_tol(tol)
    except ValueError as exc:
        parser.error(f"{source}={tol}: {exc}")


def _emit_json(payload) -> None:
    print(to_json(payload))


def _cmd_verify(args) -> int:
    outcomes = run_checks(args.filter)
    if not outcomes:
        print(f"error: no check matches filter {args.filter!r}",
              file=sys.stderr)
        return 1
    _emit_json(plain(outcomes))
    return 0 if all(o.status == "pass" for o in outcomes) else 1


def _cmd_index(args, tol) -> int:
    sp = load_space(args.space, tol)
    if args.augment:
        sp = augment_left_invariant(sp)
    report = transvection_space(sp)
    bound = symmetry_ideal(sp, report)
    _emit_json({
        "label": sp.label,
        "dim": sp.dim,
        "augmented": bool(args.augment),
        "transvection": plain(report),
        "bound": plain(bound),
    })
    return 0


def _parse_grid(text: str, parser, name: str) -> list[float]:
    try:
        parts = [float(p) for p in text.split(":")]
    except ValueError:
        parts = []
    if len(parts) not in (1, 3):
        parser.error(f"--{name} expects a number or A:B:STEP, got {text!r}")
    if not np.isfinite(parts).all():  # a NaN or infinite grid never ends
        parser.error(f"--{name}: values must be finite, got {text!r}")
    if len(parts) == 1:
        return parts
    start, stop, step = parts
    if step <= 0:
        parser.error(f"--{name}: step must be positive")
    span = (stop + 1e-12 - start) / step  # +-inf if it overflows
    if span >= MAX_GRID_POINTS:
        parser.error(f"--{name}: more than MAX_GRID_POINTS = "
                     f"{MAX_GRID_POINTS} grid points")
    # start + k step rises with k, so the points kept are a prefix
    values = [v for k in range(math.floor(max(span, -1.0)) + 2)
              if (v := start + k * step) <= stop + 1e-12]
    if not values:
        parser.error(f"--{name}: empty grid")
    return values


def _sweep_points(args, parser):
    """The grid as ``(presentation, points)``: the builder of the points'
    presentation from their complements and tol, and per point its CSV
    fields (None prints empty) and a function giving its complement and
    Gram matrix, which raises ``ValueError`` outside the family."""
    family = args.family
    if family == "so4-so2":
        if args.rho is not None:
            parser.error("--rho does not apply to so4-so2")
        if args.lam is None or args.s is None:
            parser.error("so4-so2 needs --lambda and --s")
        if args.coupled == (args.t is not None):
            parser.error("so4-so2 needs exactly one of --t or --coupled")
        lams = _parse_grid(args.lam, parser, "lambda")
        svals = _parse_grid(args.s, parser, "s")
        tvals = [None] if args.coupled else _parse_grid(args.t, parser, "t")
        if len(lams) * len(svals) * len(tvals) > MAX_GRID_POINTS:
            parser.error(f"the grid has more than MAX_GRID_POINTS = "
                         f"{MAX_GRID_POINTS} points")
        pairs = [(s, 2.0 - s if t is None else t) for s in svals for t in tvals]
        complement = functools.cache(catalog.so4_so2_complement)
        gram = functools.cache(catalog.so4_so2_gram)  # once per (s, t)
        return catalog.spin4_quotient, [
            ((lam, s, t, None), lambda lam=lam, s=s, t=t: (
                complement(lam), gram(s, t)))
            for lam in lams for s, t in pairs]
    if family == "spin3":
        if args.lam is not None or args.rho is not None:
            parser.error("spin3 sweeps take only --s or --t")
        if (args.s is None) == (args.t is None):
            parser.error("spin3 needs exactly one of --s or --t")
        if args.coupled:
            parser.error("--coupled does not apply to spin3")
        line = args.s is not None
        metric = catalog.spin3_line if line else catalog.spin3_squashed
        return lambda _, tol: catalog.spin3_presentation(tol), [
            ((None, v, None, None) if line else (None, None, v, None),
             lambda v=v: (None, np.diag(metric(v))))
            for v in (_parse_grid(args.s, parser, "s") if line
                      else _parse_grid(args.t, parser, "t"))]
    if any(v is not None for v in (args.lam, args.s, args.t)) or args.coupled:
        parser.error("product-spheres sweeps take only --rho")
    if args.rho is None:
        parser.error("product-spheres needs --rho")
    # only the complement moves with rho: one stack at the slopes 1/(1+2 rho^2)
    return catalog.spin4_quotient, [
        ((None, None, None, rho),
         lambda rho=rho: catalog.product_of_spheres_metric(rho)[:2])
        for rho in _parse_grid(args.rho, parser, "rho")]


def _sweep_rows(presentation, points, tol) -> tuple:
    """The CSV rows of the points kept, in the order of ``points`` (by
    ascending parameters, the first slowest, as grids ascend), decided on
    the presentation of their complements, one per point, and the count of
    refused curvature candidates, read from the stacked arrays."""
    kept = []
    for params, point in points:
        try:
            kept.append((params, *point()))
        except ValueError:
            pass
    if not kept:
        return [], 0
    fields, complements, grams = zip(*kept)
    grams, kept = np.array(grams), None  # one stack, not one array a point
    try:
        pres = presentation(complements, tol)
    except ValueError:
        return [], 0
    stack = symmetry_ideals(pres, transvection_stack(pres, grams))
    values = zip(*(stack[key].tolist() for key in (
        "index", "coindex", "dim_transvection", "psd_ok", "lhs", "rhs",
        "equality")))
    rows = [",".join(["" if v is None else "%.12g" % v for v in params]
                     + [str(v).lower() for v in point])  # 2, true or false
            for params, point in zip(fields, values) if point[0] >= 0]
    return rows, int(stack["refused"].sum())


def _counted(count: int, noun: str) -> str:
    return f"{count} {noun}" + ("" if count == 1 else "s")


def _cmd_sweep(args, tol, parser) -> int:
    """Validate the grid's presentation once and decide its metrics by one
    :func:`transvection_stack` and one :func:`symmetry_ideals`; a point
    that the builders or the checks refuse is skipped."""
    presentation, points = _sweep_points(args, parser)
    rows, refused = _sweep_rows(presentation, points, tol)
    print("\n".join([SWEEP_HEADER, *rows]))
    print(f"sweep: {_counted(len(points) - len(rows), 'grid point')} "
          f"skipped, {_counted(refused, 'curvature candidate')} refused",
          file=sys.stderr)
    return 0


def _cmd_jacobi(args, tol, parser) -> int:
    sp = load_space(args.space, tol)
    if not 0 <= args.direction < sp.dim:
        parser.error(f"--direction must be in 0..{sp.dim - 1} for this space"
                     if sp.dim else
                     "--direction: this space has no tangent directions")
    spectrum = jacobi_operator(sp, sp.m_basis[:, args.direction])
    payload = spectrum_to_dict(spectrum)
    payload["label"] = sp.label
    payload["direction_index"] = args.direction
    _emit_json(payload)
    return 0


def _cmd_catalog(args, tol, parser) -> int:
    if args.action == "list":
        for template in catalog.CATALOG_TEMPLATES:
            print(template)
        return 0
    if args.name is None:
        parser.error("catalog emit needs a name")
    try:
        sp, _ = catalog.from_name(args.name, tol)
    except ValueError as exc:  # an unknown name is unusable input
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit_json(space_to_dict(sp))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "verify":
            return _cmd_verify(args)
        tol = _resolve_tol(args, parser)
        if args.command == "index":
            return _cmd_index(args, tol)
        if args.command == "sweep":
            return _cmd_sweep(args, tol, parser)
        if args.command == "jacobi":
            return _cmd_jacobi(args, tol, parser)
        return _cmd_catalog(args, tol, parser)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    except (SpaceFormatError, OSError) as exc:
        if isinstance(exc, OSError) and exc.filename is None:
            raise  # not a file the command reads, e.g. a closed stdout
        reason = (f"cannot read {exc.filename}: {exc.strerror}"
                  if isinstance(exc, OSError) else exc)
        print(f"error: {reason}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
