"""The four benchmark workloads: seeded inputs, the ops that run them, and
the checks that their outputs are right.

An op is one call into ``symidx`` through its public API or through
``symidx.cli.main``.  ``run()`` returns the text the call printed; ``check``
takes that text, raises :class:`CheckFailed` when it does not match the
values known for the input, and returns the op's counters.  Every module
attribute is looked up at call time, so the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from symidx import cli, homspace, liealg, verify

SWEEP_HEADER = ("lambda,s,t,rho,index,coindex,dim_transvection,"
                "psd_ok,bound_lhs,bound_rhs,equality")

# (index, coindex, bound_lhs, bound_rhs, equality) of the catalog families:
# published for the coupled quotients, the spin3 line and the products; off
# those strata the index is 0, as the bundled verify checks pin it, and the
# bound follows from the coindex.
COUPLED = (2, 3, 12, 12, True)
UNCOUPLED = (0, 5, 12, 30, False)
SPIN3_LINE = (1, 2, 6, 6, True)
SPIN3_GENERIC = (0, 3, 6, 12, False)
PRODUCT = (2, 3, 12, 12, True)
CP2_CENTRIOLE = (1, 2, 6, 6, True)


class CheckFailed(Exception):
    """An op printed output that does not match its input's known values."""


@dataclass
class Op:
    name: str
    run: Callable[[], str]
    check: Callable[[str], dict]


@dataclass
class Workload:
    ops: list
    largest: int  # position in ``ops`` of the op with the largest input
    # About the seconds one pass took on the seed commit (2-vCPU Xeon, one
    # BLAS thread).  A run makes ``--seconds / pass_s`` passes, a count fixed by
    # the benchmark and not by the speed of the program under test, so that
    # every commit gets the same number of samples per op.
    pass_s: float


def _require(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


def _cli(argv: list) -> Callable[[], str]:
    def run() -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        if code != 0:
            raise CheckFailed(f"symidx {' '.join(argv)} exited with {code}")
        return buf.getvalue()
    return run


def _bound_matches(got: tuple, want: tuple, what: str):
    index, coindex, lhs, rhs, equality = got
    _require(lhs <= rhs, f"{what}: bound {lhs} > {rhs}")
    _require(equality == (lhs == rhs),
             f"{what}: equality flag {equality} for {lhs} vs {rhs}")
    _require(got == want, f"{what}: (index, coindex, lhs, rhs, equality) "
                          f"= {got}, expected {want}")


# ---------------------------------------------------------------------------
# sphere-ladder
# ---------------------------------------------------------------------------

def _sphere_op(n: int, direction: np.ndarray) -> Op:
    def run() -> str:
        alg, _ = liealg.so_elementary(n + 1)
        pairs = list(itertools.combinations(range(n + 1), 2))
        eye = np.eye(alg.dim)
        h_idx = [k for k, (a, _) in enumerate(pairs) if a > 0]
        m_idx = [k for k, (a, _) in enumerate(pairs) if a == 0]
        sp = homspace.HomogeneousSpace(
            alg, liealg.Subspace(alg.dim, eye[:, h_idx]),
            liealg.BilinearForm(np.eye(n)),
            complement=liealg.Subspace(alg.dim, eye[:, m_idx]),
            label=f"so({n + 1})/so({n})")
        report = homspace.transvection_space(sp)
        bound = homspace.symmetry_ideal(sp, report)
        spectrum = homspace.jacobi_operator(sp, sp.lift(direction))
        return json.dumps({
            "n": n, "index": report.index, "coindex": report.coindex,
            "dim_transvection": report.dim_transvection,
            "involutive_ok": report.involutive_ok,
            "bound": [bound.lhs, bound.rhs, bound.equality],
            "psd_ok": spectrum.psd_ok,
            "eigenvalues": [round(float(w), 10) + 0.0
                            for w in spectrum.eigenvalues],
        }) + "\n"

    def check(out: str) -> dict:
        got = json.loads(out)
        _bound_matches((got["index"], got["coindex"], *got["bound"]),
                       (n, 0, 0, 0, True), f"so({n + 1})/so({n})")
        want = [0.0] + [1.0] * (n - 1)
        _require(got["psd_ok"] and np.allclose(got["eigenvalues"], want,
                                               atol=1e-8),
                 f"so({n + 1})/so({n}): curvature eigenvalues "
                 f"{got['eigenvalues']}, expected {want}")
        return {}

    return Op(f"so({n + 1})/so({n})", run, check)


def sphere_ladder(seed: int, workdir: str) -> Workload:
    """Round spheres so(n+1)/so(n), n = 3..9, algebra dimension 6 to 45,
    built directly because the catalog admits only n <= 5.  The ladder
    stops at 45: so(11) and so(12) take 4 and 9 s, one sample a run, which
    is too unsteady to gate on where neighbours share the machine.  The
    seed picks the tangent direction of each Jacobi operator."""
    rng = np.random.default_rng(seed)
    ops = [_sphere_op(n, rng.standard_normal(n)) for n in range(3, 10)]
    return Workload(ops, largest=len(ops) - 1, pass_s=1.8)


# ---------------------------------------------------------------------------
# catalog-sweep
# ---------------------------------------------------------------------------

def _grid(text: str) -> list:
    """The points ``symidx sweep`` makes of ``A:B:STEP``, by its own rule."""
    start, stop, step = (float(p) for p in text.split(":"))
    values, k = [], 0
    while start + k * step <= stop + 1e-12:
        values.append(start + k * step)
        k += 1
    return values


def _fmt(value) -> str:
    return "" if value is None else "%.12g" % value


def _sweep_row(rng, family: str, points: int):
    """One seeded grid row with ``points`` admissible points: (argv,
    expected values by CSV parameter prefix, grid points requested).

    Each family's swept parameter lives on its own lattice, which keeps the
    coupled s and the uncoupled t below 2, clear of a degenerate metric and
    of the second stratum t = 2 + s, and the spin3 line below s = 1.  Every
    spin3 --t row also crosses t = 2, which the catalog excludes, so a pass
    skips the same number of points whatever the seed.
    """
    lattice = _SWEEP_LATTICE[family]
    step = lattice * int(rng.integers(1, 3))
    start = lattice * int(rng.integers(1, 11))
    if family == "spin3-berger":
        points += 1
        start = 2.0 - step * int(rng.integers(1, min(points - 1,
                                                     round(2.0 / step) - 1)))
    spec = f"{start:.4f}:{start + (points - 1) * step:.4f}:{step:.4f}"
    grid = _grid(spec)
    lam = float(f"{0.05 * int(rng.integers(1, 21)):.2f}")
    s = float(f"{0.05 * int(rng.integers(1, 39)):.2f}")
    expected = {}
    if family == "coupled":
        argv = ["--family", "so4-so2", "--lambda", repr(lam), "--s", spec,
                "--coupled"]
        for v in grid:
            expected[(lam, v, 2.0 - v, None)] = COUPLED
    elif family == "uncoupled":
        argv = ["--family", "so4-so2", "--lambda", repr(lam), "--s", repr(s),
                "--t", spec]
        for v in grid:
            on_stratum = abs(v - (2.0 - s)) < 1e-6
            expected[(lam, s, v, None)] = COUPLED if on_stratum else UNCOUPLED
    elif family == "spin3-line":
        argv = ["--family", "spin3", "--s", spec]
        for v in grid:
            expected[(None, v, None, None)] = SPIN3_LINE
    elif family == "spin3-berger":
        argv = ["--family", "spin3", "--t", spec]
        for v in grid:
            if abs(v - 2.0) > 1e-12:
                on_line = abs(v - 1.0) < 1e-6
                expected[(None, None, v, None)] = \
                    SPIN3_LINE if on_line else SPIN3_GENERIC
    else:
        argv = ["--family", "product-spheres", "--rho", spec]
        for v in grid:
            expected[(None, None, None, v)] = PRODUCT
    rows = {",".join(_fmt(p) for p in key): want
            for key, want in expected.items()}
    return ["sweep"] + argv, rows, len(grid)


_SWEEP_LATTICE = {"coupled": 0.025, "uncoupled": 0.04, "spin3-line": 0.015,
                  "spin3-berger": 0.1, "product-spheres": 0.1}


def _sweep_check(rows: dict, points: int):
    def check(out: str) -> dict:
        lines = out.splitlines()
        _require(lines[:1] == [SWEEP_HEADER], "sweep: wrong CSV header")
        body = lines[1:]
        _require(body == sorted(body), "sweep: rows are not sorted")
        seen = set()
        for line in body:
            fields = line.split(",")
            _require(len(fields) == 11, f"sweep: malformed row {line!r}")
            key = ",".join(fields[:4])
            index, coindex, _, psd, lhs, rhs, eq = fields[4:]
            _require(psd in ("true", "false"), f"sweep: psd_ok {psd!r}")
            _require(key in rows, f"sweep: unexpected grid point {key!r}")
            _bound_matches((int(index), int(coindex), int(lhs), int(rhs),
                            eq == "true"), rows[key], f"sweep row {key}")
            seen.add(key)
        _require(len(seen) == len(body) == len(rows),
                 f"sweep: {len(body)} rows for {len(rows)} admissible points")
        return {"cli.sweep.skipped_points": points - len(body)}
    return check


# The 190-point coupled grid, a whole sweep in one call: the largest op.
_COUPLED_GRID = ["sweep", "--family", "so4-so2", "--lambda", "0.1:1:0.1",
                 "--s", "0.1:1.9:0.1", "--coupled"]


def catalog_sweep(seed: int, workdir: str) -> Workload:
    """25 ``symidx sweep`` calls, 5 per family, each a seeded grid row of
    10, 12, 14, 16 or 18 points, then the 190-point coupled grid.  Every
    family has the same row sizes whatever the seed; only the order and the
    parameter values change.  The pass is kept short so that a run repeats
    it about twenty times: each op's median needs that many samples."""
    ops = []
    rng = np.random.default_rng(seed)
    sizes = {family: list(range(10, 20, 2)) for family in _SWEEP_LATTICE}
    for family in sizes:
        rng.shuffle(sizes[family])
    families = list(_SWEEP_LATTICE) * 5
    rng.shuffle(families)
    for i, family in enumerate(families):
        argv, rows, requested = _sweep_row(rng, family,
                                           sizes[family].pop())
        ops.append(Op(f"sweep {family} #{i}", _cli(argv),
                      _sweep_check(rows, requested)))
    rows = {",".join(_fmt(p) for p in (lam, s, 2.0 - s, None)): COUPLED
            for lam in _grid("0.1:1:0.1") for s in _grid("0.1:1.9:0.1")}
    ops.append(Op("sweep so4-so2 190-point coupled grid",
                  _cli(_COUPLED_GRID), _sweep_check(rows, len(rows))))
    return Workload(ops, largest=len(ops) - 1, pass_s=1.05)


# ---------------------------------------------------------------------------
# document-index
# ---------------------------------------------------------------------------

def _spin3_generic(rng) -> tuple:
    """A diagonal left metric on Spin(3) away from every symmetric stratum:
    no two coefficients equal and none the sum of the other two."""
    while True:
        a = rng.uniform(0.2, 3.0, size=3)
        gaps = [a[0] - a[1], a[0] - a[2], a[1] - a[2],
                a[0] + a[1] - a[2], a[0] + a[2] - a[1], a[1] + a[2] - a[0]]
        if min(abs(g) for g in gaps) > 0.1:
            return tuple(a)


def _catalog_draw(rng, kind: str, kind_count: int):
    """A seeded catalog name and its (index, coindex, lhs, rhs, equality);
    ``kind_count`` earlier draws were of the same kind."""
    if kind == "coupled":
        lam, s = rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.95)
        return f"so4-so2:{lam:.6f},{s:.6f}", COUPLED
    if kind == "uncoupled":
        lam, s = rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.95)
        while True:
            t = rng.uniform(0.05, 1.95)
            if abs(t - (2.0 - s)) > 0.05:
                return f"so4-so2:{lam:.6f},{s:.6f},{t:.6f}", UNCOUPLED
    if kind == "spin3-generic":
        return "spin3:%.6f,%.6f,%.6f" % _spin3_generic(rng), SPIN3_GENERIC
    if kind == "spin3-line":
        # a1 + a2 = a3 exactly in the printed decimals: a scaled (s, 2-s, 2)
        c, s = rng.uniform(0.5, 2.0), rng.uniform(0.05, 0.95)
        a1, a2 = round(c * s * 1e6), round(c * (2.0 - s) * 1e6)
        return ("spin3:%.6f,%.6f,%.6f" % (a1 / 1e6, a2 / 1e6, (a1 + a2) / 1e6),
                SPIN3_LINE)
    if kind == "product-spheres":
        return f"product-spheres:{rng.uniform(0.2, 3.0):.6f}", PRODUCT
    n = 2 + kind_count % 4
    return f"round-sphere:{n}", (n, 0, 0, 0, True)


def _so_structure(m: int) -> dict:
    """so(m) on the elementary basis E_ab (a < b), in the Killing field
    convention (minus the matrix commutator), computed without symidx."""
    pairs = list(itertools.combinations(range(m), 2))
    mats = np.zeros((len(pairs), m, m))
    for k, (a, b) in enumerate(pairs):
        mats[k, a, b], mats[k, b, a] = 1.0, -1.0
    comm = -(np.einsum("iab,jbc->ijac", mats, mats)
             - np.einsum("jab,ibc->ijac", mats, mats))
    rows, cols = zip(*pairs)
    structure = comm[:, :, list(rows), list(cols)]
    return {"dim": len(pairs),
            "labels": [f"E{a + 1}{b + 1}" for a, b in pairs],
            "structure": structure.tolist()}


def _sphere_document(n: int) -> dict:
    """so(n+1)/so(n) with the complement left out, so that ``symidx`` derives
    it from the reference form."""
    pairs = list(itertools.combinations(range(n + 1), 2))
    iso = [[1.0 if k == j else 0.0 for k in range(len(pairs))]
           for j, (a, _) in enumerate(pairs) if a > 0]
    return {"algebra": _so_structure(n + 1), "isotropy": iso,
            "metric": np.eye(n).tolist(), "label": f"so({n + 1})/so({n})"}


def _index_check(what: str, want: tuple):
    def check(out: str) -> dict:
        got = json.loads(out)
        tv, bound = got["transvection"], got["bound"]
        _bound_matches((tv["index"], tv["coindex"], bound["lhs"],
                        bound["rhs"], bound["equality"]), want, what)
        return {}
    return check


_DOC_KINDS = ("coupled", "uncoupled", "spin3-generic", "spin3-line",
              "product-spheres", "round-sphere")


def document_index(seed: int, workdir: str) -> Workload:
    """``symidx index --space FILE`` on 90 documents that ``symidx catalog
    emit`` writes for seeded draws, one cp2-centriole document, and inline
    so(n+1)/so(n) documents for n = 4..7; the last, of dimension 28, is the
    largest op.  The ladder stops there because so(9) and so(10) take about
    0.6 and 1.5 s, too few samples a run for a steady median; the sphere
    ladder covers those dimensions."""
    rng = np.random.default_rng(seed)
    kinds = list(_DOC_KINDS) * 15
    rng.shuffle(kinds)
    draws = [_catalog_draw(rng, kind, kinds[:i].count(kind))
             for i, kind in enumerate(kinds)]
    draws.append(("cp2-centriole", CP2_CENTRIOLE))
    ops = []
    for i, (name, want) in enumerate(draws):
        path = os.path.join(workdir, f"doc{i:03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_cli(["catalog", "emit", name])())
        ops.append(Op(f"index {name}", _cli(["index", "--space", path]),
                      _index_check(name, want)))
    for n in range(4, 8):
        path = os.path.join(workdir, f"sphere{n}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(_sphere_document(n), fh)
        ops.append(Op(f"index so({n + 1})/so({n})",
                      _cli(["index", "--space", path]),
                      _index_check(f"so({n + 1})/so({n})", (n, 0, 0, 0, True))))
    return Workload(ops, largest=len(ops) - 1, pass_s=1.5)


# ---------------------------------------------------------------------------
# verify-oracle
# ---------------------------------------------------------------------------

# The first finite-difference oracle, which with the curvature-operator
# oracle takes most of a verify pass.
_LARGEST_CHECK = "so4-so2-uncoupled-derivative-oracle"


def _verify_check(name: str):
    def check(out: str) -> dict:
        outcomes = json.loads(out)
        _require(len(outcomes) == 1 and outcomes[0]["check"] == name,
                 f"verify --filter {name}: selected "
                 f"{[o['check'] for o in outcomes]}")
        _require(outcomes[0]["status"] == "pass",
                 f"verify {name}: {outcomes[0]['detail']}")
        return {}
    return check


def verify_oracle(seed: int, workdir: str) -> Workload:
    """Each bundled check as one ``symidx verify --filter NAME``; a pass is
    all of them in registry order.  The seed is unused."""
    names = list(verify.CHECK_NAMES)
    ops = [Op(f"verify {name}", _cli(["verify", "--filter", name]),
              _verify_check(name)) for name in names]
    return Workload(ops, largest=names.index(_LARGEST_CHECK), pass_s=0.48)


WORKLOADS = {
    "sphere-ladder": sphere_ladder,
    "catalog-sweep": catalog_sweep,
    "document-index": document_index,
    "verify-oracle": verify_oracle,
}
