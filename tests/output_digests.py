"""Digests of the command line outputs, for checking that a change keeps
them byte for byte.

    PYTHONPATH=src python tests/output_digests.py [NAME ...] > digests.txt

Runs ``symidx`` in process through :func:`symidx.cli.main` and prints one
``sha256 label`` line per output; each digest covers the exit code, the
standard output and the standard error.  For each catalog name it runs
``catalog emit``, then ``index`` on the emitted document at three
tolerances, ``jacobi --direction I`` for each tangent direction I and,
on spin3 names, ``index --augment``.  Without names it does so for the
names of ``NAMES`` and adds ``index`` at the three tolerances on the
inline so(n+1)/so(n) document without a complement of each n in
``SPHERES``, the sweep grids of ``SWEEPS`` at each tolerance of
``SWEEP_TOLS``, and ``verify --filter NAME`` for each check of
``CHECK_NAMES``, one line a check, with its ``duration_ms`` removed and
every other float rounded to 12 significant digits: a change that only
reorders a sum moves an eigenvalue such as 1/6 in its last bits, which
the rounding hides, while a changed answer still moves the digest.
An error or residual that is itself roundoff (``metric_error``,
``worst_residual``) is not hidden by rounding and can still move.  Run it on
two checkouts, by ``PYTHONPATH``, and ``diff`` the two listings.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile

import numpy as np

from symidx.cli import main
from symidx.verify import CHECK_NAMES

NAMES = (
    "round-sphere:2", "round-sphere:3", "round-sphere:5", "round-sphere:9",
    "round-sphere:12",
    "so4-so2:0.5,0.8", "so4-so2:0.5,0.8,1.2", "so4-so2:0.3,1.2,0.8",
    "so4-so2:1,0.5",
    "spin3:1,1,1", "spin3:1.5,1.5,2", "spin3:0.5,1.5,2", "spin3:0.7,0.7,1",
    "spin3:0.4,1.6,2",
    "product-spheres:1", "product-spheres:0.5", "product-spheres:2.5",
    "product-spheres:0.13",
    "cp2-centriole",
)
INDEX_TOLS = ("1e-9", "1e-6", "1e-11")
SPHERES = (4, 5, 6, 7)  # the largest documents `index` reads, up to so(8)
SWEEPS = (
    ("so4-so2", "--lambda", "0.1:1:0.1", "--s", "0.1:1.9:0.1", "--coupled"),
    # the metric rule refuses s = 1e-12 on each slope
    ("so4-so2", "--lambda", "0.1:1:0.1", "--s", "1e-12:1.9:0.1", "--coupled"),
    ("so4-so2", "--lambda", "0.5", "--s", "0.8", "--t", "0.1:1.9:0.07"),
    ("so4-so2", "--lambda", "0.2:1:0.2", "--s", "0.6", "--t", "0.1:1.9:0.3"),
    # 720 points of index 0, whose symmetry ideals take two chunks, and 90
    # of index 2
    ("so4-so2", "--lambda", "0.1:1:0.1", "--s", "0.2:1.8:0.2", "--t",
     "0.2:1.8:0.2"),
    ("spin3", "--t", "0.1:3:0.1"),
    ("spin3", "--s", "0.05:0.95:0.05"),
    ("product-spheres", "--rho", "0.1:3:0.1"),
    # at --tol 0.1 the member of slope 0.01 overlaps the isotropy and is
    # refused alone
    ("so4-so2", "--lambda", "0.01:1:0.11", "--s", "0.5", "--coupled"),
)
SWEEP_TOLS = ("1e-9", "1e-6", "0.1")


def run(*argv) -> tuple[int, str, str]:
    """Exit code, standard output and standard error of ``symidx argv``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def digest(code: int, out: str, err: str) -> str:
    return hashlib.sha256(f"{code}\n{out}\n{err}".encode()).hexdigest()


def name_outputs(name: str, workdir: str):
    """``(label, (code, out, err))`` of each output run on ``name``."""
    emitted = run("catalog", "emit", name)
    yield f"catalog emit {name}", emitted
    path = os.path.join(workdir, name.replace(":", "_") + ".json")
    with open(path, "w") as fh:
        fh.write(emitted[1])
    for tol in INDEX_TOLS:
        yield f"index {name} --tol {tol}", run("index", "--space", path,
                                               "--tol", tol)
    for i in range(len(json.loads(emitted[1])["metric"])):
        yield f"jacobi {name} --direction {i}", run(
            "jacobi", "--space", path, "--direction", str(i))
    if name.startswith("spin3:"):
        yield f"index {name} --augment", run("index", "--space", path,
                                             "--augment")


def sphere_document(n: int) -> dict:
    """so(n+1)/so(n) with an inline algebra, on the elementary basis E_ab
    (a < b) in the Killing field convention (minus the matrix commutator),
    and no complement, so that ``symidx`` derives it; built without
    symidx."""
    pairs = list(itertools.combinations(range(n + 1), 2))
    mats = np.zeros((len(pairs), n + 1, n + 1))
    for k, (a, b) in enumerate(pairs):
        mats[k, a, b], mats[k, b, a] = 1.0, -1.0
    comm = -(np.einsum("iab,jbc->ijac", mats, mats)
             - np.einsum("jab,ibc->ijac", mats, mats))
    rows, cols = zip(*pairs)
    algebra = {"dim": len(pairs),
               "labels": [f"E{a + 1}{b + 1}" for a, b in pairs],
               "structure": comm[:, :, list(rows), list(cols)].tolist()}
    iso = [[1.0 if k == j else 0.0 for k in range(len(pairs))]
           for j, (a, _) in enumerate(pairs) if a > 0]
    return {"algebra": algebra, "isotropy": iso,
            "metric": np.eye(n).tolist(), "label": f"so({n + 1})/so({n})"}


def sphere_outputs(n: int, workdir: str):
    """``(label, (code, out, err))`` of ``index`` at each tolerance on
    :func:`sphere_document` ``(n)``."""
    path = os.path.join(workdir, f"sphere{n}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(sphere_document(n), fh)
    for tol in INDEX_TOLS:
        yield (f"index so({n + 1})/so({n}) --tol {tol}",
               run("index", "--space", path, "--tol", tol))


def rounded(value):
    """``value`` with each float in it, at any depth of lists and dicts,
    rounded to 12 significant digits."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {key: rounded(item) for key, item in value.items()}
    if isinstance(value, list):
        return [rounded(item) for item in value]
    return value


def verify_output(name: str) -> tuple[int, str, str]:
    """``verify --filter name`` with each outcome's ``duration_ms``
    removed and its other floats :func:`rounded`."""
    code, out, err = run("verify", "--filter", name)
    checks = json.loads(out)
    for check in checks:
        check.pop("duration_ms")
    return code, json.dumps(rounded(checks), indent=2, sort_keys=True), err


def outputs(names=()):
    """``(label, (code, out, err))`` of every output, as the module
    docstring lists them."""
    with tempfile.TemporaryDirectory() as workdir:
        for name in names or NAMES:
            yield from name_outputs(name, workdir)
        if names:
            return
        for n in SPHERES:
            yield from sphere_outputs(n, workdir)
    for grid in SWEEPS:
        for tol in SWEEP_TOLS:
            yield (f"sweep {' '.join(grid)} --tol {tol}",
                   run("sweep", "--family", *grid, "--tol", tol))
    for name in CHECK_NAMES:
        yield f"verify --filter {name}", verify_output(name)


if __name__ == "__main__":
    for label, result in outputs(sys.argv[1:]):
        print(digest(*result), label)
