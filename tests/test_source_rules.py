"""Every rank decision of the package goes through ``liealg._sv_cutoff`` on
singular values it holds.  ``np.linalg.lstsq`` and ``np.linalg.matrix_rank``
each take a decomposition of their own under a rank rule of their own
(``rcond``, ``tol``), so no module of the package may name them, and only
the rank primitives of ``liealg`` and ``matrix_algebra`` may name ``svd``,
beside that cutoff.  Likewise one helper holds the curvature psd rule."""

import ast
import pathlib

import symidx

FORBIDDEN = ("lstsq", "matrix_rank")


def named_uses(names) -> list:
    """``file:line name`` of each attribute or name in ``names`` that a
    module of the package uses, imports included."""
    found = []
    for path in sorted(pathlib.Path(symidx.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name)
                    else node.name if isinstance(node, ast.alias) else None)
            if name in names:
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')} "
                             f"{name}")
    return found


def test_no_module_takes_a_second_rank_rule():
    assert named_uses(FORBIDDEN) == []


def test_pairs_come_from_one_enumeration():
    """Basis pairs come from ``liealg.pair_indices`` and the so(n) basis
    order from numpy's triangle indices, not from ``itertools``."""
    assert named_uses(("combinations",)) == []


def test_the_scan_sees_a_use():
    """The scan is not vacuous: it finds the package's own SVD calls."""
    assert any(use.startswith("liealg.py:") for use in named_uses(("svd",)))


def test_only_liealg_takes_a_singular_value_decomposition():
    assert {use.split(":")[0] for use in named_uses(("svd",))} == {"liealg.py"}


SVD_CALLERS = {"numerical_rank", "stacked_kernels", "stacked_spans",
               "stacked_frames", "matrix_algebra"}


def uses_by_function(name: str) -> dict:
    """``file:line`` of each use of ``name`` in the package, imports
    included, keyed by the function that encloses it (None outside any)."""
    found = {}

    def visit(node, path, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = node.name
        if name in (getattr(node, "attr", None), getattr(node, "id", None),
                    node.name if isinstance(node, ast.alias) else None):
            found.setdefault(enclosing, []).append(
                f"{path.name}:{getattr(node, 'lineno', '?')}")
        for child in ast.iter_child_nodes(node):
            visit(child, path, enclosing)

    for path in sorted(pathlib.Path(symidx.__file__).parent.rglob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path, None)
    return found


def test_only_the_rank_primitives_take_a_singular_value_decomposition():
    """A column space, kernel or rank comes from one of the stacked
    primitives, and a new span helper beside them fails here; the scan
    sees every one of them."""
    found = uses_by_function("svd")
    assert set(found) == SVD_CALLERS, found


def test_one_whitened_curvature_psd_rule():
    """A metric is whitened by its Cholesky factor in ``pencil_eigh`` and in
    the one stacked curvature psd rule, and only ``homspace`` takes a
    symmetric spectrum by ``eigvalsh``: the checks of ``verify`` call that
    rule instead of repeating it."""
    found = uses_by_function("cholesky")
    assert {fn: {use.split(":")[0] for use in uses}
            for fn, uses in found.items()} == {
        "pencil_eigh": {"liealg.py"}, "_stacked_psd": {"homspace.py"}}, found
    found = named_uses(("eigvalsh",))
    assert found and {use.split(":")[0] for use in found} == {"homspace.py"}


def printing_uses() -> list:
    """``file:line`` of each use of the name ``dumps`` and each call with an
    ``indent=`` keyword in the package."""
    found = [use.split(" ")[0] for use in named_uses(("dumps",))]
    for path in sorted(pathlib.Path(symidx.__file__).parent.rglob("*.py")):
        found += [f"{path.name}:{node.lineno}"
                  for node in ast.walk(ast.parse(path.read_text(), str(path)))
                  if isinstance(node, ast.Call)
                  and any(kw.arg == "indent" for kw in node.keywords)]
    return found


def test_only_serialize_prints_json():
    """Every command prints its JSON through ``serialize.to_json``, so no
    other module calls ``json.dumps`` or indents by itself; the scan sees
    the writer's fallback."""
    found = printing_uses()
    assert any(use.startswith("serialize.py:") for use in found)
    assert {use.split(":")[0] for use in found} == {"serialize.py"}, found


def imported_names(module: str) -> set:
    """Every dotted part of what the package module ``module`` imports."""
    path = pathlib.Path(symidx.__file__).parent / f"{module}.py"
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            found.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(part for alias in node.names
                         for part in alias.name.split("."))
    return found


def test_serialize_sits_below_the_checks_and_the_commands():
    """The JSON layouts print reports by their fields, so ``serialize``
    needs no module above it: it imports none of the checks, the catalog
    or the command line."""
    names = imported_names("serialize")
    assert {"homspace", "liealg", "json"} <= names  # the scan sees imports
    assert not names & {"verify", "catalog", "numcheck", "cli"}


ANALYSES = {"transvection_space", "symmetry_ideal", "symmetry_ideals",
            "jacobi_operator", "pencil_eigh", "derived_subalgebra",
            "eigenvalue_clusters", "killing_form_positive"}


def test_catalog_builders_only_build():
    """A builder returns its space and construction data, and the checks of
    ``verify`` derive shapes from them, so ``catalog`` imports no analysis;
    the scan sees its ``Subspace`` import."""
    names = imported_names("catalog")
    assert {"homspace", "liealg", "Subspace"} <= names
    assert not names & ANALYSES, names & ANALYSES
