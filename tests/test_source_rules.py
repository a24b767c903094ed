"""Every rank decision of the package goes through ``liealg._sv_cutoff`` on
singular values it holds.  ``np.linalg.lstsq`` and ``np.linalg.matrix_rank``
each take a decomposition of their own under a rank rule of their own
(``rcond``, ``tol``), so no module of the package may name them, and only
the rank primitives of ``liealg`` and ``matrix_algebra`` may name ``svd``,
beside that cutoff.  Likewise one helper holds the curvature psd rule, and
the presentation the metric-free term of the Koszul identity."""

import ast
import inspect
import pathlib
import textwrap

import symidx
from symidx.liealg import Subspace

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
               "matrix_algebra"}


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
    sees every one of them.  A frame that decides nothing is a QR factor,
    and a subspace decides its rank by singular values alone: its
    ``__post_init__`` forms no span, which ``onb`` forms when read."""
    found = uses_by_function("svd")
    assert set(found) == SVD_CALLERS, found
    assert "stacked_frames" in uses_by_function("qr")
    post_init = ast.parse(textwrap.dedent(
        inspect.getsource(Subspace.__post_init__)))
    assert "stacked_spans" not in {getattr(node, "id", getattr(
        node, "attr", None)) for node in ast.walk(post_init)}


def test_one_pivot_curvature_psd_rule():
    """A metric is whitened by its Cholesky factor in ``pencil_eigh`` alone:
    the one stacked curvature psd rule reads the pivots of an elimination
    and takes no factor, inverse or spectrum, and only ``homspace`` takes a
    symmetric spectrum by ``eigvalsh``, in the metric rule: the checks of
    ``verify`` call that psd rule instead of repeating it."""
    found = uses_by_function("cholesky")
    assert {fn: {use.split(":")[0] for use in uses}
            for fn, uses in found.items()} == {"pencil_eigh": {"liealg.py"}}
    for name in ("cholesky", "inv", "eigvalsh", "svd"):
        assert "_stacked_psd" not in uses_by_function(name), name
    found = uses_by_function("eigvalsh")
    assert {fn: {use.split(":")[0] for use in uses}
            for fn, uses in found.items()} == {
        "_metric_refusals": {"homspace.py"}}, found


def test_the_presentation_forms_the_brackets_of_complement_lifts():
    """The metric-free Koszul term is a fact of the presentation: only
    ``Presentation.__init__`` brackets the complement with itself, and
    ``_nablas`` reads it and names no ``brackets``."""
    path = pathlib.Path(symidx.__file__).parent / "homspace.py"
    forming = set()

    def visit(node, enclosing):
        if isinstance(node, ast.FunctionDef):
            enclosing = node.name
        if (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "brackets"
                and [getattr(arg, "id", None) for arg in node.args[1:]]
                == ["m", "m"]):
            forming.add(enclosing)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(ast.parse(path.read_text()), None)
    assert forming == {"__init__"}
    assert "_nablas" not in uses_by_function("brackets")
    assert "_nablas" in uses_by_function("_lift_brackets")


def test_the_presentation_forms_its_facts_eagerly_and_a_part_points_nowhere():
    """``Presentation`` forms every member fact in its constructor: its body
    defines no ``cached_property``, and no part of a stack points back at
    the stack, so no module names ``_stack``.  The scans see a use."""
    path = pathlib.Path(symidx.__file__).parent / "homspace.py"
    cls, = (node for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ClassDef)
            and node.name == "Presentation")
    named = {getattr(node, "attr", getattr(node, "id", None))
             for node in ast.walk(cls)}
    assert "cached_property" not in named and "_lift_brackets" in named
    assert named_uses(("_stack",)) == []
    assert named_uses(("_member",))


def test_verify_reaches_the_stacked_core_by_one_route():
    """Every check of ``verify`` decides its metrics through ``_decided``:
    no other function there names the metric rule, the Koszul derivatives
    or the parallel fields of ``homspace``; the scan sees their import."""
    for name in ("_metric_refusals", "_nablas", "_transvections"):
        found = {fn for fn, uses in uses_by_function(name).items()
                 if any(use.startswith("verify.py:") for use in uses)}
        assert found == {None, "_decided"}, (name, found)


def users(name: str) -> set:
    """``file:function`` of each use of ``name`` in the package, imports
    included (function None outside any)."""
    return {f"{use.split(':')[0]}:{fn}"
            for fn, uses in uses_by_function(name).items() for use in uses}


def test_the_package_chunks_by_one_byte_budget():
    """Every chunked loop of ``liealg`` and ``homspace`` cuts its items with
    ``liealg._chunks``, the one helper that reads the package's one byte
    budget ``_STACK_BYTES``, and each chunked stage calls it: no ``range``
    steps through rows, and no other module constant counts bytes, entries
    or rows."""
    constants = set()
    for path in sorted(pathlib.Path(symidx.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        constants |= {f"{path.name}:{target.id}" for node in tree.body
                      if isinstance(node, ast.Assign)
                      for target in node.targets
                      if isinstance(target, ast.Name)}
        if path.name in ("liealg.py", "homspace.py"):
            assert not [node.lineno for node in ast.walk(tree)
                        if isinstance(node, ast.Call)
                        and getattr(node.func, "id", None) == "range"
                        and len(node.args) == 3], path.name
    assert [name for name in constants if name.endswith("_BYTES")] == [
        "liealg.py:_STACK_BYTES"]
    assert not [name for name in constants
                if name.endswith(("_CHUNK", "_ROWS"))]
    assert users("_STACK_BYTES") == {"liealg.py:None", "liealg.py:_chunks"}
    assert users("_chunks") == {
        "liealg.py:jacobi_residual", "liealg.py:matrix_algebra",
        "homspace.py:None", "homspace.py:transvection_stack",
        "homspace.py:_decide_groups", "homspace.py:symmetry_ideals"}


def in_homspace(name: str) -> set:
    """The functions of ``homspace`` that use ``name`` (None outside any)."""
    return {fn for fn, uses in uses_by_function(name).items()
            if any(use.startswith("homspace.py:") for use in uses)}


def test_homspace_reads_a_stacks_members_in_one_loop():
    """Only ``transvection_stack``, per chunk, and ``_unstack``, for the
    reports it builds, gather the members of a stacked presentation, and
    only ``transvection_stack`` states the rule of one metric per member:
    the metric rule, the grouped decisions and the ideals read no member.
    The scan sees the message of that rule."""
    assert in_homspace("_members") == {"transvection_stack", "_unstack"}
    path = pathlib.Path(symidx.__file__).parent / "homspace.py"
    stating = {fn.name for fn in ast.walk(ast.parse(path.read_text()))
               if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn) if isinstance(node, ast.Constant)
               and "metric per member" in str(node.value)}
    assert stating == {"transvection_stack"}


def test_the_sweep_gathers_no_members():
    """``Presentation`` alone decides which positions of a stack share a
    member: the sweep hands it one complement per point and reads no
    member."""
    assert not [use for use in named_uses(("_members", "_place"))
                if use.startswith("cli.py:")]


def test_only_the_presentation_reads_its_positions():
    """A stack's position index ``_place`` is read by methods of
    ``Presentation`` alone: every other reader asks its ``_size`` or reads
    it by position through ``_members``.  The scan sees the reads inside."""
    inside, outside = set(), set()

    def visit(node, path, cls, fn):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        if isinstance(node, ast.FunctionDef):
            fn = node.name
        if getattr(node, "attr", None) == "_place":
            (inside if cls == "Presentation" else outside).add(
                f"{path.name}:{fn}")
        for child in ast.iter_child_nodes(node):
            visit(child, path, cls, fn)

    for path in sorted(pathlib.Path(symidx.__file__).parent.rglob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path, None, None)
    assert "homspace.py:_members" in inside
    assert outside == set(), outside


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
