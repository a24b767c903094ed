"""JSON layouts for spaces and reports.

Spaces are stored as an algebra (inline structure constants or a preset
name), isotropy and complement bases given as lists of coefficient
vectors, and a Gram matrix in complement coordinates.  Input documents
are validated against the shipped JSON Schemas before any numerics run;
schema violations raise :class:`SpaceFormatError` carrying a JSON pointer
to the offending element.

Validation is linear in the size of the document.  A plain accept check,
:func:`_surely_valid`, decides the documents the schema surely accepts
without importing jsonschema.  Only a document it does not accept goes
to jsonschema, so every error keeps jsonschema's own message and
pointer.  That validator is built once, and its ``items`` keyword
accepts an array of numbers, however deeply nested, with one type test
per number instead of jsonschema's walk through every element; any
array that test does not accept is handed to that walk.  On
so(12)/so(11), with 287 496 structure constants, this takes validation
of an invalid document from about 1.5 s to about 36 ms.
"""

from __future__ import annotations

import functools
import json
from importlib import resources

import numpy as np

from .homspace import (
    BoundReport,
    HomogeneousSpace,
    JacobiSpectrum,
    TransvectionReport,
)
from .liealg import (
    DEFAULT_TOL,
    BilinearForm,
    LieAlgebra,
    Subspace,
    algebra_from_dict,
    algebra_to_dict,
    canonical_basis,
    preset,
)
from .verify import VerificationOutcome


class SpaceFormatError(ValueError):
    """A document failed schema validation or cannot be parsed."""

    def __init__(self, message: str, pointer: str = ""):
        super().__init__(f"{pointer or '/'}: {message}" if pointer
                         else message)
        self.pointer = pointer or "/"


_SPACE_SCHEMA = "space.schema.json"


def _load_schema(name: str) -> dict:
    text = resources.files("symidx.schemas").joinpath(name).read_text()
    return json.loads(text)


_NUMBER_TYPES = frozenset((float, int))


def _numbers_only(instance: list, items_schema) -> bool:
    """Whether every entry of ``instance`` passes ``items_schema`` when that
    schema is ``{"type": "number"}`` or arrays of arrays ending in it.

    False means "not decided here", not "invalid".  Types are matched
    exactly: bool is an int subclass, and numpy scalars are left to
    jsonschema's own type checker.
    """
    if items_schema == {"type": "number"}:
        return set(map(type, instance)) <= _NUMBER_TYPES
    if (isinstance(items_schema, dict)
            and items_schema.keys() == {"type", "items"}
            and items_schema["type"] == "array"):
        inner = items_schema["items"]
        return all(type(row) is list and _numbers_only(row, inner)
                   for row in instance)
    return False


_SPACE_REQUIRED = frozenset(("algebra", "isotropy", "metric"))
_SPACE_KEYS = _SPACE_REQUIRED | {"complement", "label"}
_ALGEBRA_REQUIRED = frozenset(("dim", "labels", "structure"))
_ALGEBRA_KEYS = _ALGEBRA_REQUIRED | {"convention_note"}
_ROW = {"type": "array", "items": {"type": "number"}}
_SLICE = {"type": "array", "items": _ROW}


def _surely_valid(document) -> bool:
    """Whether :data:`_SPACE_SCHEMA` surely accepts ``document``.

    False means "not decided here", not "invalid".  Types are matched
    exactly, as in :func:`_numbers_only`: bool, a float ``dim`` and numpy
    scalars are left to jsonschema.
    """
    if not (type(document) is dict
            and _SPACE_REQUIRED <= document.keys() <= _SPACE_KEYS
            and type(document.get("label", "")) is str
            and all(type(document[key]) is list
                    and _numbers_only(document[key], _ROW)
                    for key in ("isotropy", "complement", "metric")
                    if key in document)):
        return False
    algebra = document["algebra"]
    if type(algebra) is str:
        return True
    return (type(algebra) is dict
            and _ALGEBRA_REQUIRED <= algebra.keys() <= _ALGEBRA_KEYS
            and type(algebra["dim"]) is int and algebra["dim"] >= 0
            and type(algebra["labels"]) is list
            and all(type(label) is str for label in algebra["labels"])
            and type(algebra["structure"]) is list
            and _numbers_only(algebra["structure"], _SLICE)
            and type(algebra.get("convention_note", "")) is str)


@functools.cache
def _validator():
    """Draft 2020-12 validator for :data:`_SPACE_SCHEMA`, built once, for
    the documents :func:`_surely_valid` does not accept.

    Its ``items`` keyword accepts an array of numbers, or nested arrays
    ending in numbers, with one type test per number.  Anything that test
    does not accept goes to jsonschema's own ``items``, so every document
    gets the same verdict and, when invalid, the same errors as with the
    stock validator.
    """
    # imported here: jsonschema takes tens of milliseconds to import, and
    # only documents that the accept check leaves undecided need it
    import jsonschema

    stock = jsonschema.Draft202012Validator.VALIDATORS["items"]

    def items(validator, items_schema, instance, schema):
        if (type(instance) is list and "prefixItems" not in schema
                and _numbers_only(instance, items_schema)):
            return
        yield from stock(validator, items_schema, instance, schema)

    cls = jsonschema.validators.extend(jsonschema.Draft202012Validator,
                                       {"items": items})
    return cls(_load_schema(_SPACE_SCHEMA))


def _validate(document: dict):
    """Raise :class:`SpaceFormatError` at the first error, in document
    order, unless :data:`_SPACE_SCHEMA` accepts ``document``."""
    if _surely_valid(document):
        return
    errors = sorted(_validator().iter_errors(document),
                    key=lambda e: list(e.absolute_path))
    if errors:
        first = errors[0]
        pointer = "/" + "/".join(str(part) for part in first.absolute_path)
        raise SpaceFormatError(first.message, pointer)


def _first_wrong_length(value, shape: tuple, path: tuple = ()):
    """``(path, length, expected)`` of the first list, in document order,
    whose length is not the one ``shape`` asks for at its depth, or None."""
    if len(value) != shape[0]:
        return path, len(value), shape[0]
    if len(shape) > 1:
        for i, row in enumerate(value):
            found = _first_wrong_length(row, shape[1:], path + (i,))
            if found:
                return found
    return None


def _float_array(value, shape: tuple, pointer: str, rule: str) -> np.ndarray:
    """``value``, nested lists of numbers as the schema guarantees, as a
    float array of ``shape``.

    Raises :class:`SpaceFormatError` pointing at the first list of the
    wrong length (``rule`` says what the shape must be), or at the first
    NaN or infinity; the schema can exclude neither.
    """
    try:
        arr = np.asarray(value, dtype=float)
    except ValueError:  # ragged: sibling lists of different lengths
        arr = None
    if arr is None or arr.shape != shape:
        found = _first_wrong_length(value, shape)
        if found:
            path, length, expected = found
            raise SpaceFormatError(
                f"{rule}; found {length} entries where {expected} are "
                f"expected", pointer + "".join(f"/{i}" for i in path))
        # every length is right, so a level is empty and asarray dropped
        # the levels below it
        arr = np.zeros(shape)
    bad = np.argwhere(~np.isfinite(arr))
    if bad.size:
        raise SpaceFormatError(
            f"non-finite number {arr[tuple(bad[0])]}; every entry must be "
            f"a finite number", pointer + "".join(f"/{i}" for i in bad[0]))
    return arr


def _vectors_to_basis(rows, ambient: int, what: str) -> np.ndarray:
    return _float_array(rows, (len(rows), ambient), f"/{what}",
                        f"each {what} vector must have {ambient} entries").T


def _algebra(field) -> LieAlgebra:
    """The algebra of a document: a preset name or an inline algebra."""
    if isinstance(field, str):
        return preset(field)[0]
    n = field["dim"]
    if len(field["labels"]) != n:
        raise SpaceFormatError(
            f"an algebra of dimension {n} needs {n} labels; found "
            f"{len(field['labels'])}", "/algebra/labels")
    structure = _float_array(
        field["structure"], (n, n, n), "/algebra/structure",
        f"the structure tensor of a {n}-dimensional algebra must have shape "
        f"({n}, {n}, {n})")
    return algebra_from_dict(dict(field, structure=structure))


def space_from_dict(document: dict, tol: float = DEFAULT_TOL) -> HomogeneousSpace:
    """Build a space from its JSON layout, validating the schema first.

    Math-level failures (bad structure tensor, non-reductive complement,
    indefinite metric) propagate as plain ``ValueError`` from the
    constructors; only format problems, array shapes and non-finite
    numbers among them, raise :class:`SpaceFormatError`.
    """
    _validate(document)
    algebra = _algebra(document["algebra"])
    iso = Subspace(algebra.dim,
                   _vectors_to_basis(document["isotropy"], algebra.dim,
                                     "isotropy"))
    comp = None
    if "complement" in document:
        comp = Subspace(algebra.dim,
                        _vectors_to_basis(document["complement"], algebra.dim,
                                          "complement"))
    rows = document["metric"]
    metric = BilinearForm(_float_array(rows, (len(rows), len(rows)),
                                       "/metric",
                                       "the metric must be a square matrix"))
    return HomogeneousSpace(algebra, iso, metric, complement=comp,
                            label=document.get("label", ""), tol=tol)


def _refuse_non_finite(token: str):
    raise SpaceFormatError(
        f"not valid JSON: non-finite number {token}; every entry must be "
        f"a finite number")


def load_space(path: str, tol: float = DEFAULT_TOL) -> HomogeneousSpace:
    """Read and validate a space document from a file.

    ``NaN``, ``Infinity`` and ``-Infinity``, which Python's ``json`` reads
    by default but JSON does not define, raise :class:`SpaceFormatError`,
    and so does a file that is not UTF-8.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            document = json.load(fh, parse_constant=_refuse_non_finite)
        except json.JSONDecodeError as exc:
            raise SpaceFormatError(
                f"not valid JSON: {exc.msg} (line {exc.lineno}, "
                f"column {exc.colno})") from exc
        except UnicodeDecodeError as exc:
            raise SpaceFormatError(f"not valid UTF-8: {exc}") from exc
    if not isinstance(document, dict):
        raise SpaceFormatError("top level must be an object")
    return space_from_dict(document, tol)


def space_to_dict(sp: HomogeneousSpace) -> dict:
    out = {
        "algebra": algebra_to_dict(sp.algebra),
        "isotropy": sp.isotropy.basis.T.tolist(),
        "complement": sp.complement.basis.T.tolist(),
        "metric": sp.metric.gram.tolist(),
    }
    if sp.label:
        out["label"] = sp.label
    return out


def subspace_to_dict(sub: Subspace) -> dict:
    """The subspace printed by its :func:`canonical_basis`, which the
    subspace determines whatever basis it was computed in."""
    return {"ambient_dim": sub.ambient_dim, "dim": sub.dim,
            "basis": canonical_basis(sub.onb()).T.tolist()}


def transvection_to_dict(report: TransvectionReport) -> dict:
    return {
        "index": report.index,
        "coindex": report.coindex,
        "dim_transvection": report.dim_transvection,
        "involutive_ok": report.involutive_ok,
        "relative_to_supplied_algebra": report.relative_to_supplied_algebra,
        "p_space": subspace_to_dict(report.p_space),
        "k_space": subspace_to_dict(report.k_space),
        "s_space": subspace_to_dict(report.s_space),
    }


def bound_to_dict(report: BoundReport) -> dict:
    return {
        "k": report.k,
        "lhs": report.lhs,
        "rhs": report.rhs,
        "equality": report.equality,
        "gD": subspace_to_dict(report.gD),
        "g_prime": subspace_to_dict(report.g_prime),
    }


def spectrum_to_dict(spectrum: JacobiSpectrum) -> dict:
    return {
        "direction": spectrum.direction.tolist(),
        "eigenvalues": spectrum.eigenvalues.tolist(),
        "eigenvectors": spectrum.eigenvectors.T.tolist(),
        "psd_ok": spectrum.psd_ok,
        "selfadjoint_residual": spectrum.selfadjoint_residual,
    }


def outcome_to_dict(outcome: VerificationOutcome) -> dict:
    return {
        "check": outcome.check_name,
        "status": outcome.status,
        "provenance": outcome.provenance,
        "expected": _plain(outcome.expected),
        "actual": _plain(outcome.actual),
        "detail": outcome.detail,
        "duration_ms": outcome.duration_ms,
    }


def _plain(value):
    """Recursively convert numpy scalars and arrays for json.dumps."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    return value
