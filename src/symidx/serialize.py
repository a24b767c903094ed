"""JSON layouts for spaces and reports.

Spaces are stored as an algebra (inline structure constants or a preset
name), isotropy and complement bases given as lists of coefficient
vectors, and a Gram matrix in complement coordinates.  Input documents
are validated against the shipped JSON Schemas before any numerics run;
schema violations raise :class:`SpaceFormatError` carrying a JSON pointer
to the offending element.

Validation is linear in the size of the document.  The validator is
built once per schema, and its ``items`` keyword accepts an array of
numbers, however deeply nested, with one type test per number instead
of jsonschema's walk through every element; any array that test does
not accept is handed to that walk, so invalid documents get jsonschema's
own errors.  On so(12)/so(11), with 287 496 structure constants, this
takes validation from about 1.5 s to about 36 ms.
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
    Subspace,
    algebra_from_dict,
    algebra_to_dict,
    preset,
)
from .verify import VerificationOutcome


class SpaceFormatError(ValueError):
    """A document failed schema validation or cannot be parsed."""

    def __init__(self, message: str, pointer: str = ""):
        super().__init__(f"{pointer or '/'}: {message}" if pointer
                         else message)
        self.pointer = pointer or "/"


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


@functools.cache
def _validator(schema_name: str):
    """Draft 2020-12 validator for a shipped schema, built once per name.

    Its ``items`` keyword accepts an array of numbers, or nested arrays
    ending in numbers, with one type test per number.  Anything that test
    does not accept goes to jsonschema's own ``items``, so every document
    gets the same verdict and, when invalid, the same errors as with the
    stock validator.
    """
    # imported here: jsonschema takes tens of milliseconds to import, and
    # only commands that read documents need it
    import jsonschema

    stock = jsonschema.Draft202012Validator.VALIDATORS["items"]

    def items(validator, items_schema, instance, schema):
        if (type(instance) is list and "prefixItems" not in schema
                and _numbers_only(instance, items_schema)):
            return
        yield from stock(validator, items_schema, instance, schema)

    cls = jsonschema.validators.extend(jsonschema.Draft202012Validator,
                                       {"items": items})
    return cls(_load_schema(schema_name))


def _validate(document: dict, schema_name: str):
    errors = sorted(_validator(schema_name).iter_errors(document),
                    key=lambda e: list(e.absolute_path))
    if errors:
        first = errors[0]
        pointer = "/" + "/".join(str(part) for part in first.absolute_path)
        raise SpaceFormatError(first.message, pointer)


def _finite(value, pointer: str) -> np.ndarray:
    """``value`` as a float array; a NaN or infinity, which the schema
    cannot exclude, raises :class:`SpaceFormatError` pointing at it."""
    arr = np.asarray(value, dtype=float)
    bad = np.argwhere(~np.isfinite(arr))
    if bad.size:
        raise SpaceFormatError(
            f"non-finite number {arr[tuple(bad[0])]}; every entry must be "
            f"a finite number", pointer + "".join(f"/{i}" for i in bad[0]))
    return arr


def _vectors_to_basis(rows, ambient: int, what: str) -> np.ndarray:
    arr = _finite(rows, f"/{what}")
    if arr.size == 0:
        return np.zeros((ambient, 0))
    if arr.ndim != 2 or arr.shape[1] != ambient:
        raise SpaceFormatError(
            f"each {what} vector must have {ambient} entries",
            f"/{what}")
    return arr.T


def space_from_dict(document: dict, tol: float = DEFAULT_TOL) -> HomogeneousSpace:
    """Build a space from its JSON layout, validating the schema first.

    Math-level failures (bad structure tensor, non-reductive complement,
    indefinite metric) propagate as plain ``ValueError`` from the
    constructors; only format problems, non-finite numbers among them,
    raise :class:`SpaceFormatError`.
    """
    _validate(document, "space.schema.json")
    algebra_field = document["algebra"]
    if isinstance(algebra_field, str):
        algebra, _ = preset(algebra_field)
    else:
        algebra = algebra_from_dict(dict(algebra_field, structure=_finite(
            algebra_field["structure"], "/algebra/structure")))

    iso = Subspace(algebra.dim,
                   _vectors_to_basis(document["isotropy"], algebra.dim,
                                     "isotropy"))
    comp = None
    if "complement" in document:
        comp = Subspace(algebra.dim,
                        _vectors_to_basis(document["complement"], algebra.dim,
                                          "complement"))
    metric = BilinearForm(_finite(document["metric"], "/metric"))
    return HomogeneousSpace(algebra, iso, metric, complement=comp,
                            label=document.get("label", ""), tol=tol)


def _refuse_non_finite(token: str):
    raise SpaceFormatError(
        f"not valid JSON: non-finite number {token}; every entry must be "
        f"a finite number")


def load_space(path: str, tol: float = DEFAULT_TOL) -> HomogeneousSpace:
    """Read and validate a space document from a file.

    ``NaN``, ``Infinity`` and ``-Infinity``, which Python's ``json`` reads
    by default but JSON does not define, raise :class:`SpaceFormatError`.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            document = json.load(fh, parse_constant=_refuse_non_finite)
        except json.JSONDecodeError as exc:
            raise SpaceFormatError(
                f"not valid JSON: {exc.msg} (line {exc.lineno}, "
                f"column {exc.colno})") from exc
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
    return {"ambient_dim": sub.ambient_dim, "dim": sub.dim,
            "basis": sub.basis.T.tolist()}


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
