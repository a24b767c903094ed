"""The JSON layouts of algebras, spaces and reports, known nowhere else.

A space is an algebra (a preset name, or inline ``dim``, ``labels`` and
structure constants), isotropy and complement bases as lists of
coefficient vectors, and a Gram matrix in complement coordinates.
:func:`plain` prints a dataclass instance, such as a report, by its
fields; only a Jacobi spectrum has a layout of its own.  Input documents are
validated against the shipped JSON Schema before any numerics run; a
violation raises :class:`SpaceFormatError` with a JSON pointer to the
offending element.

One walker, :func:`_errors`, reads the shipped schema and gives each
error with jsonschema's Draft 2020-12 message and path (but see there
for an inline algebra), so no JSON Schema library is needed at run time.
Validation is linear in the size of the document: an array of numbers,
however deeply nested, costs one type test per number, and only an
array that test does not accept is walked entry by entry.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import numbers
from importlib import resources

import numpy as np

from .homspace import HomogeneousSpace, JacobiSpectrum
from .liealg import (
    DEFAULT_TOL,
    BilinearForm,
    LieAlgebra,
    Subspace,
    canonical_basis,
    preset,
)


class SpaceFormatError(ValueError):
    """A document failed schema validation or cannot be parsed."""

    def __init__(self, message: str, pointer: str = ""):
        super().__init__(f"{pointer or '/'}: {message}" if pointer
                         else message)
        self.pointer = pointer or "/"


@functools.cache
def _space_schema() -> dict:
    return json.loads(resources.files("symidx.schemas")
                      .joinpath("space.schema.json").read_text())


_TYPES = {"number": numbers.Number, "integer": int, "array": list,
          "object": dict, "string": str}


def _numbers_only(instance: list, items_schema) -> bool:
    """Whether every entry of ``instance`` passes ``items_schema`` when that
    schema is ``{"type": "number"}`` or arrays of arrays ending in it, at
    one type test per number.  False means "not decided here", not
    "invalid": types are matched exactly, so bool, an int subclass, and
    numpy scalars are left to the walk in :func:`_errors`.
    """
    while items_schema != {"type": "number"}:
        if not (isinstance(items_schema, dict)
                and items_schema.keys() == {"type", "items"}
                and items_schema["type"] == "array"
                and set(map(type, instance)) <= {list}):
            return False
        items_schema = items_schema["items"]
        instance = list(itertools.chain.from_iterable(instance))
    return set(map(type, instance)) <= {float, int}


def _is_type(instance, name: str) -> bool:
    """Draft 2020-12's type test for the types the schemas name: bool is
    none of them, and an integral float is an integer."""
    if isinstance(instance, bool):
        return False
    if name == "integer" and isinstance(instance, float):
        return instance.is_integer()
    return isinstance(instance, _TYPES[name])


def _errors(instance, schema: dict, path: tuple = ()):
    """``(path, message)`` of each error of ``instance`` under ``schema``, in
    the order and wording of jsonschema's Draft 2020-12 validator, but an
    ``anyOf`` with one branch of the instance's type gives that branch's
    errors: a wrong entry of an inline algebra is named, not the algebra.

    Reads the keywords the shipped schemas use; ``additionalProperties``
    is only ever false there, ``$ref`` points into the space schema, and
    each branch of an ``anyOf`` names its type.
    """
    for keyword, value in schema.items():
        if keyword == "type" and not _is_type(instance, value):
            yield path, f"{instance!r} is not of type {value!r}"
        elif keyword == "minimum" and _is_type(instance, "number") \
                and instance < value:
            yield path, f"{instance!r} is less than the minimum of {value!r}"
        elif keyword == "required" and isinstance(instance, dict):
            for name in value:
                if name not in instance:
                    yield path, f"{name!r} is a required property"
        elif keyword == "additionalProperties" and isinstance(instance, dict):
            extras = sorted(set(instance).difference(schema["properties"]),
                            key=str)
            if extras:
                names = ", ".join(map(repr, extras))
                verb = "was" if len(extras) == 1 else "were"
                yield path, ("Additional properties are not allowed "
                             f"({names} {verb} unexpected)")
        elif keyword == "properties" and isinstance(instance, dict):
            for name, sub in value.items():
                if name in instance:
                    yield from _errors(instance[name], sub, path + (name,))
        elif keyword == "items" and isinstance(instance, list) \
                and not _numbers_only(instance, value):
            for i, entry in enumerate(instance):
                yield from _errors(entry, value, path + (i,))
        elif keyword == "anyOf":
            fits = [sub for sub in map(_resolved, value)
                    if _is_type(instance, sub["type"])]
            if len(fits) == 1:
                yield from _errors(instance, fits[0], path)
            elif all(any(_errors(instance, sub, path)) for sub in value):
                yield path, (f"{instance!r} is not valid under any of the "
                             "given schemas")
        elif keyword == "$ref":
            yield from _errors(instance, _resolved(schema), path)


def _resolved(schema: dict) -> dict:
    """``schema``, or what its ``$ref`` names in the space schema."""
    ref = schema.get("$ref")
    return functools.reduce(dict.__getitem__, ref[2:].split("/"),
                            _space_schema()) if ref else schema


def _validate(document: dict):
    """Raise :class:`SpaceFormatError` at the error with the smallest path,
    unless the space schema accepts ``document``."""
    first = min(_errors(document, _space_schema()),
                key=lambda error: error[0], default=None)
    if first:
        path, message = first
        raise SpaceFormatError(message, "/" + "/".join(map(str, path)))


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
    if not np.isfinite(arr).all():
        bad = np.argwhere(~np.isfinite(arr))
        raise SpaceFormatError(
            f"non-finite number {arr[tuple(bad[0])]}; every entry must be "
            f"a finite number", pointer + "".join(f"/{i}" for i in bad[0]))
    return arr


def _span(rows, ambient: int, what: str) -> Subspace:
    """The span of a document's list of ``what`` vectors."""
    return Subspace(ambient, _float_array(
        rows, (len(rows), ambient), f"/{what}",
        f"each {what} vector must have {ambient} entries").T)


def _algebra(field) -> LieAlgebra:
    """The algebra of a document: a preset name or an inline algebra."""
    if isinstance(field, str):
        return preset(field)[0]
    n = int(field["dim"])  # an integral float such as 3.0 is an integer
    if len(field["labels"]) != n:
        raise SpaceFormatError(
            f"an algebra of dimension {n} needs {n} labels; found "
            f"{len(field['labels'])}", "/algebra/labels")
    structure = _float_array(
        field["structure"], (n, n, n), "/algebra/structure",
        f"the structure tensor of a {n}-dimensional algebra must have shape "
        f"({n}, {n}, {n})")
    return LieAlgebra(n, field["labels"], structure)


def space_from_dict(document: dict, tol: float = DEFAULT_TOL) -> HomogeneousSpace:
    """Build a space from its JSON layout, validating the schema first.

    Math-level failures (bad structure tensor, non-reductive complement,
    indefinite metric) propagate as plain ``ValueError`` from the
    constructors; only format problems, array shapes and non-finite
    numbers among them, raise :class:`SpaceFormatError`.
    """
    _validate(document)
    algebra = _algebra(document["algebra"])
    iso = _span(document["isotropy"], algebra.dim, "isotropy")
    comp = (_span(document["complement"], algebra.dim, "complement")
            if "complement" in document else None)
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
        "algebra": {"dim": sp.algebra.dim,
                    "labels": list(sp.algebra.basis_labels),
                    "structure": sp.algebra.structure.tolist()},
        "isotropy": (sp.isotropy.basis.T + 0.0).tolist(),  # + 0.0: no -0.0
        "complement": (sp.complement.basis.T + 0.0).tolist(),
        "metric": (sp.metric.gram + 0.0).tolist(),
    }
    if sp.label:
        out["label"] = sp.label
    return out


def spectrum_to_dict(spectrum: JacobiSpectrum) -> dict:
    """``spectrum`` with its eigenvectors as rows and without its operator."""
    return {
        "direction": spectrum.direction.tolist(),
        "eigenvalues": spectrum.eigenvalues.tolist(),
        "eigenvectors": spectrum.eigenvectors.T.tolist(),
        "psd_ok": spectrum.psd_ok,
        "selfadjoint_residual": spectrum.selfadjoint_residual,
    }


def plain(value):
    """``value`` as data for ``json.dumps``: a subspace by its
    :func:`canonical_basis`, which the subspace alone determines, any other
    dataclass instance, such as a report or an outcome, by its fields, and
    numpy scalars and arrays as Python ones, at any depth."""
    if isinstance(value, Subspace):
        return {"ambient_dim": value.ambient_dim, "dim": value.dim,
                "basis": canonical_basis(value.onb()).T.tolist()}
    if dataclasses.is_dataclass(value):
        value = vars(value)  # a dataclass's instance dict: its fields
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    return value
