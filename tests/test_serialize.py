import copy
import dataclasses
import json

import numpy as np
import pytest

from symidx import serialize
from symidx.catalog import from_name, round_sphere, so4_so2
from symidx.cli import main
from symidx.homspace import (
    JacobiSpectrum,
    jacobi_operator,
    symmetry_ideal,
    transvection_space,
)
from symidx.liealg import Subspace, canonical_basis
from symidx.serialize import (
    SpaceFormatError,
    load_space,
    plain,
    space_from_dict,
    space_to_dict,
    spectrum_to_dict,
    to_json,
)


def two_sphere_document():
    return {
        "algebra": "so3",
        "isotropy": [[0.0, 0.0, 1.0]],
        "complement": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
        "metric": [[1.0, 0.0], [0.0, 1.0]],
        "label": "S^2 by hand",
    }


def test_space_from_dict_with_preset_algebra():
    sp = space_from_dict(two_sphere_document())
    assert sp.dim == 2
    assert sp.label == "S^2 by hand"
    assert transvection_space(sp).index == 2


def test_round_trip_through_the_dict_layout():
    sp, _ = so4_so2(0.5, 0.6)
    back = space_from_dict(space_to_dict(sp))
    assert back.dim == sp.dim
    np.testing.assert_allclose(back.metric.gram, sp.metric.gram)
    assert back.isotropy.equals(sp.isotropy)
    r1, r2 = transvection_space(sp), transvection_space(back)
    assert (r1.index, r1.coindex) == (r2.index, r2.coindex)


def test_inline_algebra_documents_work():
    sp, _ = round_sphere(2)
    doc = space_to_dict(sp)
    assert not isinstance(doc["algebra"], str)
    back = space_from_dict(doc)
    assert back.algebra.basis_labels == sp.algebra.basis_labels


def test_schema_violation_reports_a_pointer():
    doc = two_sphere_document()
    doc["isotropy"] = [[0.0, 0.0, "x"]]
    with pytest.raises(SpaceFormatError) as err:
        space_from_dict(doc)
    assert err.value.pointer == "/isotropy/0/2"


def test_missing_required_field():
    doc = two_sphere_document()
    del doc["metric"]
    with pytest.raises(SpaceFormatError, match="metric"):
        space_from_dict(doc)


def test_unknown_fields_are_rejected():
    doc = two_sphere_document()
    doc["curvature"] = 1.0
    with pytest.raises(SpaceFormatError, match="curvature"):
        space_from_dict(doc)


def test_wrong_vector_length_is_a_format_error():
    doc = two_sphere_document()
    doc["isotropy"] = [[0.0, 1.0]]
    with pytest.raises(SpaceFormatError, match="3 entries"):
        space_from_dict(doc)


def _s3_on_so4_document():
    return {
        "algebra": "so4",
        "isotropy": [[0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0],
                     [0, 0, 0, 0, 0, 1]],
        "complement": [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0],
                       [0, 0, 1, 0, 0, 0]],
        "metric": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    }


def _inline_two_sphere_document():
    return json.loads(json.dumps(space_to_dict(round_sphere(2)[0])))


def _with(document, path, value):
    node = document
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return document


@pytest.mark.parametrize("build, path, value, pointer, message", [
    (_s3_on_so4_document, ("isotropy",),
     [[0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1]], "/isotropy/1", "6 entries"),
    (_s3_on_so4_document, ("complement", 2), [0, 0, 1, 0, 0, 0, 0],
     "/complement/2", "6 entries"),
    (two_sphere_document, ("metric",), [[1, 0], [0]], "/metric/1",
     "square"),
    (two_sphere_document, ("metric",), [[1, 0, 0], [0, 1, 0]], "/metric/0",
     "square"),
    (_inline_two_sphere_document, ("algebra", "structure"), [[[0.0]]],
     "/algebra/structure", r"shape \(3, 3, 3\)"),
    (_inline_two_sphere_document, ("algebra", "structure", 2, 1),
     [0.0, 0.0], "/algebra/structure/2/1", r"shape \(3, 3, 3\)"),
    (_inline_two_sphere_document, ("algebra", "labels"), ["a", "b"],
     "/algebra/labels", "3 labels"),
], ids=["ragged-isotropy", "long-complement-row", "ragged-metric",
        "2x3-metric", "structure-1x1x1", "short-structure-row", "labels"])
def test_malformed_shapes_are_format_errors(tmp_path, capsys, build, path,
                                            value, pointer, message):
    """Shapes the schema cannot express are refused with a pointer to the
    first array of the wrong length, and the CLI exits with 2."""
    document = _with(build(), path, value)
    with pytest.raises(SpaceFormatError, match=message) as err:
        space_from_dict(document)
    assert err.value.pointer == pointer
    file = tmp_path / "shape.json"
    file.write_text(json.dumps(document))
    assert main(["index", "--space", str(file)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {pointer}: ")


def test_empty_arrays_keep_their_shape():
    document = two_sphere_document()
    document["isotropy"] = []
    with pytest.raises(ValueError, match="do not add up"):
        space_from_dict(document)


def test_math_failures_stay_plain_value_errors():
    doc = two_sphere_document()
    doc["metric"] = [[1.0, 0.0], [0.0, -1.0]]
    with pytest.raises(ValueError, match="positive definite") as err:
        space_from_dict(doc)
    assert not isinstance(err.value, SpaceFormatError)


def test_load_space_from_file(tmp_path):
    path = tmp_path / "s2.json"
    path.write_text(json.dumps(two_sphere_document()))
    assert load_space(str(path)).dim == 2


def test_load_space_reports_json_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"algebra": "so3",\n}')
    with pytest.raises(SpaceFormatError, match=r"line 2, column 1"):
        load_space(str(path))


def test_load_space_rejects_non_object(tmp_path):
    path = tmp_path / "arr.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(SpaceFormatError, match="top level"):
        load_space(str(path))


def test_report_dicts_are_json_ready():
    sp, _ = so4_so2(0.5, 0.6)
    rep = plain(transvection_space(sp))
    assert rep["index"] == 2 and rep["coindex"] == 3
    bound = plain(symmetry_ideal(sp))
    assert bound["equality"] is True
    assert (bound["lhs"], bound["rhs"], bound["k"]) == (12, 12, 3)
    spec = spectrum_to_dict(jacobi_operator(sp, np.array([0, 1, 0, 0, 1, 0.0])))
    assert spec["psd_ok"] is True
    # everything must survive a JSON encoding unchanged
    for payload in (rep, bound, spec):
        json.loads(json.dumps(payload))


@pytest.mark.parametrize("decide", [transvection_space, symmetry_ideal])
def test_plain_prints_a_report_by_its_fields(decide):
    """Exactly the report's dataclass fields, each subspace by the canonical
    basis of its span: another basis of the same span prints the same."""
    sp, _ = so4_so2(0.3, 1.2, 0.7)
    report = decide(sp)
    out = plain(report)
    names = [field.name for field in dataclasses.fields(report)]
    assert sorted(out) == sorted(names)
    mix = np.random.default_rng(6).standard_normal((sp.algebra.dim,) * 2)
    for name in names:
        value = getattr(report, name)
        if isinstance(value, Subspace):
            other = Subspace(value.ambient_dim,
                             value.basis @ mix[:value.dim, :value.dim])
            assert out[name] == plain(other) == {
                "ambient_dim": value.ambient_dim, "dim": value.dim,
                "basis": canonical_basis(value.onb()).T.tolist()}
        else:
            assert out[name] == value
            assert type(out[name]) in (int, bool)
    assert json.loads(json.dumps(out)) == out


def test_an_integral_float_dim_loads_as_an_integer():
    """Draft 2020-12 counts 3.0 as an integer, so the document is valid,
    and the space it loads prints ``"dim": 3``."""
    doc = json.loads(json.dumps(space_to_dict(round_sphere(2)[0])))
    doc["algebra"]["dim"] = 3.0
    out = space_to_dict(space_from_dict(doc))
    assert type(out["algebra"]["dim"]) is int
    assert '{"dim": 3, ' in json.dumps(out["algebra"])


@pytest.mark.parametrize("field, token", [
    ("structure", "NaN"),
    ("isotropy", "Infinity"),
    ("complement", "-Infinity"),
    ("metric", "NaN"),
])
def test_load_space_refuses_non_finite_numbers(tmp_path, field, token):
    """Python's json reads NaN and +-Infinity; JSON has neither.  Let
    through, they failed much later as an SVD that did not converge, a
    rank-deficient isotropy or an indefinite metric."""
    doc = space_to_dict(round_sphere(2)[0])
    rows = doc["algebra"]["structure"][0] if field == "structure" \
        else doc[field]
    rows[0][-1] = "TOKEN"
    path = tmp_path / "nonfinite.json"
    path.write_text(json.dumps(doc).replace('"TOKEN"', token))
    with pytest.raises(SpaceFormatError, match=f"non-finite number {token}"):
        load_space(str(path))


@pytest.mark.parametrize("field, value, pointer", [
    ("structure", float("nan"), "/algebra/structure/0/0/2"),
    ("isotropy", float("inf"), "/isotropy/0/2"),
    ("complement", -float("inf"), "/complement/0/2"),
    ("metric", float("nan"), "/metric/0/1"),
])
def test_space_from_dict_refuses_non_finite_numbers(field, value, pointer):
    """A document built in Python can hold NaN or +-inf, which no JSON
    parse refused; they used to fail later as an SVD that did not
    converge or an indefinite metric."""
    doc = space_to_dict(round_sphere(2)[0])
    rows = doc["algebra"]["structure"][0] if field == "structure" \
        else doc[field]
    rows[0][-1] = value
    with pytest.raises(SpaceFormatError, match="non-finite number") as err:
        space_from_dict(doc)
    assert err.value.pointer == pointer


@pytest.mark.parametrize("field, pointer", [
    ("structure", "/algebra/structure/0/0/2"), ("isotropy", "/isotropy/0/2"),
    ("complement", "/complement/0/2"), ("metric", "/metric/0/1")])
def test_an_integer_beyond_the_float_range_is_pointed_at(tmp_path, field,
                                                         pointer):
    """JSON integers have no range and Python's json keeps them exact: one
    of 400 digits ended ``index`` in a traceback, numpy's OverflowError."""
    doc = space_to_dict(round_sphere(2)[0])
    rows = doc["algebra"]["structure"][0] if field == "structure" \
        else doc[field]
    rows[0][-1] = -10 ** 400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code = main(["index", "--space", str(path)])
    with pytest.raises(SpaceFormatError, match="integer beyond the range of "
                       "a float; every entry must be a finite number") as err:
        load_space(str(path))
    assert (code, err.value.pointer) == (2, pointer)


@pytest.mark.parametrize("value", [5, 2.5, None, True, [1.0]])
def test_algebra_of_neither_kind_reports_one_message(value):
    doc = two_sphere_document()
    doc["algebra"] = value
    with pytest.raises(SpaceFormatError) as err:
        space_from_dict(doc)
    assert str(err.value) == (
        f"/algebra: {value!r} is not valid under any of the given schemas")


def test_a_wrong_entry_in_an_inline_algebra_is_pointed_at():
    """The ``algebra`` of a document is an object or a string, and an
    object can only be an inline algebra: a wrong entry in one is refused
    at its own place, not with the repr of the whole algebra, which for
    so(12)/so(11) ran to over a million characters."""
    doc = json.loads(json.dumps(space_to_dict(round_sphere(11)[0])))
    doc["algebra"]["structure"][5][7][3] = True
    with pytest.raises(SpaceFormatError) as err:
        space_from_dict(doc)
    assert str(err.value) == (
        "/algebra/structure/5/7/3: True is not of type 'number'")


# -- the schema walker against jsonschema, the reference implementation ----

def _stock_error(document):
    """(text, pointer) of the first error of jsonschema's own validator, as
    SpaceFormatError would render it, or None for a valid document.  An
    ``anyOf`` error stands for the first error, by path, of its branch of
    the instance's type when only one branch has that type."""
    import jsonschema

    schema = serialize._space_schema()
    validator = jsonschema.Draft202012Validator(schema)

    def branch_type(branch):
        if "$ref" in branch:
            branch = schema["$defs"][branch["$ref"].rsplit("/", 1)[1]]
        return branch["type"]

    def stand_in(error):
        if error.validator != "anyOf":
            return error
        fits = [i for i, branch in enumerate(error.validator_value)
                if validator.is_type(error.instance, branch_type(branch))]
        if len(fits) != 1:
            return error
        return min((e for e in error.context
                    if e.relative_schema_path[0] == fits[0]),
                   key=lambda e: list(e.absolute_path))

    errors = sorted(map(stand_in, validator.iter_errors(document)),
                    key=lambda e: list(e.absolute_path))
    if not errors:
        return None
    first = errors[0]
    pointer = "/" + "/".join(str(part) for part in first.absolute_path)
    return f"{pointer}: {first.message}", pointer


def _fast_error(document):
    try:
        serialize._validate(document)
    except SpaceFormatError as exc:
        return str(exc), exc.pointer
    return None


def _containers(node):
    """Every dict and list under node, node included."""
    if isinstance(node, (dict, list)):
        yield node
        for child in node.values() if isinstance(node, dict) else node:
            yield from _containers(child)


def _replacement(rng):
    choices = [
        True, False, "x", None, 1, 0, -3, np.float64(0.25),
        np.float32(1.5), np.int64(2), "so3",
        [], [1.0, [2.0]], [[1.0], [2.0, 3.0]], {"a": 1.0}, {},
    ]
    return choices[rng.integers(len(choices))]


def _mutate(document, rng):
    doc = copy.deepcopy(document)
    for _ in range(int(rng.integers(1, 3))):
        spots = list(_containers(doc))
        node = spots[rng.integers(len(spots))]
        if isinstance(node, dict):
            keys = sorted(node)
            roll = rng.integers(5)
            if roll == 0 and keys:
                del node[keys[rng.integers(len(keys))]]
            elif roll == 1:
                node["extra"] = _replacement(rng)
            elif keys:
                node[keys[rng.integers(len(keys))]] = _replacement(rng)
        else:
            roll = rng.integers(4)
            if roll == 0 and node:  # ragged: one entry short
                node.pop()
            elif roll == 1:  # ragged: one entry long
                node.append(1.0 if rng.integers(2) else [1.0])
            elif node:
                node[rng.integers(len(node))] = _replacement(rng)
    return doc


def _differential_documents():
    names = ["round-sphere:2", "so4-so2:0.5,0.8", "so4-so2:0.3,1.2,0.7",
             "spin3:1,2,3", "product-spheres:0.5", "cp2-centriole"]
    docs = [json.loads(json.dumps(space_to_dict(from_name(name)[0])))
            for name in names]
    inline = space_to_dict(round_sphere(4)[0])  # so(5)/so(4), dim 10
    del inline["complement"]
    docs.append(json.loads(json.dumps(inline)))
    docs.append(two_sphere_document())
    return docs


def test_validation_agrees_with_the_stock_validator():
    """Seeded mutations of emitted documents get the same verdict from the
    walker as from jsonschema's own Draft 2020-12 validator, and the same
    first message and pointer when they are invalid.  True is the case to
    watch: bool is an int subclass but not a JSON number.  Every emitted
    document, one per catalog template and an inline so(5)/so(4) without
    its complement among them, is valid."""
    rng = np.random.default_rng(20260)
    seen = {"valid": 0, "invalid": 0}
    for document in _differential_documents():
        assert _fast_error(document) is None is _stock_error(document)
        for _ in range(30):
            mutated = _mutate(document, rng)
            want = _stock_error(mutated)
            assert _fast_error(mutated) == want
            seen["valid" if want is None else "invalid"] += 1
    assert seen["valid"] >= 50 and seen["invalid"] >= 100


@pytest.mark.parametrize("where, value", [
    (("algebra", "structure", 1, 2, 0), True),
    (("algebra", "structure", 1, 2, 0), False),
    (("algebra", "structure", 1, 2, 0), None),
    (("algebra", "structure", 1, 2, 0), "1.0"),
    (("algebra", "structure", 1, 2, 0), [1.0]),
    (("algebra", "structure", 1, 2), 1.0),
    (("algebra", "labels"), [1.0, 2.0, 3.0]),
    (("metric", 0), [True, 0.0]),
    (("label",), 1.0),
    (("algebra", "convention_note"), ["so(3)"]),
    ([("zeta",), ("alpha",)], 1.0),
    (("algebra", "extra"), 1.0),
    (("algebra",), 5),
    (("algebra",), [1.0]),
    (("metric", 0, 0), np.float64(2.0)),
    (("algebra", "structure", 1, 2, 0), np.float32(0.5)),
])
def test_placed_defects_agree_with_the_stock_validator(where, value):
    """``value`` placed at ``where``, or at each of a list of places.
    Beyond ``_mutate``'s defects: two unexpected keys at the top level,
    which the message sorts; an unexpected key in an inline algebra; an
    algebra of neither kind; and numpy floats, which are numbers, so the
    document stays valid."""
    sp, _ = round_sphere(2)
    doc = json.loads(json.dumps(space_to_dict(sp)))
    for path in where if isinstance(where, list) else [where]:
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    want = _stock_error(doc)
    assert _fast_error(doc) == want
    assert (want is None) == isinstance(value, np.floating)


@pytest.mark.parametrize("change", [
    {"dim": 3.0}, {"dim": np.int64(3)}, {"dim": True}, {"dim": -1}])
def test_the_accept_check_leaves_doubtful_algebras_to_jsonschema(change):
    """Draft 2020-12's integer: a ``dim`` of 3.0 is one, and a numpy
    integer, a bool and a negative number are refused, with jsonschema's
    verdict and message in each case."""
    doc = json.loads(json.dumps(space_to_dict(round_sphere(2)[0])))
    doc["algebra"].update(change)
    assert _fast_error(doc) == _stock_error(doc)


def test_number_arrays_under_further_keywords_are_walked_entry_by_entry():
    """The walker's fast leaf skips the walk into rows, so it must not
    take a schema whose rows or numbers carry further keywords; those
    arrays are walked entry by entry and get jsonschema's errors."""
    import jsonschema

    row = {"type": "array", "items": {"type": "number"}}
    assert serialize._numbers_only([[1.0, 2]], row)
    assert not serialize._numbers_only([[1.0]], dict(row, minItems=2))
    positive = {"type": "number", "minimum": 0}
    assert not serialize._numbers_only([1.0], positive)
    schema = {"type": "array", "items": {"type": "array", "items": positive}}
    instance = [[1.0, -2.0], [True, -0.5]]
    want = [(tuple(e.absolute_path), e.message) for e in
            jsonschema.Draft202012Validator(schema).iter_errors(instance)]
    assert list(serialize._errors(instance, schema)) == want
    assert [path for path, _ in want] == [(0, 1), (1, 0), (1, 1)]


def test_a_spectrum_prints_each_cluster_by_one_value():
    """Eigenvalues within CHECK_TOL of the one before print as one value,
    the median of their run, with its multiplicity, never as -0.0; the
    eigenvector rows stay one per eigenvalue, and the spectrum keeps every
    value.  The round S^4 prints its eigenvalue 1 once."""
    w = np.array([-0.0, -0.0, 1 / 6 - 1e-15, 1 / 6, 1 / 6 + 2e-15, 2.0])
    spectrum = JacobiSpectrum(
        direction=np.eye(6)[0], operator=np.diag(w), eigenvalues=w.copy(),
        eigenvectors=np.eye(6), psd_ok=True, selfadjoint_residual=0.0)
    printed = spectrum_to_dict(spectrum)
    assert printed["eigenvalues"] == [0.0, 1 / 6, 2.0]
    assert printed["multiplicities"] == [2, 3, 1]
    assert len(printed["eigenvectors"]) == 6
    assert "-0.0" not in json.dumps(printed)
    np.testing.assert_array_equal(spectrum.eigenvalues, w)
    sphere = round_sphere(4)[0]
    printed = spectrum_to_dict(jacobi_operator(sphere, sphere.m_basis[:, 0]))
    assert printed["multiplicities"] == [1, 3]
    np.testing.assert_allclose(printed["eigenvalues"], [0.0, 1.0], atol=1e-12)


_FLOATS = (-0.0, 0.0, 5e-324, 1e16, 1e22, 0.1, 1.5, -2.75e-7,
           float("nan"), float("inf"), float("-inf"))
_SCALARS = (True, False, None, 0, -3, 2 ** 70, "", "plain", "é\u2603",
            "\x00\n\t\"\\\x1f")
_KEYS = ("a", "b", "Z", "", "é", "ключ", "\x00\n\t", "\x7f\"\\")
_EMPTIES = ([], {}, (), [[]], [{}], {"a": []}, [(), [[]]])


def _random_payload(rng, depth: int = 0):
    """A nested value of depth at most 4 from the types ``json.dumps``
    prints: float rows (with numpy scalars mixed in), lists, tuples, dicts
    with str or int keys, scalars and empty containers."""
    kind = int(rng.integers(8 if depth < 4 else 3))
    if kind == 0:
        return _FLOATS[rng.integers(len(_FLOATS))]
    if kind == 1:
        return _SCALARS[rng.integers(len(_SCALARS))]
    if kind == 2:  # a row of floats, numpy ones among them
        row = [float(x) for x in rng.normal(size=rng.integers(1, 6))
               * 10.0 ** rng.integers(-30, 30)]
        for _ in range(rng.integers(3)):
            i = rng.integers(len(row))
            row[i] = (_FLOATS[rng.integers(len(_FLOATS))] if rng.random() < 0.6
                      else np.float64(row[i]) if rng.random() < 0.8
                      else np.int64(7))
        return row
    if kind == 3:
        return _EMPTIES[rng.integers(len(_EMPTIES))]
    items = [_random_payload(rng, depth + 1)
             for _ in range(rng.integers(1, 4))]
    if kind == 4:
        return items
    if kind == 5:
        return tuple(items)
    if kind == 6:
        return {_KEYS[k]: item for k, item in zip(
            rng.permutation(len(_KEYS)), items)}
    return {int(k): item for k, item in zip(rng.integers(-9, 9, 3), items)}


def _printed(value):
    """``to_json`` and ``json.dumps``'s result, or the TypeError raised."""
    outcomes = []
    for write in (to_json, lambda v: json.dumps(v, indent=2, sort_keys=True)):
        try:
            outcomes.append(write(value))
        except TypeError as exc:
            outcomes.append((TypeError, str(exc)))
    return outcomes


def test_to_json_prints_what_json_dumps_prints():
    """On 600 seeded random payloads, ``to_json`` gives the text of
    ``json.dumps(value, indent=2, sort_keys=True)``, or the same TypeError;
    most of them print."""
    rng = np.random.default_rng(20261019)
    printed = 0
    for _ in range(600):
        ours, stdlib = _printed(_random_payload(rng))
        assert ours == stdlib
        printed += isinstance(ours, str)
    assert printed > 450


@pytest.mark.parametrize("value", [
    np.bool_(True), {1, 2}, {"a": 1.0, 2: 3.0}, [0.5, np.float32(1.0)],
    [1.0, {"b": [np.int64(3)]}], {"x": (1, frozenset())}],
    ids=["np.bool_", "set", "mixed-keys", "float32-in-row", "nested-int64",
         "nested-frozenset"])
def test_to_json_refuses_what_json_dumps_refuses(value):
    ours, stdlib = _printed(value)
    assert ours == stdlib and ours[0] is TypeError
