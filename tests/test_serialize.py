import copy
import json

import numpy as np
import pytest

from symidx import serialize
from symidx.catalog import from_name, round_sphere, so4_so2
from symidx.homspace import jacobi_operator, symmetry_ideal, transvection_space
from symidx.serialize import (
    SpaceFormatError,
    bound_to_dict,
    load_space,
    space_from_dict,
    space_to_dict,
    spectrum_to_dict,
    transvection_to_dict,
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
    rep = transvection_to_dict(transvection_space(sp))
    assert rep["index"] == 2 and rep["coindex"] == 3
    assert rep["relative_to_supplied_algebra"] is True
    bound = bound_to_dict(symmetry_ideal(sp))
    assert bound["equality"] is True
    assert (bound["lhs"], bound["rhs"], bound["k"]) == (12, 12, 3)
    spec = spectrum_to_dict(jacobi_operator(sp, np.array([0, 1, 0, 0, 1, 0.0])))
    assert spec["psd_ok"] is True
    # everything must survive a JSON encoding unchanged
    for payload in (rep, bound, spec):
        json.loads(json.dumps(payload))


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


@pytest.mark.parametrize("value", [5, 2.5, None, True, [1.0]])
def test_algebra_of_neither_kind_reports_one_message(value):
    doc = two_sphere_document()
    doc["algebra"] = value
    with pytest.raises(SpaceFormatError) as err:
        space_from_dict(doc)
    assert str(err.value) == (
        f"/algebra: {value!r} is not valid under any of the given schemas")


def test_lie_algebra_schema_matches_the_space_schema_definition():
    standalone = serialize._load_schema("lie_algebra.schema.json")
    embedded = serialize._load_schema("space.schema.json")["$defs"][
        "lie_algebra"]
    for key in ("$schema", "$id", "title"):
        standalone.pop(key)
    assert standalone == embedded


# -- the fast number-array path against the stock validator -----------------

def _stock_error(document):
    """(text, pointer) of the first error of jsonschema's own validator, as
    SpaceFormatError would render it, or None for a valid document."""
    import jsonschema

    schema = serialize._load_schema("space.schema.json")
    errors = sorted(
        jsonschema.Draft202012Validator(schema).iter_errors(document),
        key=lambda e: list(e.absolute_path))
    if not errors:
        return None
    first = errors[0]
    pointer = "/" + "/".join(str(part) for part in first.absolute_path)
    return f"{pointer}: {first.message}", pointer


def _fast_error(document):
    try:
        serialize._validate(document, "space.schema.json")
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
    fast path as from jsonschema's own Draft 2020-12 validator, and the
    same first message and pointer when they are invalid.  True is the
    case to watch: bool is an int subclass but not a JSON number."""
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
])
def test_placed_defects_agree_with_the_stock_validator(where, value):
    sp, _ = round_sphere(2)
    doc = json.loads(json.dumps(space_to_dict(sp)))
    node = doc
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    assert _fast_error(doc) == _stock_error(doc) is not None


def test_number_arrays_under_further_keywords_are_left_to_jsonschema():
    """The fast path skips the walk into rows, so it must not take a
    schema whose rows carry keywords it does not check."""
    row = {"type": "array", "items": {"type": "number"}}
    assert serialize._numbers_only([[1.0, 2]], row)
    assert not serialize._numbers_only([[1.0]], dict(row, minItems=2))
    assert not serialize._numbers_only([1.0], {"type": "number",
                                               "minimum": 0})
