import functools
import json
import os
import pathlib
import re
import runpy
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import symidx
from meaning import assert_same_report, assert_same_spectrum, traced_peak
from output_digests import sphere_document
from symidx.catalog import (
    product_of_spheres,
    round_sphere,
    so4_so2,
    so4_so2_complement,
    so4_so2_gram,
    spin3_berger,
    spin3_metric,
)
from symidx import catalog, cli, homspace, liealg, verify
from symidx.cli import SWEEP_HEADER, main
from symidx.homspace import (
    Presentation,
    jacobi_operator,
    transvection_space,
    transvection_stack,
)
from symidx.liealg import BilinearForm, Subspace, canonical_basis
from symidx.serialize import load_space, plain, space_to_dict


@pytest.fixture
def quotient_file(tmp_path):
    path = tmp_path / "quotient.json"
    path.write_text(json.dumps(space_to_dict(so4_so2(0.5, 0.6)[0])))
    return str(path)


@pytest.fixture
def squashed_file(tmp_path):
    path = tmp_path / "squashed.json"
    path.write_text(json.dumps(space_to_dict(spin3_berger(1.5)[0])))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_all_checks_pass(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    payload = json.loads(out)
    assert all(entry["status"] == "pass" for entry in payload)
    names = {entry["check"] for entry in payload}
    assert "round-sphere-index" in names
    assert len(payload) >= 10


def test_verify_filter_narrows_the_run(capsys):
    code, out, _ = run(capsys, "verify", "--filter", "round")
    assert code == 0
    payload = json.loads(out)
    assert {e["check"] for e in payload} == {"round-sphere-index"}


def test_verify_filter_without_match_fails(capsys):
    code, _, err = run(capsys, "verify", "--filter", "nonexistent")
    assert code == 1
    assert "no check" in err


def test_a_verify_filter_without_match_fails_through_main(capsys):
    """``verify`` raises the ValueError that ``main`` prints, as every
    command but ``catalog emit`` does: one ``error:`` line, exit 1."""
    args = cli.build_parser().parse_args(["verify", "--filter", "nonexistent"])
    with pytest.raises(ValueError, match="^no check matches filter"):
        cli._cmd_verify(args)
    assert run(capsys, "verify", "--filter", "nonexistent") == (
        1, "", "error: no check matches filter 'nonexistent'\n")


def test_verify_takes_no_tolerance(capsys, monkeypatch):
    """verify's checks fix their own tolerances, so it offers no --tol and
    does not read SYMIDX_TOL."""
    code, out, err = run(capsys, "verify", "--filter", "structure",
                         "--tol", "1e-3")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --tol" in err
    monkeypatch.setenv("SYMIDX_TOL", "junk")
    code, out, _ = run(capsys, "verify", "--filter", "structure")
    assert code == 0
    assert [e["check"] for e in json.loads(out)] == [
        "structure-tensor-validation"]


def test_verify_negative_control(capsys, monkeypatch):
    lie_algebra = verify.LieAlgebra

    def corrupted(dim, labels, structure, *args, **kwargs):
        broken = structure.copy()
        broken[0, 1, 2] += 1e-3
        return lie_algebra(dim, labels, broken, *args, **kwargs)

    monkeypatch.setattr(verify, "LieAlgebra", corrupted)
    code, out, _ = run(capsys, "verify", "--filter", "structure")
    assert code == 1
    payload = json.loads(out)
    assert payload[0]["status"] == "fail"


def test_index_reports_the_quotient(capsys, quotient_file):
    code, out, _ = run(capsys, "index", "--space", quotient_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["transvection"]["index"] == 2
    assert payload["transvection"]["coindex"] == 3
    assert payload["transvection"]["dim_transvection"] == 3
    assert payload["bound"]["equality"] is True


def _index_payload(capsys, tmp_path, document, name):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    code, out, _ = run(capsys, "index", "--space", str(path))
    assert code == 0
    assert "-0.0" not in out
    return json.loads(out)


@pytest.mark.parametrize("dim", [0, 0.0])
def test_index_reports_the_point(capsys, tmp_path, dim):
    """The zero-dimensional space is valid under the schema (``minimum: 0``,
    and 0.0 is an integer in Draft 2020-12): index, coindex and both sides
    of the bound are 0."""
    algebra = {"dim": dim, "labels": [], "structure": []}
    payload = _index_payload(capsys, tmp_path, {
        "algebra": algebra, "isotropy": [], "complement": [], "metric": []},
        "point.json")
    report, bound = payload["transvection"], payload["bound"]
    assert (report["index"], report["coindex"]) == (0, 0)
    assert (bound["lhs"], bound["rhs"], bound["equality"]) == (0, 0, True)


#: Traced peak of ``index`` on the inline so(8)/so(7) document: 1.26 MiB
#: measured (numpy 2.4, CPython 3.11), about half of it the parsed
#: document; it was 4.2 MiB while the exact Jacobi sum took products of
#: 2^18 entries and their gathers.
SO8_INDEX_PEAK_MIB = 2


def test_index_of_an_inline_document_stays_within_its_memory(capsys,
                                                             tmp_path):
    """An algebra read from a document runs the exact Jacobi sum, which
    keeps each block of its work within the package's byte budget."""
    path = tmp_path / "so8_so7.json"
    path.write_text(json.dumps(sphere_document(7)))
    assert run(capsys, "index", "--space", str(path))[0] == 0  # imports
    code, peak = traced_peak(lambda: main(["index", "--space", str(path)]))
    assert code == 0 and peak < SO8_INDEX_PEAK_MIB * 2**20


@pytest.mark.parametrize("name", [
    "round-sphere:3", "round-sphere:5", "so4-so2:0.5,0.8",
    "so4-so2:0.3,1.2,0.8", "spin3:1,1,1", "spin3:0.5,1.5,2",
    "product-spheres:1", "cp2-centriole"])
def test_index_builds_the_reference_form_only_to_split_a_proper_ideal(
        capsys, monkeypatch, tmp_path, name):
    """An emitted document carries its algebra inline, so each ``index``
    builds a new algebra: one whose symmetry ideal is 0 or the whole
    algebra builds no reference form, and cp2-centriole, whose ideal is
    a line in u(2), builds one to split it off."""
    path = tmp_path / "space.json"
    path.write_text(run(capsys, "catalog", "emit", name)[1])
    built, build = [], liealg.killing_form_positive
    monkeypatch.setattr(liealg, "killing_form_positive",
                        lambda alg: built.append(alg) or build(alg))
    code, out, _ = run(capsys, "index", "--space", str(path))
    bound = json.loads(out)["bound"]
    proper = 0 < bound["gD"]["dim"] < bound["gD"]["ambient_dim"]
    assert code == 0 and proper == (name == "cp2-centriole")
    assert [set(alg._reference_forms) for alg in built] == (
        [{1e-9}] if proper else [])


@pytest.mark.parametrize("build", [
    lambda: round_sphere(3), lambda: round_sphere(4),
    lambda: so4_so2(0.5, 0.8), lambda: so4_so2(0.3, 0.5, 1.1),
    lambda: product_of_spheres(0.7)])
def test_index_report_is_invariant_under_a_change_of_isotropy_basis(
        capsys, tmp_path, build):
    rng = np.random.default_rng(31)
    doc = space_to_dict(build()[0])
    iso = np.array(doc["isotropy"]).T
    o, r = np.linalg.qr(rng.standard_normal((iso.shape[1],) * 2))
    turned = dict(doc, isotropy=(iso @ (o * np.sign(np.diag(r)))).T.tolist())
    before = _index_payload(capsys, tmp_path, doc, "doc.json")
    after = _index_payload(capsys, tmp_path, turned, "turned.json")
    # index, coindex, dims and bound exactly, subspaces by their projectors
    assert_same_report(before, after)
    for part in ("transvection", "bound"):
        for key, value in before[part].items():
            if isinstance(value, dict):
                # printed by the same canonical rows, not merely the same span
                np.testing.assert_allclose(after[part][key]["basis"],
                                           value["basis"], rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [3, 4])
def test_jacobi_prints_the_unit_cluster_by_its_canonical_basis(
        capsys, tmp_path, n):
    path = tmp_path / "sphere.json"
    path.write_text(json.dumps(space_to_dict(round_sphere(n)[0])))
    for direction in range(n):
        code, out, _ = run(capsys, "jacobi", "--space", str(path),
                           "--direction", str(direction))
        assert code == 0
        payload = json.loads(out)
        assert_same_spectrum(payload["eigenvalues"], [0.0, 1.0])
        assert payload["multiplicities"] == [1, n - 1]
        cluster = np.array(payload["eigenvectors"][1:]).T
        others = np.delete(np.eye(n), direction, axis=1)
        np.testing.assert_allclose(cluster, others, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(cluster == 0.0, others == 0.0)
        np.testing.assert_array_equal(cluster, canonical_basis(cluster))
        assert "-0.0" not in out


def _run_script(script: str):
    """Run ``script`` in a fresh interpreter that imports this checkout's
    symidx, and require it to exit 0."""
    src = os.path.dirname(os.path.dirname(symidx.__file__))
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _assert_not_imported(tmp_path, module: str):
    """In a fresh interpreter, ``import symidx`` and then ``index``,
    ``sweep``, ``jacobi`` and ``verify`` leave ``module`` unimported."""
    sphere = tmp_path / "sphere.json"
    sphere.write_text(json.dumps(space_to_dict(round_sphere(3)[0])))
    script = f"""
import contextlib, io, sys
import symidx
assert {module!r} not in sys.modules, "import symidx"
from symidx.cli import main
for argv in (["index", "--space", {str(sphere)!r}],
             ["sweep", "--family", "so4-so2", "--lambda", "0.5",
              "--s", "0.4:1.6:0.4", "--coupled"],
             ["jacobi", "--space", {str(sphere)!r}, "--direction", "0"],
             ["verify"]):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code == 0, argv
    assert {module!r} not in sys.modules, argv
"""
    _run_script(script)


def test_scipy_is_not_imported(tmp_path):
    _assert_not_imported(tmp_path, "scipy")


def test_numpy_random_is_not_imported(tmp_path):
    """verify draws its seeded normals from the standard library's random,
    which spares each run numpy.random's import (about 6 MiB of RSS)."""
    _assert_not_imported(tmp_path, "numpy.random")


def test_symidx_runs_without_jsonschema(tmp_path):
    """Documents are validated without a JSON Schema library: with
    jsonschema made unimportable, valid documents are indexed and an
    invalid one still gets its message and exit 2."""
    sphere = tmp_path / "sphere.json"
    sphere.write_text(json.dumps(space_to_dict(round_sphere(3)[0])))
    bad = space_to_dict(round_sphere(3)[0])
    bad["metric"][0][0] = True
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps(bad))
    script = f"""
import contextlib, io, sys
sys.modules["jsonschema"] = None
from symidx.cli import main
for argv in (["index", "--space", {str(sphere)!r}],
             ["jacobi", "--space", {str(sphere)!r}, "--direction", "0"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
err = io.StringIO()
with contextlib.redirect_stderr(err):
    assert main(["index", "--space", {str(invalid)!r}]) == 2
assert err.getvalue() == "error: /metric/0/0: True is not of type 'number'\\n", \\
    err.getvalue()
"""
    _run_script(script)


def test_the_cached_parser_carries_nothing_between_calls(capsys,
                                                         squashed_file):
    assert cli.build_parser() is cli.build_parser()
    assert json.loads(run(capsys, "index", "--space", squashed_file,
                          "--augment")[1])["augmented"] is True
    assert json.loads(run(capsys, "index", "--space",
                          squashed_file)[1])["augmented"] is False
    assert run(capsys, "sweep", "--family", "spin3")[0] == 2
    code, out, _ = run(capsys, "sweep", "--family", "spin3", "--t", "1.5")
    assert code == 0
    assert out.splitlines()[0] == SWEEP_HEADER and len(out.splitlines()) == 2


def test_index_augment_flag(capsys, squashed_file):
    code, out, _ = run(capsys, "index", "--space", squashed_file)
    assert json.loads(out)["transvection"]["index"] == 0
    code, out, _ = run(capsys, "index", "--space", squashed_file, "--augment")
    assert code == 0
    payload = json.loads(out)
    assert payload["transvection"]["index"] == 1
    assert payload["augmented"] is True


def test_index_augment_prints_a_unit_ideal_basis_exactly(capsys, tmp_path):
    """The one basis vector of the augmented Berger sphere's symmetry ideal
    prints as 1.0: the canonical basis drops the 1e-17 noise of the basis
    it came from, which would move the unit entry's last bit."""
    code, doc, _ = run(capsys, "catalog", "emit", "spin3:1.5,1.5,2")
    path = tmp_path / "berger.json"
    path.write_text(doc)
    code, out, _ = run(capsys, "index", "--space", str(path), "--augment")
    assert code == 0
    assert json.loads(out)["bound"]["gD"]["basis"] == [[0.0, 0.0, 0.0, 1.0]]


def test_index_exit_codes(capsys, tmp_path):
    missing = str(tmp_path / "missing.json")
    assert run(capsys, "index", "--space", missing)[0] == 2

    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"algebra": "so3",\n}')
    code, _, err = run(capsys, "index", "--space", str(malformed))
    assert code == 2
    assert "line 2" in err

    schema_bad = tmp_path / "schema.json"
    schema_bad.write_text(json.dumps({"algebra": "so3"}))
    code, _, err = run(capsys, "index", "--space", str(schema_bad))
    assert code == 2

    indefinite = tmp_path / "indefinite.json"
    doc = {
        "algebra": "so3",
        "isotropy": [[0.0, 0.0, 1.0]],
        "complement": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
        "metric": [[1.0, 0.0], [0.0, -1.0]],
    }
    indefinite.write_text(json.dumps(doc))
    code, _, err = run(capsys, "index", "--space", str(indefinite))
    assert code == 1
    assert "positive definite" in err


def _index_of(capsys, tmp_path, text: str) -> tuple:
    path = tmp_path / "space.json"
    path.write_text(text)
    return run(capsys, "index", "--space", str(path))


@pytest.mark.parametrize("name, message", [
    ("abelian:-3", "dimension must be nonnegative"),
    ("abelian:x", "malformed abelian preset 'abelian:x'"),
    ("so5", "unknown algebra preset 'so5'")])
def test_a_preset_that_cannot_be_built_is_exit_two(capsys, tmp_path, name,
                                                    message):
    """An unknown or malformed preset is unusable input: its one error line
    points at /algebra."""
    document = {"algebra": name, "isotropy": [], "metric": []}
    code, out, err = _index_of(capsys, tmp_path, json.dumps(document))
    assert (code, out, err) == (2, "", f"error: /algebra: {message}\n")


@pytest.mark.parametrize("n", [liealg.MAX_ALGEBRA_DIM + 1, 10 ** 6])
@pytest.mark.parametrize("inline", [False, True], ids=["preset", "inline"])
def test_an_algebra_above_the_dimension_limit_is_exit_two(capsys, tmp_path,
                                                          n, inline):
    """Refused by its dimension alone, before the labels are counted and
    before its structure tensor, of 8 n^3 bytes (6.94 EiB at 10^6), is
    asked for."""
    algebra = ({"dim": n, "labels": [], "structure": []} if inline
               else f"abelian:{n}")
    document = {"algebra": algebra, "isotropy": [], "metric": []}
    code, out, err = _index_of(capsys, tmp_path, json.dumps(document))
    pointer = "/algebra/dim" if inline else "/algebra"
    assert (code, out, err) == (2, "", (
        f"error: {pointer}: algebra dimension must be at most "
        f"MAX_ALGEBRA_DIM = {liealg.MAX_ALGEBRA_DIM}\n"))


@pytest.mark.parametrize("text", [
    "[" * 100_000,
    '{"algebra": "so3", "isotropy": ' + "[" * 100_000 + "]" * 100_000 + "}"],
    ids=["unclosed", "closed"])
def test_a_document_nested_too_deeply_is_exit_two(capsys, tmp_path, text):
    """The parser's recursion ends in one error line, not a traceback."""
    code, out, err = _index_of(capsys, tmp_path, text)
    assert (code, out) == (2, "")
    assert err.startswith("error: not valid JSON: ") and err.count("\n") == 1
    assert "nested too deeply" in err


@pytest.mark.parametrize("name, field, message", [
    ("round-sphere:3", "metric", "metric is not positive definite"),
    ("product-spheres:1", "isotropy", "isotropy and complement overlap")])
def test_an_entry_near_the_largest_float_is_refused_without_a_warning(
        capsys, tmp_path, name, field, message):
    """1e308 in an emitted document overflowed numpy products (the metric's
    symmetrization, the isotropy's adjoint action and the complement checks
    after it), whose warnings came before the refusal: stderr holds the one
    error line alone."""
    document = json.loads(run(capsys, "catalog", "emit", name)[1])
    document[field][0][0] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _index_of(capsys, tmp_path, json.dumps(document))
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("scaled, name", [
    ("spin3:1e308,1e308,1e308", "spin3:1,1,1"),
    ("spin3:0.8e308,0.8e308,1.6e308", "spin3:1,1,2"),
    ("spin3:0.5e308,1e308,1.5e308", "spin3:1,2,3")])
def test_a_metric_near_the_largest_float_is_decided_as_its_unscaled_one(
        capsys, tmp_path, scaled, name):
    """The Koszul derivatives are homogeneous of degree 0 in the metric, so
    a metric near 1e308 has the index, coindex and bound of the metric it
    scales; its products overflowed to "SVD did not converge" from
    ``index`` and an overflow refusal from ``jacobi``, after warnings."""
    def decided(name):
        path = tmp_path / "space.json"
        path.write_text(run(capsys, "catalog", "emit", name)[1])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            index = run(capsys, "index", "--space", str(path))
            jacobi = run(capsys, "jacobi", "--space", str(path),
                         "--direction", "0")
        assert not [w for w in caught if w.category is RuntimeWarning]
        assert (index[0], jacobi[0]) == (0, 0), index[2] + jacobi[2]
        payload = json.loads(index[1])
        return ({key: payload["transvection"][key]
                 for key in ("index", "coindex")},
                {key: payload["bound"][key]
                 for key in ("k", "lhs", "rhs", "equality")})

    assert decided(scaled) == decided(name)


@pytest.mark.parametrize("scaled, name", [
    ("spin3:1e308,1e308,1e308", None),
    ("spin3:0.8e308,0.8e308,1.6e308", "spin3:1,1,2"),
    ("spin3:0.5e308,1e308,1.5e308", "spin3:1,2,3")])
def test_an_augmented_metric_near_the_largest_float_is_decided_or_refused(
        capsys, tmp_path, scaled, name):
    """The bi-invariant directions are the kernel of a map linear in the
    metric, so a Berger or generic metric near 1e308 is augmented as the
    metric it scales; the round one meets the skew check of the augmented
    algebra, whose refusal names the overflow.  The einsum of the structure
    with the 1e308 form ended "kernel matrix entry [1, 2] is nan" or "is
    inf", after a warning."""
    def augmented(name):
        path = tmp_path / "space.json"
        path.write_text(run(capsys, "catalog", "emit", name)[1])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "index", "--augment",
                                 "--space", str(path))
        assert not [w for w in caught if w.category is RuntimeWarning]
        if code:
            return code, out, err
        payload = json.loads(out)
        return (code,
                {key: payload["transvection"][key]
                 for key in ("index", "coindex", "dim_transvection")},
                {key: payload["bound"][key] for key in ("k", "lhs", "rhs")})

    if name is None:
        assert augmented(scaled) == (1, "", "error: the skew check of the "
                                     "metric overflows; rescale the metric\n")
    else:
        assert augmented(scaled) == augmented(name)


def test_an_integer_of_too_many_digits_is_not_valid_json(capsys, tmp_path):
    """Python's json reads a JSON integer through ``int``, which refuses a
    string of more than 4300 digits with a ValueError: unusable input,
    exit 2, not the exit 1 of a computation that failed."""
    text = ('{"algebra": "so3", "isotropy": [[' + "9" * 5000
            + ', 0, 0]], "complement": [], "metric": []}')
    code, out, err = _index_of(capsys, tmp_path, text)
    assert (code, out) == (2, "")
    assert err.startswith("error: not valid JSON: ") and err.count("\n") == 1
    assert "4300 digits" in err


@pytest.mark.parametrize("command", ["sweep", "index"])
def test_a_value_error_anywhere_in_a_command_is_exit_one(
        capsys, monkeypatch, quotient_file, command):
    def boom(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(cli, {"sweep": "transvection_stack",
                              "index": "transvection_space"}[command], boom)
    argv = {"sweep": ["--family", "spin3", "--t", "1.5"],
            "index": ["--space", quotient_file]}[command]
    code, out, err = run(capsys, command, *argv)
    assert (code, out, err) == (1, "", "error: boom\n")


def test_an_unreadable_file_is_exit_two(capsys, tmp_path):
    missing = str(tmp_path / "missing.json")
    code, _, err = run(capsys, "index", "--space", missing)
    assert code == 2
    assert err == f"error: cannot read {missing}: No such file or directory\n"
    code, _, err = run(capsys, "jacobi", "--space", str(tmp_path),
                       "--direction", "0")
    assert code == 2
    assert err.startswith(f"error: cannot read {tmp_path}: ")


def test_a_document_that_is_not_utf8_is_exit_two(capsys, tmp_path):
    path = tmp_path / "latin.json"
    path.write_bytes(b"\xff\xfe{}")
    code, _, err = run(capsys, "index", "--space", str(path))
    assert code == 2
    assert err.startswith("error: not valid UTF-8: ")
    assert err.count("\n") == 1


def test_a_failed_write_to_stdout_is_not_a_read_error(
        monkeypatch, quotient_file):
    def closed(payload):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(cli, "to_json", closed)
    with pytest.raises(BrokenPipeError):
        main(["index", "--space", quotient_file])


def test_sweep_header_and_sorting(capsys):
    code, out, _ = run(capsys, "sweep", "--family", "so4-so2",
                       "--lambda", "0.25:0.75:0.25", "--s", "0.5", "--coupled")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert lines[0] == ("lambda,s,t,rho,index,coindex,dim_transvection,"
                        "psd_ok,bound_lhs,bound_rhs,equality")
    rows = lines[1:]
    assert len(rows) == 3
    assert rows == sorted(rows)
    for row in rows:
        fields = row.split(",")
        assert fields[4] == "2"  # index on the coupled stratum
        assert fields[10] == "true"
        assert fields[3] == ""  # rho stays empty for this family


@pytest.mark.parametrize("argv, column, values", [
    (["--family", "spin3", "--t", "0.5:11:2.5"], 2,
     ["0.5", "3", "5.5", "8", "10.5"]),
    (["--family", "so4-so2", "--lambda", "0.5", "--s", "0.5",
      "--t", "0.00001:0.5:0.25"], 2, ["1e-05", "0.25001"]),
])
def test_sweep_rows_come_in_numeric_order(capsys, argv, column, values):
    """Rows sort by their parameters as numbers: 10.5 after 3, and 1e-05,
    which prints with an exponent, before 0.25001."""
    code, out, _ = run(capsys, "sweep", *argv)
    assert code == 0
    assert [row.split(",")[column] for row in out.splitlines()[1:]] == values


def test_sweep_uncoupled_grid(capsys):
    code, out, _ = run(capsys, "sweep", "--family", "so4-so2",
                       "--lambda", "0.5", "--s", "0.5", "--t", "0.8:1.2:0.4")
    lines = out.strip().splitlines()
    assert code == 0 and len(lines) == 3
    for row in lines[1:]:
        assert row.split(",")[4] == "0"


def test_sweep_skips_invalid_points_and_counts_them(capsys):
    # t = 2 inside the grid is the excluded round metric
    code, out, err = run(capsys, "sweep", "--family", "spin3",
                         "--t", "1:3:0.5")
    lines = out.strip().splitlines()
    assert code == 0
    assert len(lines) == 1 + 4  # five grid points, one skipped
    t_values = {row.split(",")[2] for row in lines[1:]}
    assert "2" not in t_values
    assert err == "sweep: 1 grid point skipped, 0 curvature candidates refused\n"


def test_sweep_with_a_refused_presentation_prints_the_header_alone(capsys):
    """At tolerance 0.5 the Spin(4)/S1 isotropy and complement overlap: the
    one member of the sweep's stack is refused, and with it each metric,
    so every point is skipped and no row printed.  A builder that raises
    skips every point too."""
    with pytest.raises(ValueError, match="isotropy and complement overlap"):
        catalog.spin4_quotient(so4_so2_complement(0.5), 0.5)
    code, out, err = run(capsys, "sweep", "--family", "so4-so2", "--lambda",
                         "0.5", "--s", "0.8", "--t", "0.5:1.5:0.5",
                         "--tol", "0.5")
    assert code == 0 and out == SWEEP_HEADER + "\n"
    assert err == ("sweep: 3 grid points skipped, 0 curvature candidates "
                   "refused\n")

    def refused(complements, tol):
        raise ValueError("the pair is not effective")

    point = ((0.5, 0.8, 1.2, None),
             lambda: (so4_so2_complement(0.5), so4_so2_gram(0.8, 1.2)))
    assert cli._sweep_rows(refused, [point], 1e-9) == ([], 0)


def test_a_sweep_skips_a_slope_whose_member_is_refused(capsys):
    """At tolerance 0.1 the complement of slope 0.01 overlaps the isotropy:
    its member is refused alone and the other nine slopes keep their
    rows."""
    with pytest.raises(ValueError, match="isotropy and complement overlap"):
        catalog.spin4_quotient(so4_so2_complement(0.01), 0.1)
    code, out, err = run(capsys, "sweep", "--tol", "0.1", "--family",
                         "so4-so2", "--lambda", "0.01:1:0.11", "--s", "0.5",
                         "--coupled")
    rows = out.splitlines()[1:]
    assert code == 0 and len(rows) == 9
    assert [row.split(",")[0] for row in rows] == [
        "0.12", "0.23", "0.34", "0.45", "0.56", "0.67", "0.78", "0.89", "1"]
    assert err == ("sweep: 1 grid point skipped, 0 curvature candidates "
                   "refused\n")


def test_sweep_counts_the_refused_curvature_candidates(capsys):
    """The stderr summary counts the candidates jacobi_operator raises on;
    stdout holds the CSV alone.  The orbits of the catalog's candidates are
    geodesics, so a catalog sweep counts none; transvection_stack counts
    the same refusals as jacobi_operator where a skewed tangent basis of
    Spin(3) has directions whose orbits are not geodesics."""
    code, out, err = run(capsys, "sweep", "--family", "so4-so2",
                         "--lambda", "0.5", "--s", "0.5:1.5:0.5", "--coupled")
    assert code == 0 and out.startswith(SWEEP_HEADER + "\n")
    assert len(out.splitlines()) == 4
    swallowed = 0
    for s in (0.5, 1.0, 1.5):
        sp, _ = so4_so2(0.5, s)
        report = transvection_space(sp)
        for x in np.hstack([sp.m_basis, report.p_space.basis]).T:
            try:
                jacobi_operator(sp, x)
            except ValueError:
                swallowed += 1
    assert err == (f"sweep: 0 grid points skipped, {swallowed} curvature "
                   f"candidates refused\n")

    sp, _ = spin3_metric(1.0, 1.0, 1.0)
    skew = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
    pres = Presentation(sp.algebra, sp.isotropy, Subspace(3, skew))
    grams = [skew.T * a @ skew for a in ([1, 2, 3], [1, 1, 1], [2, 2, 1])]
    want = []
    for gram in grams:
        point = pres.space(BilinearForm(gram))
        want.append(0)
        for x in np.hstack([point.m_basis,
                            transvection_space(point).p_space.basis]).T:
            try:
                jacobi_operator(point, x)
            except ValueError:
                want[-1] += 1
    assert transvection_stack(pres, grams)["refused"].tolist() == want
    assert want[0] > 0 and want[1] == 0


def _sweep_values(spec: str) -> list:
    """The values ``symidx sweep`` makes of ``A:B:STEP``."""
    start, stop, step = (float(v) for v in spec.split(":"))
    return [start + k * step for k in range(int((stop - start) / step) + 2)
            if start + k * step <= stop + 1e-12]


def _per_point(capsys, tmp_path, build, name, fields):
    """A sweep point by the one-space path: its CSV row and refused count
    from the catalog builder (``None`` where it refuses the point), then
    ``index`` on the ``catalog emit`` document and one jacobi_operator
    call per curvature candidate of the loaded document."""
    try:
        build()
    except ValueError:
        return None, 0
    code, doc, err = run(capsys, "catalog", "emit", name)
    assert code == 0, err
    path = tmp_path / "point.json"
    path.write_text(doc)
    code, out, _ = run(capsys, "index", "--space", str(path))
    assert code == 0
    tv, bound = json.loads(out)["transvection"], json.loads(out)["bound"]
    sp = load_space(str(path))
    psd_ok, refused = True, 0
    for x in np.hstack([sp.m_basis, transvection_space(sp).p_space.basis]).T:
        try:
            psd_ok &= jacobi_operator(sp, x).psd_ok
        except ValueError:
            refused += 1
    row = [*("" if v is None else "%.12g" % v for v in fields),
           tv["index"], tv["coindex"], tv["dim_transvection"], psd_ok,
           bound["lhs"], bound["rhs"], bound["equality"]]
    return ",".join(str(v).lower() for v in row), refused


@pytest.mark.parametrize("argv", [
    ["--family", "so4-so2", "--lambda", "0.2:0.6:0.2", "--s", "0.5:1.5:0.5",
     "--coupled"],
    ["--family", "so4-so2", "--lambda", "0.5:1.5:0.5", "--s", "0.5",
     "--t", "1:2:0.5"],
    ["--family", "spin3", "--s", "0.1:1.1:0.2"],
    ["--family", "product-spheres", "--rho=-0.5:1.5:0.5"],
])
def test_a_sweep_decides_its_points_in_one_stacked_call(capsys, monkeypatch,
                                                        argv):
    """A sweep builds one presentation, a stack where its points'
    complements differ (several slopes, several radii), and makes one
    transvection_stack and one symmetry_ideals call with the stacked result
    of all its kept points; the one-report symmetry_ideal is never
    called."""
    calls = {"stack": 0, "ideals": 0, "points": 0}

    def counted(key, inner):
        def call(pres, items):
            calls[key] += 1
            out = inner(pres, items)
            if key == "ideals":
                calls["points"] += np.count_nonzero(items["index"] >= 0)
            return out
        return call

    def refused(*args, **kwargs):
        raise AssertionError("symmetry_ideal called from a sweep")

    monkeypatch.setattr(cli, "transvection_stack",
                        counted("stack", cli.transvection_stack))
    monkeypatch.setattr(cli, "symmetry_ideals",
                        counted("ideals", cli.symmetry_ideals))
    monkeypatch.setattr(cli, "symmetry_ideal", refused)
    monkeypatch.setattr(homspace, "symmetry_ideal", refused)
    code, out, _ = run(capsys, "sweep", *argv)
    assert code == 0
    assert calls["stack"] == calls["ideals"] == 1
    assert calls["points"] == len(out.splitlines()) - 1 > 0


def test_a_sweep_validates_one_member_per_distinct_complement(capsys,
                                                              monkeypatch):
    """The points of one slope share one complement object, so a grid of
    three slopes hands its builder one complement per point and gets a
    stack of three members for its twelve positions: its rows and counts
    are those of a stack with a copy of the complement for each point."""
    built, build = [], catalog.spin4_quotient

    def recording(complement, tol):
        built.append(build(complement, tol))
        return built[-1]

    def members() -> list:
        return [(len(pres.m_basis), len(pres._place)) for pres in built]

    monkeypatch.setattr(catalog, "spin4_quotient", recording)
    code, out, err = run(capsys, "sweep", "--family", "so4-so2", "--lambda",
                         "0.25:0.75:0.25", "--s", "0.35:2.15:0.45",
                         "--coupled")
    assert code == 0 and members() == [(3, 12)]
    assert len(out.splitlines()) == 1 + 12  # s = 2.15 leaves the family
    assert err == ("sweep: 3 grid points skipped, 0 curvature candidates "
                   "refused\n")

    slopes = {lam: so4_so2_complement(lam) for lam in (0.25, 0.5, 0.75)}
    points = [((lam, s, 2.0 - s, None), c, so4_so2_gram(s, 2.0 - s))
              for lam, c in slopes.items() for s in (0.35, 0.8, 1.25, 1.7)]
    built.clear()
    shared = cli._sweep_rows(recording, [
        (params, lambda c=c, g=g: (c, g)) for params, c, g in points], 1e-9)
    copies = cli._sweep_rows(recording, [
        (params, lambda c=c, g=g: (Subspace(6, c.basis.copy()), g))
        for params, c, g in points], 1e-9)
    assert members() == [(3, 12), (12, 12)] and shared == copies
    assert shared == (out.splitlines()[1:], 0)


COUPLED_GRID = ["--family", "so4-so2", "--lambda", "0.1:1:0.1", "--s",
                "0.1:1.9:0.1", "--coupled"]
CHUNKED_GRIDS = {
    "coupled": COUPLED_GRID,
    # 720 points of index 0 and 90 of index 2
    "mixed": ["--family", "so4-so2", "--lambda", "0.1:1:0.1", "--s",
              "0.2:1.8:0.2", "--t", "0.2:1.8:0.2"],
    "spin3": ["--family", "spin3", "--t", "0.1:3:0.1"],
    "product-spheres": ["--family", "product-spheres", "--rho", "0.1:3:0.1"],
    # the metric rule refuses s = 1e-12 on each slope, inside the chunks
    "refused": ["--family", "so4-so2", "--lambda", "0.1:1:0.1", "--s",
                "1e-12:1.9:0.1", "--coupled"],
}


def test_a_sweep_forms_each_gram_matrix_once(capsys, monkeypatch):
    """The 190-point coupled grid builds its Gram matrix once per distinct
    (s, t), 19 times for 10 slopes, and prints the rows and the count of
    the same points given a fresh Gram matrix each."""
    built, seen = [], {}

    def gram(s, t, inner=catalog.so4_so2_gram):
        built.append((s, t))
        return inner(s, t)

    def rows(presentation, points, tol, inner=cli._sweep_rows):
        seen.update(presentation=presentation, points=points, tol=tol)
        return inner(presentation, points, tol)

    monkeypatch.setattr(catalog, "so4_so2_gram", gram)
    monkeypatch.setattr(cli, "_sweep_rows", rows)
    code, out, err = run(capsys, "sweep", *COUPLED_GRID)
    assert code == 0 and len(seen["points"]) == 190
    assert len(built) == len(set(built)) == 19

    slopes = {}
    fresh = [(params, lambda lam=params[0], s=params[1], t=params[2]: (
        slopes.setdefault(lam, so4_so2_complement(lam)), so4_so2_gram(s, t)))
        for params, _ in seen["points"]]
    kept, refused = cli._sweep_rows(seen["presentation"], fresh, seen["tol"])
    assert out.splitlines() == [SWEEP_HEADER, *kept] and len(kept) == 190
    assert err == (f"sweep: 0 grid points skipped, "
                   f"{cli._counted(refused, 'curvature candidate')} refused\n")


def decided_sweep(capsys, monkeypatch, argv) -> tuple:
    """``(pres, grams, result, out, chunks)`` of a sweep: its stacked
    presentation and metrics, the result of its one symmetry_ideals call,
    its standard output and its count of derivative chunks that hold a
    metric."""
    seen = {"chunks": 0}

    def stack(pres, grams):
        seen.update(pres=pres, grams=np.asarray(grams))
        return transvection_stack(pres, grams)

    def ideals(pres, found):
        seen["result"] = homspace.symmetry_ideals(pres, found)
        return seen["result"]

    def nablas(pres, grams, inner=homspace._nablas):
        seen["chunks"] += len(grams) > 0
        return inner(pres, grams)

    with monkeypatch.context() as patch:
        patch.setattr(cli, "transvection_stack", stack)
        patch.setattr(cli, "symmetry_ideals", ideals)
        patch.setattr(homspace, "_nablas", nablas)
        code, out, _ = run(capsys, "sweep", *argv)
    assert code == 0
    return seen["pres"], seen["grams"], seen["result"], out, seen["chunks"]


def per_metric_bytes(result: dict) -> dict:
    """Per key of a stacked result, the dtype and bytes of its array, or of
    a group list the shape and bytes of each metric's basis."""
    found = {}
    for key, value in result.items():
        if isinstance(value, list):
            found[key] = {i: (q.shape, q.tobytes()) for rows, bases in value
                          for i, q in zip(rows.tolist(), bases)}
        else:
            found[key] = (value.dtype, value.tobytes())
    return found


@pytest.mark.parametrize("grid", CHUNKED_GRIDS)
def test_chunking_a_sweep_changes_no_bit(capsys, monkeypatch, grid):
    """A byte budget that takes one metric per chunk in every stage, and
    one with no limit, give the stacked arrays and every group's bases of
    the default budget bit for bit, and the same rows; each metric of a
    sample is transvection_space's report on its own space."""
    argv = CHUNKED_GRIDS[grid]
    pres, grams, want, out, chunks = decided_sweep(capsys, monkeypatch, argv)
    kept = np.count_nonzero(want["index"] >= 0)
    for budget, count in ((1, kept), (2 ** 62, 1)):
        monkeypatch.setattr(liealg, "_STACK_BYTES", budget)
        *_, got, got_out, got_chunks = decided_sweep(capsys, monkeypatch,
                                                      argv)
        assert got_out == out and got_chunks == count
        assert per_metric_bytes(got) == per_metric_bytes(want)
    assert 1 <= chunks < kept
    reports = homspace._unstack(homspace.TransvectionReport, want, pres)
    for i in np.linspace(0, len(grams) - 1, 7).astype(int).tolist():
        m = (pres.m_basis[pres._place[i]] if pres.m_basis.ndim == 3
             else pres.m_basis)
        space = functools.partial(
            homspace.HomogeneousSpace, pres.algebra, pres.isotropy,
            BilinearForm(grams[i]), Subspace(pres.algebra.dim, m),
            tol=pres.tol)
        if reports[i] is None:  # refused in its chunk as its space is
            with pytest.raises(ValueError, match="not positive definite"):
                space()
            continue
        assert_same_report(plain(reports[i]), plain(transvection_space(
            space())))


def test_a_sweep_makes_one_grouped_pass_per_index(capsys, monkeypatch):
    """The 190-point coupled grid, in several derivative chunks, decides
    its one group of one index in one pass: one [p, p] span, one [k, p]
    check, one [k, k] certificate and no [k, k] containment, and one
    symmetry ideal seed pass."""
    calls = {name: 0 for name in ("stacked_spans", "stacked_contains",
                                  "_kk_certificate", "invariant_subspaces",
                                  "_nablas")}
    for name in calls:
        def counted(*args, name=name, inner=getattr(homspace, name)):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(homspace, name, counted)
    code, out, _ = run(capsys, "sweep", *COUPLED_GRID)
    assert code == 0 and len(out.splitlines()) == 1 + 190
    groups = {line.split(",")[4] for line in out.splitlines()[1:]}
    assert groups == {"2"} and calls.pop("_nablas") > 1
    assert calls == {"stacked_spans": 1, "stacked_contains": 1,
                     "_kk_certificate": 1, "invariant_subspaces": 1}


#: Traced peak of a sweep of the 190-point coupled grid when every stage
#: took chunks of 32 metrics, in bytes.
CHUNKS_OF_32_PEAK = 819 * 1024

#: Bound on the traced peak of that sweep, in bytes: 639 KiB measured
#: (numpy 2.4, CPython 3.11), 10 KiB of them the Koszul bracket terms of its
#: 10 members; it was 692 KiB while each point's Gram matrix was held beside
#: the stack of them.
GRAMS_HELD_ONCE_PEAK = 660 * 1024


def traced_sweep(capsys, monkeypatch, argv) -> tuple:
    """``(peak, held)``: the traced peak of a sweep, after one untraced run,
    and the memory traced when its one symmetry_ideals call returns, which
    holds the grid's points, presentation, metrics and results."""
    assert run(capsys, "sweep", *argv)[0] == 0
    held = []

    def ideals(pres, found, inner=cli.symmetry_ideals):
        out = inner(pres, found)
        held.append(tracemalloc.get_traced_memory()[0])
        return out

    with monkeypatch.context() as patch:
        patch.setattr(cli, "symmetry_ideals", ideals)
        code, peak = traced_peak(lambda: run(capsys, "sweep", *argv)[0])
    assert code == 0
    return peak, held[0]


def test_the_koszul_term_of_a_member_is_each_of_its_points(capsys,
                                                           monkeypatch):
    """The 190-point grid's 10-member stack forms its Koszul term once per
    member, and the derivatives of each chunk are, bit for bit, those of
    each point on the presentation of its own complement."""
    chunks, inner = [], homspace._nablas

    def nablas(pres, grams):
        chunks.append((pres, grams, inner(pres, grams)))
        return chunks[-1][-1]

    monkeypatch.setattr(homspace, "_nablas", nablas)
    pres = decided_sweep(capsys, monkeypatch, COUPLED_GRID)[0]
    members = list(dict.fromkeys(pres.complement))
    assert len(members) == len(vars(pres)["_lift_brackets"]) == 10
    assert sum(len(grams) for _, grams, _ in chunks) == 190
    for part, grams, got in chunks:
        for m, gram, nabla in zip(part.m_basis, grams, got):
            one, = (c for c in members if np.array_equal(c.basis, m))
            want = inner(catalog.spin4_quotient(one, pres.tol), gram[None])[0]
            assert np.array_equal(nabla, want)


def test_a_sweep_stays_within_its_byte_budget(capsys, monkeypatch):
    """The 190-point grid peaks no more than 2 % above its chunks of 32,
    and below its peak with the Gram matrices held twice, and a 1 980-point
    grid no higher than the byte budget above what it holds for its O(N)
    points and results."""
    peak = traced_sweep(capsys, monkeypatch, COUPLED_GRID)[0]
    assert peak <= 1.02 * CHUNKS_OF_32_PEAK and peak < GRAMS_HELD_ONCE_PEAK
    peak, held = traced_sweep(capsys, monkeypatch, [
        "--family", "so4-so2", "--lambda", "0.05:1:0.05", "--s",
        "0.02:1.98:0.02", "--coupled"])
    assert peak <= held + liealg._STACK_BYTES


def test_a_sweep_holds_each_distinct_complement_once(capsys, monkeypatch):
    """The 1 990-point coupled grid hands transvection_stack a stack of 10
    members, one per slope, for its 1 990 positions, and peaks at most
    3 000 KiB traced: no point holds a copy of its member."""
    argv = ["--family", "so4-so2", "--lambda", "0.1:1:0.1", "--s",
            "0.01:1.99:0.01", "--coupled"]
    pres = decided_sweep(capsys, monkeypatch, argv)[0]
    assert (len(pres.m_basis), len(pres._place)) == (10, 1990)
    assert traced_sweep(capsys, monkeypatch, argv)[0] <= 3000 * 1024


def test_a_sweep_builds_no_report_objects(capsys, monkeypatch):
    """A sweep reads its rows from the stacked arrays: the 190-point grid
    constructs no TransvectionReport and no BoundReport, which the counting
    subclasses see where the one-space path builds them.  Points that share
    one complement object the presentation refuses are all skipped, and the
    other points keep the rows they have alone."""
    built = {"TransvectionReport": 0, "BoundReport": 0}
    for name in built:
        def init(self, *args, name=name, cls=getattr(homspace, name),
                 **kwargs):
            built[name] += 1
            cls.__init__(self, *args, **kwargs)

        monkeypatch.setattr(homspace, name, type(
            name, (getattr(homspace, name),), {"__init__": init}))
    code, out, _ = run(capsys, "sweep", "--family", "so4-so2", "--lambda",
                       "0.1:1:0.1", "--s", "0.1:1.9:0.1", "--coupled")
    assert code == 0 and len(out.splitlines()) == 1 + 190
    assert built == {"TransvectionReport": 0, "BoundReport": 0}
    homspace.symmetry_ideal(so4_so2(0.5, 0.8)[0])
    assert built == {"TransvectionReport": 1, "BoundReport": 1}

    good = so4_so2_complement(0.5)
    overlap = good.basis.copy()
    overlap[:, 0] = [1.0, 0.0, 0.0, 1.0, 0.0, 0.0]  # the isotropy direction
    overlap = Subspace(6, overlap)
    with pytest.raises(ValueError, match="overlap"):
        catalog.spin4_quotient(overlap, 1e-9)
    s = [0.3, 0.5, 0.7, 0.9, 1.1, 1.3]
    on = [overlap, good, overlap, good, good, overlap]
    points = [((None, v, 2.0 - v, None),
               lambda c=c, v=v: (c, so4_so2_gram(v, 2.0 - v)))
              for c, v in zip(on, s)]
    rows, refused = cli._sweep_rows(catalog.spin4_quotient, points, 1e-9)
    alone = cli._sweep_rows(catalog.spin4_quotient, [
        point for point, c in zip(points, on) if c is good], 1e-9)
    assert len(rows) == 3 and (rows, refused) == alone
    assert [row.split(",")[1] for row in rows] == ["0.5", "0.9", "1.1"]


def test_stacked_sweep_equals_the_per_point_path(capsys, tmp_path):
    """A sweep validates each presentation once and decides its metrics in
    stacked calls; every row must be what the one-space path gives for its
    point, and the stderr counts those of per-point builds and
    jacobi_operator calls.  The seeded grids cross the coupled stratum
    t = 2 - s, run along the spin3 line (s, 2 - s, 2) and through the
    excluded round metric t = 2, and leave their families (a slope above
    1, s = 2.15, s = 1.1 on the line, a negative radius)."""
    rng = np.random.default_rng(2031)
    s0 = 0.2 * int(rng.integers(2, 9))
    lam = 0.05 * int(rng.integers(2, 8))
    t_spec = f"{2 - s0 - 0.2:.4f}:{2 - s0 + 0.2:.4f}:0.1"
    berger = f"{0.5 * int(rng.integers(1, 3)):.1f}:3:0.5"
    sweeps = [
        (["--family", "so4-so2", "--lambda", f"{lam:.2f}:1.3:0.35",
          "--s", repr(s0), "--t", t_spec],
         [(catalog.so4_so2, (a, s0, t), f"so4-so2:{a!r},{s0!r},{t!r}",
           (a, s0, t, None))
          for a in _sweep_values(f"{lam:.2f}:1.3:0.35")
          for t in _sweep_values(t_spec)]),
        (["--family", "so4-so2", "--lambda", "0.25:0.75:0.25",
          "--s", "0.35:2.15:0.45", "--coupled"],
         [(catalog.so4_so2, (a, s), f"so4-so2:{a!r},{s!r},{2.0 - s!r}",
           (a, s, 2.0 - s, None))
          for a in _sweep_values("0.25:0.75:0.25")
          for s in _sweep_values("0.35:2.15:0.45")]),
        (["--family", "spin3", "--s", "0.1:1.1:0.2"],
         [(catalog.spin3_one_parameter, (s,), f"spin3:{s!r},{2.0 - s!r},2.0",
           (None, s, None, None)) for s in _sweep_values("0.1:1.1:0.2")]),
        (["--family", "spin3", "--t", berger],
         [(catalog.spin3_berger, (t,), f"spin3:{t!r},{t!r},2.0",
           (None, None, t, None)) for t in _sweep_values(berger)]),
        (["--family", "product-spheres", "--rho=-0.1:1.5:0.4"],
         [(catalog.product_of_spheres, (r,), f"product-spheres:{r!r}",
           (None, None, None, r)) for r in _sweep_values("-0.1:1.5:0.4")]),
    ]
    seen = {"rows": 0, "skipped": 0, "index 0": 0, "index 2": 0}
    for argv, points in sweeps:
        code, out, err = run(capsys, "sweep", *argv)
        assert code == 0
        want, skipped, refused = [], 0, 0
        for builder, params, name, fields in points:
            row, point_refused = _per_point(
                capsys, tmp_path, functools.partial(builder, *params), name,
                fields)
            if row is None:
                skipped += 1
            else:
                want.append(row)
                refused += point_refused
        assert out.splitlines() == [SWEEP_HEADER] + sorted(want)
        counts = re.fullmatch(r"sweep: (\d+) grid points? skipped, "
                              r"(\d+) curvature candidates? refused\n", err)
        assert counts and counts.groups() == (str(skipped), str(refused))
        seen["rows"] += len(want)
        seen["skipped"] += skipped
        for row in want:
            index = row.split(",")[4]
            seen[f"index {index}"] = seen.get(f"index {index}", 0) + 1
    assert min(seen.values()) > 0 and seen["index 1"] > 0, seen


def test_sweep_product_family(capsys):
    code, out, _ = run(capsys, "sweep", "--family", "product-spheres",
                       "--rho", "0.5:1.5:0.5")
    lines = out.strip().splitlines()
    assert code == 0 and len(lines) == 4
    for row in lines[1:]:
        fields = row.split(",")
        assert (fields[4], fields[5]) == ("2", "3")
        assert fields[7] == "true"


def test_sweep_argument_validation(capsys):
    assert run(capsys, "sweep", "--family", "so4-so2", "--lambda", "0.5",
               "--s", "0.5")[0] == 2
    assert run(capsys, "sweep", "--family", "spin3", "--s", "0.5",
               "--t", "1.0")[0] == 2
    assert run(capsys, "sweep", "--family", "product-spheres",
               "--rho", "1:0.5:0.1")[0] == 2
    assert run(capsys, "sweep", "--family", "so4-so2", "--lambda", "x",
               "--s", "0.5", "--coupled")[0] == 2


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--family", "spin3", "--s", "0.1:0.9:0"],
     "--s: step must be positive"),
    (["sweep", "--family", "spin3", "--s", "0.1:0.9:-0.1"],
     "--s: step must be positive"),
    (["sweep", "--family", "so4-so2", "--lambda", "0.5", "--s", "0.5",
      "--coupled", "--rho", "1"], "--rho does not apply to so4-so2"),
    (["sweep", "--family", "so4-so2", "--lambda", "0.5", "--coupled"],
     "so4-so2 needs --lambda and --s"),
    (["sweep", "--family", "so4-so2", "--s", "0.5", "--coupled"],
     "so4-so2 needs --lambda and --s"),
    (["sweep", "--family", "spin3", "--lambda", "0.5", "--s", "0.5"],
     "spin3 sweeps take only --s or --t"),
    (["sweep", "--family", "spin3", "--rho", "1", "--s", "0.5"],
     "spin3 sweeps take only --s or --t"),
    (["sweep", "--family", "spin3", "--s", "0.5", "--coupled"],
     "--coupled does not apply to spin3"),
    (["sweep", "--family", "product-spheres", "--rho", "1", "--s", "0.5"],
     "product-spheres sweeps take only --rho"),
    (["sweep", "--family", "product-spheres", "--rho", "1", "--coupled"],
     "product-spheres sweeps take only --rho"),
    (["sweep", "--family", "product-spheres"],
     "product-spheres needs --rho"),
    (["catalog", "emit"], "catalog emit needs a name"),
])
def test_a_flag_combination_that_does_not_apply_is_a_usage_error(
        capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"error: {message}" in err


@pytest.mark.parametrize("grid", ["nan:1:0.1", "0.1:1:nan", "0.1:inf:0.1",
                                  "-inf:1:0.1", "0.1:1:inf", "nan"])
def test_a_sweep_grid_must_be_finite(capsys, grid):
    """A NaN or infinite start, stop or step would never reach the end of
    the grid; it is a usage error."""
    code, out, err = run(capsys, "sweep", "--family", "spin3", f"--s={grid}")
    assert code == 2 and out == ""
    assert f"--s: values must be finite, got {grid!r}" in err


@pytest.mark.parametrize("argv", [
    ["--family", "spin3", "--s", "0.1:1:1e-12"],
    ["--family", "spin3", "--t", "0:1:1e-5"],  # 100 001 points
    ["--family", "product-spheres", "--rho=-1e308:1e308:1"],
    ["--family", "so4-so2", "--lambda", "0.1:1:1e-3", "--s", "0.1:1:1e-3",
     "--t", "0.1:1:1e-2"],  # 901 x 901 x 91 points over the axes
])
def test_a_sweep_grid_is_counted_before_it_is_filled(capsys, argv):
    """A grid of more than MAX_GRID_POINTS points, on one axis or over all,
    is a usage error, decided before its points are built."""
    (code, out, err), peak = traced_peak(lambda: run(capsys, "sweep", *argv))
    assert code == 2 and out == ""
    assert f"MAX_GRID_POINTS = {cli.MAX_GRID_POINTS}" in err
    assert peak < 2 ** 20


def test_a_sweep_grid_may_have_max_grid_points(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_GRID_POINTS", 4)
    assert run(capsys, "sweep", "--family", "spin3", "--s", "0.1:0.4:0.1")[0] == 0
    assert run(capsys, "sweep", "--family", "spin3", "--s", "0.1:0.5:0.1")[0] == 2
    assert run(capsys, "sweep", "--family", "so4-so2", "--lambda", "0.5",
               "--s", "0.5:1:0.5", "--t", "0.5:1:0.5")[0] == 0
    code, _, err = run(capsys, "sweep", "--family", "so4-so2", "--lambda",
                       "0.5", "--s", "0.5:1:0.5", "--t", "0.5:1.5:0.5")
    assert code == 2
    assert "the grid has more than MAX_GRID_POINTS = 4 points" in err


def test_a_sweep_that_refuses_every_point_prints_the_header_alone(capsys):
    """t = 2 is the excluded round metric, the grid's one point."""
    code, out, err = run(capsys, "sweep", "--family", "spin3", "--t", "2")
    assert code == 0
    assert out == SWEEP_HEADER + "\n"
    assert err == "sweep: 1 grid point skipped, 0 curvature candidates refused\n"


@pytest.mark.parametrize("name", ["round-sphere:1e300", "round-sphere:100000",
                                  f"round-sphere:{catalog.MAX_SPHERE_DIM + 1}"])
def test_catalog_emit_refuses_a_sphere_above_the_limit(capsys, name):
    code, out, err = run(capsys, "catalog", "emit", name)
    assert code == 2 and out == ""
    assert err == (f"error: sphere dimension must be at most MAX_SPHERE_DIM "
                   f"= {catalog.MAX_SPHERE_DIM}\n")


def test_jacobi_direction(capsys, quotient_file):
    code, out, _ = run(capsys, "jacobi", "--space", quotient_file,
                       "--direction", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["direction_index"] == 0
    assert payload["psd_ok"] is True
    assert len(payload["eigenvectors"]) == sum(payload["multiplicities"]) == 5
    assert len(payload["eigenvalues"]) == len(payload["multiplicities"])


def jacobi_on(capsys, tmp_path, name, direction):
    """The JSON that ``jacobi --direction`` prints on catalog ``name``."""
    path = tmp_path / "space.json"
    path.write_text(run(capsys, "catalog", "emit", name)[1])
    code, out, err = run(capsys, "jacobi", "--space", str(path),
                         "--direction", str(direction))
    assert code == 0, err
    return json.loads(out)


def test_jacobi_on_the_unit_sphere_reads_curvature_one(capsys, tmp_path):
    """spin3:1,1,1 is the round sphere of radius one (its basis orbits close
    at length 2 pi), so R(., c')c' is 0 along c' and 1 on its complement."""
    payload = jacobi_on(capsys, tmp_path, "spin3:1,1,1", 0)
    np.testing.assert_allclose(payload["eigenvalues"], [0.0, 1.0],
                               atol=1e-12)
    assert payload["multiplicities"] == [1, 2] and payload["psd_ok"]


def test_jacobi_reads_the_negative_curvature_of_a_generic_metric(
        capsys, tmp_path):
    """On spin3:1,2,3 along its first basis direction a plane has sectional
    curvature -4/3: the spectrum is -4/3, 0, 4/3, not positive
    semidefinite."""
    payload = jacobi_on(capsys, tmp_path, "spin3:1,2,3", 0)
    np.testing.assert_allclose(payload["eigenvalues"], [-4 / 3, 0.0, 4 / 3],
                               atol=1e-12)
    assert payload["multiplicities"] == [1, 1, 1]
    assert payload["psd_ok"] is False


def test_jacobi_answers_a_geodesic_whose_double_bracket_was_not_self_adjoint(
        capsys, tmp_path):
    """Direction 2 of so4-so2:0.5,0.8 is a geodesic; its curvature operator
    has a negative eigenvalue."""
    payload = jacobi_on(capsys, tmp_path, "so4-so2:0.5,0.8", 2)
    assert payload["eigenvalues"][0] == pytest.approx(-0.1612, abs=5e-5)
    assert payload["psd_ok"] is False
    assert payload["selfadjoint_residual"] < 1e-12


def test_a_squashed_sweep_reads_negative_curvature(capsys):
    """The Berger spheres (t, t, 2) at t = 0.5 and 1 have a curvature
    candidate with a negative eigenvalue (-16 and -2), so psd_ok is false
    on both rows."""
    code, out, err = run(capsys, "sweep", "--family", "spin3",
                         "--t", "0.5:1:0.5")
    assert code == 0, err
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [row[2] for row in rows] == ["0.5", "1"]
    assert [row[7] for row in rows] == ["false", "false"]


def test_jacobi_rejects_out_of_range_direction(capsys, quotient_file):
    code = run(capsys, "jacobi", "--space", quotient_file,
               "--direction", "9")[0]
    assert code == 2


def test_jacobi_on_the_point_says_there_is_no_direction(capsys, tmp_path):
    """A zero-dimensional space has no tangent direction to name, so the
    refusal says so instead of printing the empty range 0..-1."""
    path = tmp_path / "point.json"
    path.write_text(json.dumps({
        "algebra": {"dim": 0, "labels": [], "structure": []},
        "isotropy": [], "complement": [], "metric": []}))
    code, out, err = run(capsys, "jacobi", "--space", str(path),
                         "--direction", "0")
    assert (code, out) == (2, "")
    assert "this space has no tangent directions" in err
    assert "0..-1" not in err


def test_jacobi_non_geodesic_direction_fails_cleanly(capsys, tmp_path):
    path = tmp_path / "sq3.json"
    doc = space_to_dict(spin3_berger(3.0)[0])
    # replace the complement by one whose first column is not geodesic
    mixed = np.array(doc["complement"], dtype=float)
    doc["complement"] = [(mixed[0] + mixed[2]).tolist(), mixed[1].tolist(),
                         mixed[2].tolist()]
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "jacobi", "--space", str(path),
                       "--direction", "0")
    assert code == 1
    assert "geodesic" in err


def test_catalog_list_and_emit(capsys, tmp_path):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    assert "round-sphere:<n>" in out.splitlines()

    code, out, _ = run(capsys, "catalog", "emit", "so4-so2:0.5,0.6")
    assert code == 0
    emitted = tmp_path / "emitted.json"
    emitted.write_text(out)
    code, out, _ = run(capsys, "index", "--space", str(emitted))
    assert code == 0
    assert json.loads(out)["transvection"]["index"] == 2


def negative_zeros(value) -> int:
    """The number of -0.0 among the numbers of a JSON value."""
    if isinstance(value, dict):
        return sum(negative_zeros(v) for v in value.values())
    if isinstance(value, list):
        return sum(negative_zeros(v) for v in value)
    return int(isinstance(value, float) and value == 0.0
               and np.signbit(value))


@pytest.mark.parametrize("name", [
    *(f"round-sphere:{n}" for n in (1, 2, 4, 7)),
    "so4-so2:0.5,0.8", "so4-so2:0.3,1.2,0.4", "spin3:1,2,3", "spin3:1,1,1",
    "product-spheres:2.5", "cp2-centriole"])
def test_catalog_emit_prints_no_negative_zero(capsys, name):
    """matrix_algebra negates no zero coefficient, and the isotropy,
    complement and metric of a document are written with +0.0."""
    code, out, _ = run(capsys, "catalog", "emit", name)
    assert code == 0
    assert negative_zeros(json.loads(out)) == 0


def test_catalog_emit_unknown_name(capsys):
    code, _, err = run(capsys, "catalog", "emit", "moebius:1")
    assert code == 2
    assert "unknown catalog name" in err


@pytest.mark.parametrize("name", ["round-sphere:1e400", "so4-so2:0.5,0.5,nan",
                                  "spin3:nan,1,1", "product-spheres:inf",
                                  "so4-so2:-inf,0.5"])
def test_catalog_emit_refuses_a_non_finite_parameter(capsys, name):
    code, out, err = run(capsys, "catalog", "emit", name)
    assert code == 2 and out == ""
    assert err == f"error: catalog name {name!r} has a non-finite parameter\n"


def test_tolerance_sources(capsys, quotient_file, monkeypatch):
    assert run(capsys, "index", "--space", quotient_file,
               "--tol", "1e-8")[0] == 0
    monkeypatch.setenv("SYMIDX_TOL", "1e-8")
    assert run(capsys, "index", "--space", quotient_file)[0] == 0
    monkeypatch.setenv("SYMIDX_TOL", "not-a-number")
    assert run(capsys, "index", "--space", quotient_file)[0] == 2


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "1", "1e-15",
                                 "1e-17"])
def test_a_tolerance_outside_zero_one_is_a_usage_error(capsys, quotient_file,
                                                        tol):
    """A cutoff of 0 or less keeps noise singular values and one of 1 or
    more drops genuine ones: on the index-2 quotient, --tol 0 and -1 used
    to print index 0 and --tol nan a false overlap error.  Below MIN_TOL
    roundoff decides: --tol 1e-17 printed index 0 on the same quotient."""
    for argv in (["index", "--space", quotient_file],
                 ["sweep", "--family", "so4-so2", "--lambda", "0.5",
                  "--s", "0.8", "--coupled"]):
        code, out, err = run(capsys, *argv, f"--tol={tol}")
        assert (code, out) == (2, "")
        assert f"--tol={float(tol)}: tolerance" in err
        assert "not a number in [MIN_TOL, 1)" in err


def test_the_coupled_grid_is_right_at_the_tolerance_floor(capsys):
    """At MIN_TOL every point of the 190-point coupled grid reads the
    published index 2; at 1e-15, now refused, five of them read 0."""
    from symidx.liealg import MIN_TOL
    code, out, _ = run(capsys, "sweep", "--family", "so4-so2",
                       "--lambda", "0.1:1:0.1", "--s", "0.1:1.9:0.1",
                       "--coupled", f"--tol={MIN_TOL!r}")
    rows = [row.split(",") for row in out.splitlines()[1:]]
    assert code == 0 and len(rows) == 190
    assert {row[4] for row in rows} == {"2"}


@pytest.mark.parametrize("tol", ["nan", "0", "-1e-9", "1e-15"])
def test_a_nonsense_tolerance_in_the_environment_is_a_usage_error(
        capsys, quotient_file, monkeypatch, tol):
    monkeypatch.setenv("SYMIDX_TOL", tol)
    code, out, err = run(capsys, "index", "--space", quotient_file)
    assert (code, out) == (2, "")
    assert f"SYMIDX_TOL={tol}: tolerance" in err


@pytest.mark.parametrize("name, builder", [
    ("round-sphere:2", "round_sphere"),
    ("so4-so2:0.5,0.8,1.20000001", "so4_so2"),
    ("spin3:1,2,3", "spin3_metric"),
    ("product-spheres:0.7", "product_of_spheres"),
    ("cp2-centriole", "cp2_centriole"),
])
def test_catalog_emit_builds_the_space_at_the_given_tolerance(
        capsys, monkeypatch, name, builder):
    seen = []

    def recording(*args, inner=getattr(catalog, builder), **kwargs):
        sp, info = inner(*args, **kwargs)
        seen.append(sp.tol)
        return sp, info

    monkeypatch.setattr(catalog, builder, recording)
    assert run(capsys, "catalog", "emit", name, "--tol", "1e-5")[0] == 0
    assert run(capsys, "catalog", "emit", name)[0] == 0
    assert seen == [1e-5, 1e-9]


def _recording_tolerances(monkeypatch):
    """The tolerances of the spaces (index) and presentations (sweep) whose
    index the CLI computes."""
    seen = []
    for name in ("transvection_space", "transvection_stack"):
        def recording(pres, *args, inner=getattr(cli, name)):
            seen.append(pres.tol)
            return inner(pres, *args)

        monkeypatch.setattr(cli, name, recording)
    return seen


def test_tol_decides_the_index_near_the_coupled_stratum(capsys, tmp_path,
                                                        monkeypatch):
    """``--tol`` reaches the space and with it every rank decision: 1e-8
    off the coupled stratum the index is 0 at the default and 2 at 1e-5."""
    seen = _recording_tolerances(monkeypatch)
    path = tmp_path / "near.json"
    path.write_text(json.dumps(space_to_dict(so4_so2(0.5, 0.8, 1.2 + 1e-8)[0])))
    code, out, _ = run(capsys, "index", "--space", str(path))
    assert code == 0
    assert json.loads(out)["transvection"]["index"] == 0
    code, out, _ = run(capsys, "index", "--space", str(path), "--tol", "1e-5")
    assert code == 0
    assert json.loads(out)["transvection"]["index"] == 2

    code, out, _ = run(capsys, "sweep", "--family", "so4-so2", "--lambda",
                       "0.5", "--s", "0.8", "--t", "1.20000001",
                       "--tol", "1e-5")
    assert code == 0
    assert out.splitlines() == [SWEEP_HEADER,
                                "0.5,0.8,1.20000001,,2,3,3,false,12,12,true"]
    assert seen == [1e-9, 1e-5, 1e-5]


def test_usage_errors_exit_with_two(capsys):
    assert main(["index"]) == 2  # --space is required
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_every_json_command_prints_what_json_dumps_prints(capsys, tmp_path):
    """Each JSON command's standard output is the text of ``json.dumps(...,
    indent=2, sort_keys=True)`` of what it prints, byte for byte, with no
    frozen digest to compare against: on one catalog name per family, their
    documents and an inline document without a complement."""
    def printed(*argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2,
                                 sort_keys=True) + "\n"
        return out

    paths = []
    for name in ("round-sphere:3", "so4-so2:0.5,0.8,1.2", "spin3:0.5,1.5,2",
                 "product-spheres:0.5", "cp2-centriole"):
        paths.append(tmp_path / (name.replace(":", "_") + ".json"))
        paths[-1].write_text(printed("catalog", "emit", name))
    paths.append(tmp_path / "so6_so5.json")
    paths[-1].write_text(json.dumps(sphere_document(5)))
    for path in paths:
        printed("index", "--space", str(path))
        printed("jacobi", "--space", str(path), "--direction", "0")
    printed("index", "--space", str(paths[2]), "--augment")
    printed("verify", "--filter", "structure-tensor-validation")


def test_the_output_digests_script_lists_each_output_once(capsys,
                                                          monkeypatch):
    """``tests/output_digests.py``, the byte-identity check between two
    checkouts, on two names: one digest line per output, in a fixed order,
    each of a run that succeeded, and the same digests on a second run."""
    script = str(pathlib.Path(__file__).with_name("output_digests.py"))
    names = ("spin3:1,1,1", "product-spheres:1")
    monkeypatch.setattr(sys, "argv", [script, *names])
    namespace = runpy.run_path(script, run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" ", 1)[1] for line in lines] == [
        label for name in names
        for dim in [catalog.from_name(name)[0].dim] for label in (
            f"catalog emit {name}",
            *(f"index {name} --tol {tol}" for tol in namespace["INDEX_TOLS"]),
            *(f"jacobi {name} --direction {i}" for i in range(dim)),
            *([f"index {name} --augment"] if name.startswith("spin3:")
              else []))]
    again = list(namespace["outputs"](names))
    assert all(code == 0 and out for _, (code, out, _) in again)
    assert lines == [f"{namespace['digest'](*result)} {label}"
                     for label, result in again]
