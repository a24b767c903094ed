import functools
import json
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import symidx
from meaning import assert_same_report, assert_same_spectrum
from symidx.catalog import (
    product_of_spheres,
    round_sphere,
    so4_so2,
    spin3_berger,
)
from symidx import catalog, cli, homspace, verify
from symidx.cli import SWEEP_HEADER, main
from symidx.homspace import jacobi_operator, transvection_space
from symidx.liealg import canonical_basis
from symidx.serialize import load_space, space_to_dict


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
        assert_same_spectrum(payload["eigenvalues"], [0.0] + [1.0] * (n - 1))
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


def test_scipy_is_not_imported(tmp_path):
    sphere = tmp_path / "sphere.json"
    sphere.write_text(json.dumps(space_to_dict(round_sphere(3)[0])))
    script = f"""
import contextlib, io, sys
import symidx
assert "scipy" not in sys.modules, "import symidx"
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
    assert "scipy" not in sys.modules, argv
"""
    _run_script(script)


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

    monkeypatch.setattr(cli, "_emit_json", closed)
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


def test_sweep_counts_the_refused_curvature_candidates(capsys):
    """The stderr summary counts the candidates jacobi_operator raises on;
    stdout holds the CSV alone."""
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
    assert swallowed > 0
    assert err == (f"sweep: 0 grid points skipped, {swallowed} curvature "
                   f"candidates refused\n")


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
    transvection_stack and one symmetry_ideals call with the reports of
    all its kept points; the one-report symmetry_ideal is never called."""
    calls = {"stack": 0, "ideals": 0, "points": 0}

    def counted(key, inner):
        def call(pres, items):
            calls[key] += 1
            out = inner(pres, items)
            if key == "ideals":
                calls["points"] += sum(item is not None for item in items)
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
    seen = {"rows": 0, "skipped": 0, "refused": 0, "index 0": 0,
            "index 2": 0}
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
        seen["refused"] += refused
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
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "sweep", *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
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
    assert len(payload["eigenvalues"]) == 5


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


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "1"])
def test_a_tolerance_outside_zero_one_is_a_usage_error(capsys, quotient_file,
                                                        tol):
    """A cutoff of 0 or less keeps noise singular values and one of 1 or
    more drops genuine ones: on the index-2 quotient, --tol 0 and -1 used
    to print index 0 and --tol nan a false overlap error."""
    for argv in (["index", "--space", quotient_file],
                 ["sweep", "--family", "so4-so2", "--lambda", "0.5",
                  "--s", "0.8", "--coupled"]):
        code, out, err = run(capsys, *argv, f"--tol={tol}")
        assert (code, out) == (2, "")
        assert f"--tol={float(tol)}: tolerance" in err
        assert "not a number in (0, 1)" in err


@pytest.mark.parametrize("tol", ["nan", "0", "-1e-9"])
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
                                "0.5,0.8,1.20000001,,2,3,3,true,12,12,true"]
    assert seen == [1e-9, 1e-5, 1e-5]


def test_usage_errors_exit_with_two(capsys):
    assert main(["index"]) == 2  # --space is required
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
