"""End-to-end acceptance run.

Each numbered criterion below maps to one or more bundled verification
checks; a test passes only if every mapped check reports "pass".  One
summary line per criterion is written straight to the terminal so the
output reads as a checklist even under capture.
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from symidx import catalog, verify
from symidx.cli import main
from symidx.homspace import HomogeneousSpace
from symidx.serialize import plain
from symidx.verify import CHECK_NAMES, run_checks

CRITERIA = [
    (1, "round spheres S^2..S^5: index n, flat-or-unit spectra, psd",
     ["round-sphere-index"]),
    (2, "circle quotients of Spin(4): coupled grid has index 2, "
        "uncoupled grid has index 0 with the derivative oracle in agreement",
     ["so4-so2-coupled", "so4-so2-uncoupled-derivative-oracle"]),
    (3, "dimension bound: equality cases report 12=12 (k=3) and 6=6 (k=2)",
     ["symmetry-bound-equalities"]),
    (4, "products of spheres match the quotient family and its "
        "perpendicular fields",
     ["product-spheres-formulas"]),
    (5, "three-sphere metrics: one-parameter line, augmented squashed "
        "family, bi-invariant and generic cases",
     ["spin3-line", "spin3-berger-augmented"]),
    (6, "curvature operators: psd with a kernel along each symmetry "
        "direction, closed-form fields match the integrated oracle",
     ["curvature-operator-oracle", "invariant-residuals"]),
    (7, "centriole orbit in the complex projective plane: dimensions, "
        "coindex and frozen squashing parameter",
     ["cp2-centriole-shape"]),
    (8, "structural residuals on every catalog space: skewness, "
        "involutivity, trace-form invariance, scaling invariance",
     ["invariant-residuals"]),
]


def announce(capsys, number, ok, description):
    with capsys.disabled():
        print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {description}")


@pytest.mark.parametrize("number,description,names",
                         CRITERIA, ids=[str(c[0]) for c in CRITERIA])
def test_acceptance_criterion(capsys, number, description, names):
    outcomes = []
    for name in names:
        found = [o for o in run_checks(name) if o.check == name]
        assert found, f"no check named {name}"
        outcomes.extend(found)
    ok = all(o.status == "pass" for o in outcomes)
    announce(capsys, number, ok, description)
    details = "; ".join(f"{o.check}: {o.detail}" for o in outcomes
                        if o.status != "pass")
    assert ok, details


def test_full_registry_is_green():
    outcomes = run_checks()
    assert [o.check for o in outcomes] == list(CHECK_NAMES)
    failing = [o.check for o in outcomes if o.status != "pass"]
    assert not failing, f"failing checks: {failing}"


def corrupt_structure_tensors(monkeypatch):
    """Make the structure validation check rebuild a corrupted tensor."""
    lie_algebra = verify.LieAlgebra

    def corrupted(dim, labels, structure, *args, **kwargs):
        broken = structure.copy()
        broken[0, 1, 2] += 1e-3
        return lie_algebra(dim, labels, broken, *args, **kwargs)

    monkeypatch.setattr(verify, "LieAlgebra", corrupted)


def test_negative_control_fails_the_run(monkeypatch):
    """A corrupted structure tensor must be caught, proving the checks
    can fail at all."""
    corrupt_structure_tensors(monkeypatch)
    outcomes = run_checks("structure")
    assert len(outcomes) == 1
    assert outcomes[0].status == "fail"
    assert "antisymmetric" in outcomes[0].detail


def test_derivative_oracle_catches_a_wrong_base_formula(monkeypatch, capsys):
    """The finite-difference oracle must disagree with a Koszul derivative
    that is off by 1e-5 in one entry, so it does not compare a route with
    itself."""
    nabla_at_base = HomogeneousSpace.nabla_at_base

    def off_by_one_entry(self, x):
        wrong = nabla_at_base(self, x).copy()
        wrong[0, 1] += 1e-5
        return wrong

    monkeypatch.setattr(HomogeneousSpace, "nabla_at_base", off_by_one_entry)
    assert main(["verify", "--filter", "uncoupled"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [o["check"] for o in payload] == [
        "so4-so2-uncoupled-derivative-oracle"]
    assert payload[0]["status"] == "fail"
    assert "finite difference oracle" in payload[0]["detail"]


def test_integrated_oracle_catches_a_wrong_closed_form(monkeypatch):
    """The Runge-Kutta oracle must disagree with closed-form Jacobi fields
    that are off by 1e-4."""
    jacobi_field = verify.jacobi_field

    def perturbed(*args, **kwargs):
        return jacobi_field(*args, **kwargs) + 1e-4

    monkeypatch.setattr(verify, "jacobi_field", perturbed)
    outcomes = run_checks("curvature-operator-oracle")
    assert len(outcomes) == 1
    assert outcomes[0].status == "fail"
    assert "closed form and integrated field differ" in outcomes[0].detail


def test_integrated_oracle_catches_a_wrong_integrator(monkeypatch):
    """The closed-form Jacobi fields must disagree with integrated states
    that are off by 1e-4, so the oracle fails from either side."""
    integrate = verify.integrate_field_equation

    def perturbed(*args, **kwargs):
        times, values = integrate(*args, **kwargs)
        return times, values + 1e-4

    monkeypatch.setattr(verify, "integrate_field_equation", perturbed)
    outcomes = run_checks("curvature-operator-oracle")
    assert len(outcomes) == 1
    assert outcomes[0].status == "fail"
    assert "closed form and integrated field differ" in outcomes[0].detail


def test_quotient_checks_build_one_presentation_per_slope(monkeypatch):
    """Both so4-so2 checks validate the quotient once per slope (three
    each), not once per grid point."""
    calls = []
    presentation = catalog.spin4_quotient

    def counted(*args, **kwargs):
        calls.append(args)
        return presentation(*args, **kwargs)

    monkeypatch.setattr(catalog, "spin4_quotient", counted)
    outcomes = run_checks("so4-so2")
    assert [o.status for o in outcomes] == ["pass", "pass"]
    assert len(calls) == 6


def test_every_outcome_carries_its_duration(monkeypatch):
    outcomes = run_checks("spin3")
    corrupt_structure_tensors(monkeypatch)
    outcomes += run_checks("structure")
    assert [o.status for o in outcomes] == ["pass", "pass", "fail"]
    for outcome in outcomes:
        printed = plain(outcome)["duration_ms"]
        assert isinstance(printed, float)
        assert printed == outcome.duration_ms >= 0.0


def test_outcomes_print_by_their_fields(monkeypatch):
    """A passing check, a failed requirement and an unexpected exception
    all print the same keys, the outcome's fields."""
    def failing():
        verify._require(False, "requirement not met")

    def crashing():
        raise RuntimeError("boom")

    monkeypatch.setattr(verify, "CHECKS", (
        ("passing", "trivial", lambda: ({"n": np.int64(2)}, {"n": 2})),
        ("failing", "derived", failing),
        ("crashing", "published", crashing)))
    printed = [plain(outcome) for outcome in run_checks()]
    for entry in printed:
        assert set(entry) == {"check", "status", "provenance", "expected",
                              "actual", "detail", "duration_ms"}
    json.dumps(printed)
    assert [(e["check"], e["status"], e["detail"]) for e in printed] == [
        ("passing", "pass", ""), ("failing", "fail", "requirement not met"),
        ("crashing", "fail", "RuntimeError: boom")]
    assert printed[0]["expected"] == {"n": 2}


@pytest.mark.parametrize("space", [
    catalog.spin3_berger(1.5)[0],  # nothing doubled
    SimpleNamespace(algebra=SimpleNamespace(dim=4), dim=3,  # rank deficient
                    isotropy=SimpleNamespace(basis=np.zeros((4, 1)))),
])
def test_a_space_that_is_not_augmented_fails_the_augmented_checks(space):
    with pytest.raises(verify._CheckFailure,
                       match="space does not look augmented"):
        verify._opposite_directions(space)


def test_every_criterion_names_real_checks():
    for _, _, names in CRITERIA:
        for name in names:
            assert name in CHECK_NAMES
    covered = {name for _, _, names in CRITERIA for name in names}
    # the structure validation is the negative-control fixture, the rest
    # must all be reachable from some criterion
    assert covered == set(CHECK_NAMES) - {"structure-tensor-validation"}


def test_checks_are_deterministic():
    a = run_checks("invariant-residuals")[0]
    b = run_checks("invariant-residuals")[0]
    assert a.status == b.status == "pass"
    np.testing.assert_allclose(a.actual["worst_residual"],
                               b.actual["worst_residual"], rtol=0, atol=0)
