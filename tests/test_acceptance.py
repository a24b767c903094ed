"""End-to-end acceptance run.

Each numbered criterion below maps to one or more bundled verification
checks; a test passes only if every mapped check reports "pass".  One
summary line per criterion is written straight to the terminal so the
output reads as a checklist even under capture.
"""

import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest

from meaning import coupled_by_space, same_bits, uncoupled_by_space
from symidx import catalog, homspace, numcheck, verify
from symidx.cli import main
from symidx.homspace import (
    BoundReport,
    Presentation,
    TransvectionReport,
    _unstack,
    jacobi_operator,
    symmetry_ideal,
    symmetry_ideals,
    transvection_space,
)
from symidx.liealg import BilinearForm, Subspace
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
    nablas = verify._nablas

    def off_by_one_entry(pres, grams):
        wrong = nablas(pres, grams).copy()
        wrong[:, 0, 0, 1] += 1e-5  # field 0 of every metric
        return wrong

    monkeypatch.setattr(verify, "_nablas", off_by_one_entry)
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


@pytest.mark.parametrize("spectrum, message", [
    (lambda w: np.arange(1.0, len(w) + 1.0), "eigenvalue multiplicities"),
    (lambda w: w + 0.5 * w[0], "squashing parameter"),
], ids=["distinct", "shifted"])
def test_centriole_check_catches_a_wrong_pencil_spectrum(monkeypatch,
                                                         spectrum, message):
    """The shape check derives its multiplicities and its squashing
    parameter from the pencil eigenvalues: three distinct ones fail it on
    the multiplicities, and a shifted spectrum on the parameter."""
    pencil_eigh = verify.pencil_eigh

    def perturbed(*args, **kwargs):
        w, vecs = pencil_eigh(*args, **kwargs)
        return spectrum(w), vecs

    monkeypatch.setattr(verify, "pencil_eigh", perturbed)
    outcomes = run_checks("cp2-centriole-shape")
    assert len(outcomes) == 1
    assert outcomes[0].status == "fail"
    assert message in outcomes[0].detail


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


def assert_same_report(got, want):
    for name in ("p_space", "k_space", "s_space"):
        assert same_bits(getattr(got, name).basis,
                         getattr(want, name).basis), name
    assert (got.index, got.involutive_ok) == (want.index, want.involutive_ok)


def scaled_pairs():
    """Each space of the invariant-residuals check with its 2.5x scaled
    copy, and the two reports the check decides by one stacked call with
    the stacked result they come from."""
    for sp in verify._residual_spaces():
        scaled = sp.space(BilinearForm(2.5 * sp.metric.gram),
                          sp.label + " scaled")
        yield sp, scaled, verify._reports(sp, [sp, scaled])


@pytest.mark.parametrize("metrics", [verify._COUPLED_METRICS,
                                     verify._UNCOUPLED_METRICS],
                         ids=["coupled", "uncoupled"])
def test_stacked_quotient_reports_match_one_space_at_a_time(metrics):
    """The so4-so2 checks decide each slope's metrics by one stacked call;
    each metric's Koszul derivatives and report, read from the stacked
    arrays, are those of its own space, bit for bit."""
    slopes = list(verify._quotients(metrics))
    assert len(slopes) == len(verify._SLOPES)
    for _, pres, grams, nablas, stack in slopes:
        reports = _unstack(TransvectionReport, stack)
        assert len(grams) == len(nablas) == len(reports) == len(metrics)
        for gram, nabla, rep in zip(grams, nablas, reports):
            sp = pres.space(BilinearForm(gram))
            assert same_bits(nabla, sp._nabla_basis)
            assert_same_report(rep, transvection_space(sp))


QUOTIENT_CHECKS = {"so4-so2-coupled": coupled_by_space,
                   "so4-so2-uncoupled-derivative-oracle": uncoupled_by_space}


def run_as(monkeypatch, name, body):
    """The outcome of the check ``name`` with ``body`` in place of its own."""
    monkeypatch.setattr(verify, "CHECKS", tuple(
        (check, provenance, body if check == name else fn)
        for check, provenance, fn in verify.CHECKS))
    (outcome,) = run_checks(name)
    return outcome


def same_outcome(a, b) -> bool:
    """Equal status and detail, and expected and actual values of equal
    types and bits (the repr of a float round-trips)."""
    return ((a.status, a.detail, repr(a.expected), repr(a.actual))
            == (b.status, b.detail, repr(b.expected), repr(b.actual)))


@pytest.mark.parametrize("name", QUOTIENT_CHECKS)
def test_stacked_quotient_checks_equal_the_per_metric_route(monkeypatch,
                                                             name):
    """Each so4-so2 check, one stack a slope, gives the outcome of its body
    run one space, one report and one chart per metric, bit for bit."""
    (got,) = run_checks(name)
    assert got.status == "pass"
    assert same_outcome(got, run_as(monkeypatch, name, QUOTIENT_CHECKS[name]))


def test_the_quotient_checks_decide_each_slope_as_one_stack(monkeypatch):
    """The uncoupled check walks the chart's power series once a slope, 3
    times, and the two so4-so2 checks make no space and no
    TransvectionReport; the per-metric route, counted alike, walks it 9
    times and makes 21 of each."""
    counts = dict.fromkeys(("series", "space", "report"), 0)
    series, space = numcheck._exp_and_differential, Presentation.space

    def counted_series(a):
        counts["series"] += 1
        return series(a)

    def counted_space(self, *args, **kwargs):
        counts["space"] += 1
        return space(self, *args, **kwargs)

    class CountedReport(TransvectionReport):
        def __init__(self, *args, **kwargs):
            counts["report"] += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(numcheck, "_exp_and_differential", counted_series)
    monkeypatch.setattr(Presentation, "space", counted_space)
    for module in (homspace, verify):
        monkeypatch.setattr(module, "TransvectionReport", CountedReport)
    outcomes = run_checks("so4-so2")
    assert [o.status for o in outcomes] == ["pass", "pass"]
    assert counts == {"series": 3, "space": 0, "report": 0}
    for name, body in QUOTIENT_CHECKS.items():
        assert run_as(monkeypatch, name, body).status == "pass"
    assert counts == {"series": 3 + 9, "space": 21, "report": 21}


@pytest.mark.parametrize("name", QUOTIENT_CHECKS)
def test_a_refused_quotient_metric_fails_as_its_space_refuses_it(
        monkeypatch, name):
    """A metric of each check whose weighted j and k entries differ is not
    invariant: the stacked metric rule fails the check with the message
    that making it a space raises, the per-metric route's detail."""
    gram = catalog.so4_so2_gram

    def uneven(s, t):
        g = gram(s, t)
        if s in (0.8, 1.0):  # the second metric of either check
            g[3, 3] *= 1.5
        return g

    monkeypatch.setattr(catalog, "so4_so2_gram", uneven)
    (got,) = run_checks(name)
    assert got.status == "fail"
    assert got.detail.startswith("ValueError: isotropy vector 0 does not act "
                                 "skew-symmetrically for the metric")
    assert same_outcome(got, run_as(monkeypatch, name, QUOTIENT_CHECKS[name]))


def test_stacked_residual_reports_and_bounds_match_one_space_at_a_time():
    """invariant-residuals decides a space and its scaled copy by one
    stacked report call and one symmetry_ideals call: each report is
    transvection_space's bit for bit, each bound symmetry_ideal's."""
    count = 0
    for sp, scaled, (reports, stack) in scaled_pairs():
        count += 1
        assert_same_report(reports[0], transvection_space(sp))
        assert_same_report(reports[1], transvection_space(scaled))
        bounds = _unstack(BoundReport, symmetry_ideals(sp, stack))
        for got, want in zip(bounds, [symmetry_ideal(sp, reports[0]),
                                      symmetry_ideal(scaled, reports[1])]):
            assert same_bits(got.gD.basis, want.gD.basis)
            assert same_bits(got.g_prime.basis, want.g_prime.basis)
            assert ((got.k, got.lhs, got.rhs, got.equality)
                    == (want.k, want.lhs, want.rhs, want.equality))
    assert count == 10


def test_batched_parallel_curvature_matches_jacobi_operator():
    """The one batched curvature evaluation of invariant-residuals, by
    _curvature and _stacked_psd, gives per parallel field jacobi_operator's
    unit direction, operator, self-adjointness residual and psd_ok, bit for
    bit, and so the norm of the operator along the direction; on the
    tangent basis fields and on seeded random fields, which are mostly not
    geodesic, it refuses exactly where jacobi_operator raises, with its
    message, and elsewhere agrees bit for bit as well."""
    rng = np.random.default_rng(36)
    seen = {"parallel": 0, "basis": 0, "random": 0, "refused": 0}
    for sp, _, ((rep, _), _) in scaled_pairs():
        gram = sp.metric.gram[None]
        for kind, fields in (("parallel", rep.p_space.basis),
                             ("basis", sp.m_basis),
                             ("random", rng.standard_normal(
                                 (sp.algebra.dim, 3)))):
            curvature = verify._curvature(sp, gram, sp._nabla_basis[None],
                                          fields[None])
            psd = verify._stacked_psd(gram, curvature[-1])[0]
            xn, residuals, first, ops, lowered = (v[0] for v in curvature)
            for col, x in enumerate(fields.T):
                try:
                    spec = jacobi_operator(sp, x)
                except ValueError as exc:
                    assert kind != "parallel", exc
                    seen["refused"] += 1
                    with pytest.raises(ValueError) as caught:
                        verify._refuse_curvature(first[col], residuals[col])
                    assert str(caught.value) == str(exc)
                    continue
                verify._refuse_curvature(first[col], residuals[col])
                assert same_bits(xn[col], spec.direction)
                assert same_bits(ops[col], spec.operator)
                go = lowered[col]
                assert same_bits(np.abs(go - go.T).max(initial=0.0),
                                 spec.selfadjoint_residual)
                assert psd[col] == spec.psd_ok
                seen[kind] += 1
    assert seen["parallel"] == 15 and seen["basis"] and seen["refused"], seen


def residual_failure(monkeypatch, name, wrap) -> str:
    """The detail of a failing invariant-residuals run with verify's
    ``name`` wrapped by ``wrap``."""
    monkeypatch.setattr(verify, name, wrap(getattr(verify, name)))
    outcomes = run_checks("invariant-residuals")
    assert [o.status for o in outcomes] == ["fail"]
    return outcomes[0].detail


def test_invariant_residuals_catch_an_operator_that_moves_its_direction(
        monkeypatch):
    def wrap(curvature):
        def shifted(*args):
            *values, op, go = curvature(*args)
            return (*values, op + 1e-6 * np.eye(op.shape[-1]), go)
        return shifted

    detail = residual_failure(monkeypatch, "_curvature", wrap)
    assert "does not vanish along its own direction" in detail


def test_invariant_residuals_catch_a_scaled_report_that_moves(monkeypatch):
    """A scaled copy whose parallel fields swap one for an isotropy field
    has the same index and another p_space."""
    def wrap(reports):
        def moved(pres, spaces):
            found, stack = reports(pres, spaces)
            p = found[-1].p_space.basis
            found[-1] = dataclasses.replace(found[-1], p_space=Subspace(
                pres.algebra.dim, np.hstack([p[:, 1:], pres.h_basis[:, :1]])))
            return found, stack
        return moved

    detail = residual_failure(monkeypatch, "_reports", wrap)
    assert detail.endswith("subspace reports change under metric scaling")


def test_invariant_residuals_report_a_refused_scaled_metric(monkeypatch):
    """A scaled copy whose metric is refused fails the check with the
    refusal, not with an error on a missing report."""
    detail = residual_failure(monkeypatch, "BilinearForm",
                              lambda form: lambda gram: form(-gram))
    assert detail == "ValueError: metric is not positive definite"
