"""End-to-end acceptance run.

Each numbered criterion below maps to one or more bundled verification
checks; a test passes only if every mapped check reports "pass".  One
summary line per criterion is written straight to the terminal so the
output reads as a checklist even under capture.
"""

import dataclasses
import itertools
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
    augment_left_invariant,
    jacobi_operator,
    symmetry_ideal,
    symmetry_ideals,
    transvection_space,
)
from symidx.liealg import DEFAULT_TOL, BilinearForm, Subspace
from symidx.numcheck import ExponentialChart
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


def test_round_sphere_check_catches_shifted_curvature_eigenvalues(
        monkeypatch):
    """The sphere check compares the curvature eigenvalues with 0 and 1:
    a spectrum shifted by 1e-6 fails it on the first sphere."""
    jacobi_operator = verify.jacobi_operator

    def shifted(*args, **kwargs):
        spec = jacobi_operator(*args, **kwargs)
        return dataclasses.replace(spec, eigenvalues=spec.eigenvalues + 1e-6)

    monkeypatch.setattr(verify, "jacobi_operator", shifted)
    outcomes = run_checks("round-sphere-index")
    assert [o.status for o in outcomes] == ["fail"]
    assert outcomes[0].detail.startswith("S^2: curvature eigenvalues")


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


def test_quotient_checks_build_one_presentation_per_check(monkeypatch):
    """Both so4-so2 checks validate the quotient once, one stack of a
    member per slope, not once per slope or per grid point."""
    calls = []
    presentation = catalog.spin4_quotient

    def counted(*args, **kwargs):
        calls.append(args)
        return presentation(*args, **kwargs)

    monkeypatch.setattr(catalog, "spin4_quotient", counted)
    outcomes = run_checks("so4-so2")
    assert [o.status for o in outcomes] == ["pass", "pass"]
    assert len(calls) == 2


#: Per check, its calls of ``spin4_quotient``, ``spin3_presentation`` and
#: ``Presentation.__init__``.
BUILDS = {"spin3-line": (0, 1, 1),
          "spin3-berger-augmented": (0, 1, 5),  # and 4 augmented spaces
          "product-spheres-formulas": (1, 0, 1),
          "invariant-residuals": (1, 1, 7)}  # one a group


@pytest.mark.parametrize("name", BUILDS)
def test_stacked_checks_build_each_presentation_once(monkeypatch, name):
    """Each check decides the metrics that share a presentation as one
    stack: it calls ``spin4_quotient`` and ``spin3_presentation`` at most
    once, and validates one presentation a group, ``Presentation.__init__``,
    beside the augmented spaces of the Berger check, one a metric."""
    counts = {}

    def count(owner, attr):
        fn = getattr(owner, attr)

        def counted(*args, **kwargs):
            counts[attr] = counts.get(attr, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    count(catalog, "spin4_quotient")
    count(catalog, "spin3_presentation")
    count(Presentation, "__init__")
    assert [o.status for o in run_checks(name)] == ["pass"]
    assert tuple(counts.get(attr, 0) for attr in (
        "spin4_quotient", "spin3_presentation", "__init__")) == BUILDS[name]


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
    """Two runs of every check give outcomes equal in every field but
    ``duration_ms``: what ``tests/output_digests.py`` compares by hand."""
    first, second = run_checks(), run_checks()
    assert [o.status for o in first] == ["pass"] * len(CHECK_NAMES)
    for a, b in zip(first, second, strict=True):
        assert a.check == b.check
        assert same_outcome(a, b) and a.provenance == b.provenance, a.check


def assert_same_report(got, want):
    for name in ("p_space", "k_space", "s_space"):
        assert same_bits(getattr(got, name).basis,
                         getattr(want, name).basis), name
    assert (got.index, got.involutive_ok) == (want.index, want.involutive_ok)


def stacked_calls(monkeypatch, name) -> list:
    """``(part, grams, nablas, stack)`` of each ``verify._decided`` call of
    a passing run of the check ``name``: the groups it decides, in order."""
    calls, decided = [], verify._decided

    def captured(pres, grams):
        part, nablas, stack = decided(pres, grams)
        calls.append((part, grams, nablas, stack))
        return part, nablas, stack

    monkeypatch.setattr(verify, "_decided", captured)
    assert [o.status for o in run_checks(name)] == ["pass"]
    return calls


def residual_spaces() -> list:
    """The spaces of invariant-residuals, each built alone by the catalog,
    in the order of the check's groups."""
    augmented = [augment_left_invariant(sp) for sp, _ in (
        catalog.spin3_berger(1.5), catalog.spin3_metric(2.0, 2.0, 2.0))]
    return [sp for sp, _ in (
        catalog.so4_so2(0.5, 0.5), catalog.so4_so2(0.5, 0.5, 1.0),
        catalog.product_of_spheres(1.0), catalog.spin3_one_parameter(0.5),
        catalog.spin3_berger(1.5), catalog.round_sphere(2),
        catalog.round_sphere(3), catalog.cp2_centriole())] + augmented


def scaled_pairs(monkeypatch):
    """Each space of the invariant-residuals check, built alone, with its
    2.5x scaled copy, and the check's own decision of both: the two
    reports, read from the stacked result of the space's group, and that
    group's ``(part, stack, k, count)``, the space at position k of count
    metrics, its scaled copy at count + k.  The group's Gram matrices and
    Koszul derivatives are the space's, bit for bit."""
    spaces = iter(residual_spaces())
    for part, grams, nablas, stack in stacked_calls(monkeypatch,
                                                     "invariant-residuals"):
        count = len(grams) // 2
        reports = _unstack(TransvectionReport, stack, part)
        for k in range(count):
            sp = next(spaces)
            gram = sp.metric.gram
            assert same_bits(grams[k], gram)
            assert same_bits(grams[count + k], 2.5 * gram)
            assert same_bits(nablas[k], sp._nabla_basis)
            scaled = sp.space(BilinearForm(2.5 * gram), sp.label + " scaled")
            yield (sp, scaled, (reports[k], reports[count + k]),
                   (part, stack, k, count))
    assert next(spaces, None) is None


@pytest.mark.parametrize("name,metrics", [
    ("so4-so2-coupled", verify._COUPLED_METRICS),
    ("so4-so2-uncoupled-derivative-oracle", verify._UNCOUPLED_METRICS)],
    ids=["coupled", "uncoupled"])
def test_stacked_quotient_reports_match_one_space_at_a_time(monkeypatch,
                                                            name, metrics):
    """The so4-so2 checks decide all their slopes' metrics by one stacked
    call; each metric's Koszul derivatives and report, read from the
    check's stacked arrays, are those of its own space, bit for bit."""
    (pres, grams, nablas, stack), = stacked_calls(monkeypatch, name)
    reports = _unstack(TransvectionReport, stack, pres)
    points = itertools.product(verify._SLOPES, metrics)
    for (lam, (s, t)), gram, nabla, rep in zip(points, grams, nablas, reports,
                                               strict=True):
        sp = catalog.so4_so2(lam, s, t)[0]
        assert same_bits(gram, sp.metric.gram)
        assert same_bits(nabla, sp._nabla_basis)
        assert_same_report(rep, transvection_space(sp))


def test_each_slopes_part_of_the_stack_charts_as_its_own_presentation(
        monkeypatch):
    """The derivative oracle charts a slope on the one-member part of the
    check's stack at the slope's first position: its finite-difference
    derivatives are those of the slope's own presentation, bit for bit."""
    (pres, grams, _, _), = stacked_calls(
        monkeypatch, "so4-so2-uncoupled-derivative-oracle")
    count = len(verify._UNCOUPLED_METRICS)
    for k, lam in enumerate(verify._SLOPES):
        rows = slice(k * count, (k + 1) * count)
        own = catalog.spin4_quotient(catalog.so4_so2_complement(lam),
                                     DEFAULT_TOL)
        got, want = (ExponentialChart(p, grams[rows]).nabla_killing_fd(
            np.eye(6)) for p in (pres._members(rows.start), own))
        assert same_bits(got, want)


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


def test_stacked_residual_reports_and_bounds_match_one_space_at_a_time(
        monkeypatch):
    """invariant-residuals decides the metrics of a group and their scaled
    copies by one stacked report call and one symmetry_ideals call: each
    report is transvection_space's bit for bit, each bound symmetry_ideal's,
    and the check names each space by its catalog label."""
    count = 0
    for sp, scaled, reports, (part, stack, k, size) in scaled_pairs(
            monkeypatch):
        count += 1
        assert_same_report(reports[0], transvection_space(sp))
        assert_same_report(reports[1], transvection_space(scaled))
        bounds = _unstack(BoundReport, symmetry_ideals(part, stack), part)
        for got, want in zip(bounds[k::size],
                             [symmetry_ideal(sp, reports[0]),
                              symmetry_ideal(scaled, reports[1])]):
            assert same_bits(got.gD.basis, want.gD.basis)
            assert same_bits(got.g_prime.basis, want.g_prime.basis)
            assert ((got.k, got.lhs, got.rhs, got.equality)
                    == (want.k, want.lhs, want.rhs, want.equality))
    assert count == 10
    assert [label for _, labels, _, _ in verify._residual_groups()
            for label in labels] == [sp.label for sp in residual_spaces()]


def test_batched_parallel_curvature_matches_jacobi_operator(monkeypatch):
    """The one batched curvature evaluation of invariant-residuals, by
    _curvature and _stacked_psd, gives per parallel field jacobi_operator's
    unit direction, operator, self-adjointness residual and psd_ok, bit for
    bit, and so the norm of the operator along the direction; on the
    tangent basis fields and on seeded random fields, which are mostly not
    geodesic, it refuses exactly where jacobi_operator raises, with its
    message, and elsewhere agrees bit for bit as well."""
    rng = np.random.default_rng(36)
    seen = {"parallel": 0, "basis": 0, "random": 0, "refused": 0}
    for sp, _, (rep, _), _ in scaled_pairs(monkeypatch):
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
    def wrap(unstack):
        def moved(cls, stack, pres):
            found = unstack(cls, stack, pres)
            if cls is TransvectionReport:
                p = found[-1].p_space.basis
                found[-1] = dataclasses.replace(found[-1], p_space=Subspace(
                    pres.algebra.dim,
                    np.hstack([p[:, 1:], pres.h_basis[:, :1]])))
            return found
        return moved

    detail = residual_failure(monkeypatch, "_unstack", wrap)
    assert detail.endswith("subspace reports change under metric scaling")


def test_invariant_residuals_report_a_refused_scaled_metric(monkeypatch):
    """A scaled copy whose metric is refused fails the check with the
    refusal, not with an error on a missing report."""
    def wrap(decided):  # each group's scaled copies, its second half
        return lambda pres, grams: decided(pres, grams * np.repeat(
            [1.0, -1.0], len(grams) // 2)[:, None, None])

    detail = residual_failure(monkeypatch, "_decided", wrap)
    assert detail == "ValueError: metric is not positive definite"
