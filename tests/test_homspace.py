import dataclasses
import inspect
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from symidx import homspace, liealg
from symidx.liealg import (
    CHECK_TOL,
    DEFAULT_TOL,
    BilinearForm,
    LieAlgebra,
    Subspace,
    abelian,
    brackets,
    canonical_basis,
    direct_sum,
    largest_invariant_subspace,
    matrix_algebra,
    numerical_kernel,
    numerical_rank,
    orthogonal_complement,
    reference_form,
    so_elementary,
    spin3_quaternion,
    stacked_contains,
)
from symidx.homspace import (
    BoundReport,
    HomogeneousSpace,
    Presentation,
    TransvectionReport,
    augment_left_invariant,
    closed_geodesic_length,
    jacobi_field,
    jacobi_operator,
    perpendicular_killing_space,
    symmetry_ideal,
    symmetry_ideals,
    transvection_space,
    transvection_stack,
)
from symidx.catalog import (
    cp2_centriole,
    default_spaces,
    product_of_spheres,
    round_sphere,
    so4_so2,
    so4_so2_complement,
    so4_so2_gram,
    spin3_berger,
    spin3_line,
    spin3_metric,
    spin3_one_parameter,
    spin3_presentation,
    spin4_quotient,
)
from symidx.numcheck import ExponentialChart, integrate_field_equation
from symidx.serialize import space_from_dict, space_to_dict
from meaning import (
    ideal_by_svd,
    invariant_by_loop,
    leaf,
    same_bits,
    subalgebra_leaks,
    traced_peak,
)

I_VEC = np.array([1.0, 0.0, 0.0])
J_VEC = np.array([0.0, 1.0, 0.0])


def flat_torus(d=2):
    alg, _ = abelian(d)
    return HomogeneousSpace(alg, Subspace.zero(d), BilinearForm(np.eye(d)))


def _round_s2():
    return round_sphere(2)[0]


def _fresh_so3():
    """A new so(3) on each call; the so_elementary preset is shared."""
    alg = so_elementary(3)[0]
    return LieAlgebra(3, alg.basis_labels, alg.structure.copy())


@pytest.mark.parametrize("build", [
    lambda: Subspace(3, np.eye(3)[:, :2]),
    lambda: BilinearForm(np.eye(2)),
    _fresh_so3,
    lambda: transvection_space(_round_s2()),
    lambda: symmetry_ideal(_round_s2()),
    lambda: jacobi_operator(_round_s2(), _round_s2().m_basis[:, 0]),
], ids=["Subspace", "BilinearForm", "LieAlgebra", "TransvectionReport",
        "BoundReport", "JacobiSpectrum"])
def test_array_holding_values_compare_and_hash_by_identity(build):
    """Field-wise == would compare arrays and raise; equal-looking values
    are distinct objects, and Subspace.equals is the mathematical test."""
    a, b = build(), build()
    assert a == a and a != b
    assert len({a, b, a}) == 2


# -- constructor validation -------------------------------------------------

def test_rejects_isotropy_that_is_not_a_subalgebra():
    alg, _ = so_elementary(3)
    span = Subspace(3, np.eye(3)[:, :2])  # E12 and E13 bracket to E23
    with pytest.raises(ValueError, match="not a subalgebra"):
        HomogeneousSpace(alg, span, BilinearForm(np.eye(1)))


def test_subalgebra_error_names_the_first_leaking_pair():
    alg, _ = so_elementary(4)  # basis E12 E13 E14 E23 E24 E34
    # E12 and E34 commute; E12 and E13 bracket to E23, as do E34 and E13
    span = Subspace(6, np.eye(6)[:, [0, 5, 1]])
    with pytest.raises(ValueError, match="basis vectors 0 and 2 leaves it"):
        HomogeneousSpace(alg, span, BilinearForm(np.eye(3)))


def tilted_isotropy(alg, cols, rng, scale, factor) -> Subspace:
    """The subalgebra of the basis vectors ``cols`` of ``alg``, by a basis
    rotated within it and with columns scaled from 1 to ``scale``, one
    column tilted out of it so that its worst pair, by the all-pairs rule,
    leaks ``factor`` times CHECK_TOL relative to its bracket (floor 1)."""
    n, r = alg.dim, len(cols)
    base = np.eye(n)[:, cols] @ np.linalg.qr(rng.standard_normal((r, r)))[0]
    base *= rng.permutation(np.logspace(0.0, np.log10(scale), r))
    w = rng.standard_normal(n)
    w[cols] = 0.0
    j = rng.integers(r)
    w *= np.linalg.norm(base[:, j]) / np.linalg.norm(w)

    def tilted(eps):
        basis = base.copy()
        basis[:, j] += eps * w
        return Subspace(n, basis)

    _, leaks, sizes = subalgebra_leaks(alg, tilted(1e-6))
    worst = float(np.max(leaks / np.maximum(1.0, sizes)))
    return tilted(1e-6 * factor * CHECK_TOL / worst)


@pytest.mark.parametrize("seed", range(3))
def test_the_subalgebra_check_decides_as_the_all_pairs_rule(seed):
    """Presentation reads the part of each bracket of its isotropy basis
    outside the isotropy through an orthonormal basis of its complement,
    and hands the pairs whose part exceeds CHECK_TOL to the all-pairs rule
    of meaning.subalgebra_leaks, whose relative floor decides them.  On
    so(5) over so(4) and so(6) over so(3) + so(3), tilted so that the worst
    pair leaks 0.1, 0.5, 2 or 10 times CHECK_TOL relative to its bracket,
    with bases scaled up to 1e4, it refuses exactly where that rule does and
    names the same first pair; at the larger scales an accepted pair leaks
    more than CHECK_TOL in absolute terms, which only the rule accepts."""
    rng = np.random.default_rng(seed)
    so5, rep5 = so_elementary(5)
    so6, rep6 = so_elementary(6)
    cases = [(so5, np.flatnonzero(~rep5[:, 0].any(axis=1))),
             (so6, np.flatnonzero(~rep6[:, :3, 3:].any(axis=(1, 2))))]
    decided = set()
    for alg, cols in cases:
        for factor in (0.1, 0.5, 2.0, 10.0):
            for scale in (1.0, 1e2, 1e4):
                iso = tilted_isotropy(alg, cols, rng, scale, factor)
                refused, leaks, _ = subalgebra_leaks(alg, iso)
                try:
                    Presentation(alg, iso)
                    message = ""
                except ValueError as exc:
                    message = str(exc)
                if refused.size:
                    first, second = (int(i[refused[0]]) for i in
                                     homspace.pair_indices(iso.dim))
                    assert message.endswith(f"bracket of basis vectors "
                                            f"{first} and {second} leaves it")
                else:
                    assert "not a subalgebra" not in message
                decided.add((bool(refused.size), leaks.max() > CHECK_TOL))
    assert decided == {(True, True), (False, False), (False, True)}


def test_rejects_non_reductive_complement():
    alg, _ = so_elementary(3)
    h = Subspace(3, np.eye(3)[:, :1])
    cols = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="not reductive"):
        HomogeneousSpace(alg, h, BilinearForm(np.eye(2)),
                         complement=Subspace(3, cols))


def test_nearly_overlapping_complement_is_refused_as_overlap():
    """The overlap check uses the package's rank rule: a complement vector
    1e-12 away from the isotropy overlaps it, rather than passing a
    machine-epsilon rank test and failing reductivity with a huge
    residual."""
    alg, _ = so_elementary(3)
    h = Subspace(3, np.eye(3)[:, :1])
    cols = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1e-12]])
    with pytest.raises(ValueError, match="isotropy and complement overlap"):
        HomogeneousSpace(alg, h, BilinearForm(np.eye(2)),
                         complement=Subspace(3, cols))


def test_rejects_metric_the_isotropy_does_not_preserve():
    alg, _ = so_elementary(3)
    h = Subspace(3, np.eye(3)[:, :1])
    with pytest.raises(ValueError, match="not invariant"):
        HomogeneousSpace(alg, h, BilinearForm(np.diag([1.0, 2.0])))


def two_circle_isotropy():
    """spin(3) + spin(3) (basis i j k i j k) with isotropy (i@0, i@1), the
    standard complement, and the complement in which j@1 is tilted by i@0:
    i@0 still preserves it, i@1 does not."""
    alg = direct_sum(spin3_quaternion()[0], spin3_quaternion()[0])
    standard = np.eye(6)[:, [1, 2, 4, 5]]
    tilted = standard.copy()
    tilted[0, 2] = 1.0
    return alg, Subspace(6, np.eye(6)[:, [0, 3]]), standard, tilted


@pytest.mark.parametrize("complement, gram, message", [
    # vector 1 fails both checks; reductivity is reported
    ("tilted", [1, 1, 1, 2], "not reductive: isotropy vector 1 maps"),
    ("standard", [1, 1, 1, 2], "isotropy vector 1 does not act skew"),
    # vector 0 fails only skewness, vector 1 only reductivity: reductivity
    # belongs to the presentation, whose checks run before the metric's
    ("tilted", [1, 2, 1, 1], "not reductive: isotropy vector 1 maps"),
])
def test_reductive_and_skew_errors_name_the_first_offending_vector(
        complement, gram, message):
    alg, iso, standard, tilted = two_circle_isotropy()
    comp = standard if complement == "standard" else tilted
    with pytest.raises(ValueError, match=message + r".*\(residual 2\.000e\+00\)"):
        HomogeneousSpace(alg, iso, BilinearForm(np.diag(gram).astype(float)),
                         complement=Subspace(6, comp))


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf"), 1.0,
                                 1e-15, 1e-17])
def test_rejects_a_tolerance_outside_zero_one(tol):
    """Nor below the floor MIN_TOL, where roundoff decides ranks: at 1e-15
    five points of the coupled so4-so2 grid read index 0, not 2."""
    alg, _ = so_elementary(3)
    h = Subspace(3, np.eye(3)[:, :1])
    with pytest.raises(ValueError, match=r"not a number in \[MIN_TOL, 1\)"):
        Presentation(alg, h, tol=tol)
    with pytest.raises(ValueError, match=r"not a number in \[MIN_TOL, 1\)"):
        HomogeneousSpace(alg, h, BilinearForm(np.eye(2)), tol=tol)


@pytest.mark.parametrize("isotropy, complement, message", [
    (Subspace(4, np.eye(4)[:, :1]), None, "isotropy lives in the wrong"),
    (Subspace(3, np.eye(3)[:, :1]), Subspace(4, np.eye(4)[:, 1:]),
     "complement lives in the wrong"),
    (Subspace(3, np.eye(3)[:, :1]), [Subspace(4, np.eye(4)[:, 1:])],
     "complement lives in the wrong"),
])
def test_a_presentation_refuses_a_subspace_of_another_algebra(
        isotropy, complement, message):
    alg, _ = so_elementary(3)
    with pytest.raises(ValueError, match=message + " ambient dimension"):
        Presentation(alg, isotropy, complement)


def test_rejects_indefinite_metric():
    with pytest.raises(ValueError, match="positive definite"):
        HomogeneousSpace(abelian(2)[0], Subspace.zero(2),
                         BilinearForm(np.diag([1.0, -1.0])))


def test_rejects_ineffective_pair():
    alg, _ = spin3_quaternion()
    both = direct_sum(alg, alg)
    h = Subspace(6, np.vstack([np.eye(3), np.zeros((3, 3))]))
    with pytest.raises(ValueError, match="not effective"):
        HomogeneousSpace(both, h, BilinearForm(np.eye(3)))


def _so3_so3_r():
    """so(3) + so(3) + R: factors A (basis 0-2) and B (3-5), centre Z (6)."""
    so3 = so_elementary(3)[0]
    return direct_sum(direct_sum(so3, so3), abelian(1)[0])


def _seeded_subalgebras(rng):
    """Subalgebras of so(3) + so(3) + R as spanning columns: whole factors,
    random circles in one factor, the centre, circles tilted into the
    centre, and sums of these that still close under the bracket."""
    eye = np.eye(7)

    def circle(factor, tilt=0.0):
        u = np.zeros(7)
        u[3 * factor:3 * factor + 3] = rng.standard_normal(3)
        return (u / np.linalg.norm(u) + tilt * eye[:, 6])[:, None]

    a, b, z = eye[:, :3], eye[:, 3:6], eye[:, 6:]
    tilted = circle(0, rng.uniform(0.5, 2.0))
    return {
        "A": a, "circle": circle(0), "Z": z, "tilted": tilted,
        "A+circle": np.hstack([a, circle(1)]),
        "A+Z": np.hstack([a, z]),
        "circle+Z": np.hstack([circle(1), z]),
        "tilted+Z": np.hstack([tilted, z]),
        "circle+circle": np.hstack([circle(0), circle(1)]),
        "A+tilted": np.hstack([a, circle(1, rng.uniform(0.5, 2.0))]),
        "circle+tilted": np.hstack([circle(0), circle(1, 1.0)]),
        "A+B": np.hstack([a, b]),
        "all": eye,
    }


def _rotation(rng, k):
    return np.linalg.qr(rng.standard_normal((k, k)))[0]


@pytest.mark.parametrize("rotate", [False, True], ids=["basis", "rotated"])
def test_effectiveness_is_the_kernel_of_the_isotropy_action(rotate):
    """The constructor refuses exactly the subalgebras that hold a nonzero
    ideal, with the reference-orthogonal complement, and names the
    dimension of the largest one; a rotated basis of either side changes
    nothing."""
    rng = np.random.default_rng(2027)
    alg = _so3_so3_r()
    dims = set()
    for name, cols in _seeded_subalgebras(rng).items():
        iso = Subspace.from_spanning(7, cols)
        comp = orthogonal_complement(alg, iso)
        if rotate:
            iso = Subspace(7, iso.basis @ _rotation(rng, iso.dim))
            comp = Subspace(7, comp.basis @ _rotation(rng, comp.dim))
        ideal = largest_invariant_subspace(alg, np.eye(7), iso).dim
        dims.add(ideal)
        if ideal == 0:
            assert Presentation(alg, iso, comp).dim == 7 - iso.dim, name
            continue
        with pytest.raises(ValueError, match=rf"not effective: an ideal of "
                           rf"dimension {ideal} lies inside the isotropy"):
            Presentation(alg, iso, comp)
    assert dims == {0, 1, 3, 4, 6, 7}


def _ineffective_stack_members():
    """The factor A of so(3) + so(3) + R as isotropy, an ideal, with a
    complement that overlaps it, one that is not reductive and the
    reference complement."""
    alg = _so3_so3_r()
    iso = Subspace(7, np.eye(7)[:, :3])
    good = orthogonal_complement(alg, iso)
    overlap = good.basis.copy()
    overlap[:, 0] = np.eye(7)[:, 0]
    unreductive = good.basis.copy()
    unreductive[:, 0] += 0.3 * np.eye(7)[:, 1]  # [A, m] leaves m
    return alg, iso, Subspace(7, overlap), Subspace(7, unreductive), good


def test_a_stack_led_by_an_overlapping_member_refuses_an_ineffective_pair():
    """Effectiveness comes from the first member that passes, not from the
    identity placeholder of an overlapping first member: for the effective
    circle E13 of A, the member spanned by E13, E23, B and Z has
    [E13, E23] on E12, the placeholder's isotropy row, so read through it
    E13 would act trivially."""
    alg, iso, overlap, unreductive, good = _ineffective_stack_members()
    with pytest.raises(ValueError, match="not effective: an ideal of "
                       "dimension 3"):
        Presentation(alg, iso, [overlap, unreductive, good])
    circle = Subspace(7, np.eye(7)[:, 1:2])
    stack = Presentation(alg, circle, [Subspace(7, np.eye(7)[:, 1:]),
                                       orthogonal_complement(alg, circle)])
    assert list(stack._refusals) == ["isotropy and complement overlap", None]


def test_a_stack_with_no_passing_member_refuses_each_metric_alone():
    """Effectiveness is read off a member that passes the complement
    checks; a stack without one is built, and each metric is refused with
    its member's message, as a single presentation raises it."""
    alg, iso, overlap, unreductive, _ = _ineffective_stack_members()
    messages = []
    for comp in (overlap, unreductive):
        with pytest.raises(ValueError) as refusal:
            Presentation(alg, iso, comp)
        messages.append(str(refusal.value))
    assert "overlap" in messages[0] and "not reductive" in messages[1]
    stack = Presentation(alg, iso, [overlap, unreductive])
    grams = np.array([np.eye(4)] * 2)
    assert homspace._metric_refusals(stack, grams) == messages
    assert homspace._unstack(TransvectionReport, transvection_stack(
        stack, grams), stack) == [None, None]


@pytest.mark.parametrize("build", [
    lambda: Presentation(so_elementary(3)[0], Subspace.zero(3), []),
    lambda: spin4_quotient([], DEFAULT_TOL),
], ids=["presentation", "spin4-quotient"])
def test_an_empty_stack_of_complements_is_refused(build):
    """A stack holds one complement per metric; with none there is no
    member to check, and the refusal says so."""
    with pytest.raises(ValueError, match="empty stack of complements"):
        build()


def test_a_stack_member_of_another_shape_is_refused_by_name():
    """Every member of a stack shares the shape of a complement that
    completes the isotropy: one of another shape is refused by its place
    in the stack, not by numpy's stacking, and a single complement keeps
    its messages."""
    good = so4_so2_complement(0.5)
    for bad, shape in ((Subspace(6, np.eye(6)[:, :4]), (6, 4)),
                       (Subspace(7, np.eye(7)[:, :5]), (7, 5))):
        with pytest.raises(ValueError, match=re.escape(
                f"complement 2 of the stack has shape {shape}, not (6, 5)")):
            spin4_quotient([good, good, bad], DEFAULT_TOL)
    with pytest.raises(ValueError, match=re.escape(
            "isotropy (1) and complement (4) do not add up to the algebra "
            "dimension (6)")):
        spin4_quotient(Subspace(6, np.eye(6)[:, :4]), DEFAULT_TOL)
    with pytest.raises(ValueError, match="complement lives in the wrong "
                       "ambient dimension"):
        spin4_quotient([Subspace(7, np.eye(7)[:, :5]), good], DEFAULT_TOL)


def _scaled_sphere(isotropy: float, complement: float, metric: float):
    """S^3 of :func:`round_sphere` with each basis and its metric scaled."""
    sp = round_sphere(3)[0]
    return lambda: HomogeneousSpace(
        sp.algebra, Subspace(6, isotropy * sp.isotropy.basis),
        BilinearForm(metric * np.eye(3)),
        complement=Subspace(6, complement * sp.complement.basis))


@pytest.mark.parametrize("build, message", [
    (lambda: Presentation(so_elementary(3)[0],
                          Subspace(3, 1e200 * np.eye(3)[:, :2])),
     "the brackets of the isotropy overflow; rescale its basis"),
    (_scaled_sphere(1e200, 1e200, 1.0), "the action of the isotropy on the "
     "complement overflows; rescale the bases"),
    (_scaled_sphere(1e10, 1e10, 1e300),
     "the skew check of the metric overflows; rescale the metric"),
], ids=["isotropy-brackets", "complement-action", "metric-skew"])
def test_a_product_of_the_checks_that_overflows_is_refused_by_name(build,
                                                                    message):
    """Bases and metrics of finite entries whose products overflow are
    refused by name, with no numpy warning: an overflowed residual is no
    decision."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(message)):
            build()


def test_rejects_mismatched_metric_dimension():
    with pytest.raises(ValueError, match="does not match"):
        HomogeneousSpace(abelian(3)[0], Subspace.zero(3),
                         BilinearForm(np.eye(2)))


# -- covariant derivative at the base point ---------------------------------

@pytest.mark.parametrize("t", [0.5, 1.5, 3.0])
def test_squashed_sphere_derivative_matrix(t):
    """The distinguished field rotates the orthogonal plane at rate
    2(t - 1)/t; worked out by hand from the torsion-free invariance
    identity and frozen here."""
    sp, _ = spin3_berger(t)
    rate = 2.0 * (t - 1.0) / t
    expected = np.array([[0.0, -rate, 0.0], [rate, 0.0, 0.0],
                         [0.0, 0.0, 0.0]])
    np.testing.assert_allclose(sp.nabla_at_base(I_VEC), expected, atol=1e-10)


def test_derivative_vanishes_on_symmetric_spaces():
    sp, _ = round_sphere(4)
    rng = np.random.default_rng(3)
    for _ in range(4):
        x = rng.standard_normal(sp.algebra.dim)
        v = sp.evaluate(x)
        u = rng.standard_normal(sp.dim)
        # transvection part: derivative vanishes in every direction
        nothing = sp.nabla_at_base(sp.lift(v))
        np.testing.assert_allclose(nothing @ u, np.zeros(sp.dim), atol=1e-9)


def test_derivative_operator_is_metric_skew():
    sp, _ = so4_so2(0.6, 0.7)
    rng = np.random.default_rng(5)
    g = sp.metric.gram
    for _ in range(5):
        n = sp.nabla_at_base(rng.standard_normal(sp.algebra.dim))
        np.testing.assert_allclose(g @ n, -(g @ n).T, atol=1e-9)


def test_derivative_operator_of_the_point_is_empty():
    """The zero-dimensional space has no tangent directions: its derivative
    operator has no rows and no columns."""
    point = HomogeneousSpace(abelian(0)[0], Subspace.zero(0),
                             BilinearForm(np.zeros((0, 0))))
    assert point.nabla_operator().shape == (0, 0)


# -- transvection data ------------------------------------------------------

def test_coupled_quotient_transvection_report():
    sp, _ = so4_so2(0.4, 0.7)
    rep = transvection_space(sp)
    assert (rep.index, rep.coindex) == (2, 3)
    assert rep.dim_transvection == 3
    assert rep.involutive_ok
    # the parallel fields are the diagonal j and k pairs
    for w in (np.array([0, 1, 0, 0, 1, 0.0]), np.array([0, 0, 1, 0, 0, 1.0])):
        lifted = sp.lift(sp.evaluate(w))
        assert rep.p_space.contains(lifted)
    assert rep.k_space.dim == 1
    assert rep.k_space.contains(np.array([1, 0, 0, 1, 0, 0.0]))


def test_uncoupled_quotient_has_no_symmetry():
    sp, _ = so4_so2(0.4, 0.7, t=0.9)
    rep = transvection_space(sp)
    assert rep.index == 0
    assert rep.coindex == sp.dim == 5


@pytest.mark.parametrize("t", [0.5, 1.5, 3.0])
def test_plain_squashed_sphere_has_no_symmetry(t):
    rep = transvection_space(spin3_berger(t)[0])
    assert rep.index == 0


def test_one_parameter_line_keeps_one_parallel_field():
    sp, _ = spin3_one_parameter(0.3)
    rep = transvection_space(sp)
    assert rep.index == 1
    assert rep.p_space.contains(np.array([1.0, 0.0, 0.0]))
    assert rep.s_space.dim == 1


def test_symmetric_space_is_all_symmetry():
    sp, _ = round_sphere(3)
    rep = transvection_space(sp)
    assert rep.index == 3 and rep.coindex == 0
    assert rep.dim_transvection == 6
    assert rep.s_space.dim == 3


# -- distinguished ideal and the dimension bound ----------------------------

def test_coupled_quotient_bound_holds_with_equality():
    sp, _ = so4_so2(0.5, 0.6)
    bound = symmetry_ideal(sp)
    assert bound.gD.dim == 0
    assert bound.g_prime.dim == 6
    assert (bound.k, bound.lhs, bound.rhs) == (3, 12, 12)
    assert bound.equality


def test_augmented_squashed_sphere_bound():
    sp = augment_left_invariant(spin3_berger(1.5)[0])
    bound = symmetry_ideal(sp)
    assert bound.k == 2
    assert bound.lhs == bound.rhs == 6
    assert bound.equality
    assert bound.gD.dim == 1
    assert bound.gD.contains(np.array([0.0, 0.0, 0.0, 1.0]))


def test_a_non_reductive_algebra_gets_its_bound_where_gd_is_zero():
    """The Heisenberg algebra has no ad-invariant reference form, which the
    bound reads only to split a proper ideal off: its symmetry ideal is 0,
    whose ideal complement is the whole algebra on any algebra, so the
    bound reads 6 <= 12 for coindex 3, as SL(2, R)'s does."""
    sp = _heisenberg_group(np.diag([1.0, 2.0, 0.5]))
    with pytest.raises(ValueError, match="do not split"):
        reference_form(sp.algebra, sp.tol)
    for group in (sp, _sl2_group(np.diag([1.0, 2.0, 0.5]))):
        bound = symmetry_ideal(group)
        assert (bound.gD.dim, bound.g_prime.dim, bound.k, bound.lhs,
                bound.rhs, bound.equality) == (0, 3, 3, 6, 12, False)
        np.testing.assert_array_equal(bound.g_prime.basis, np.eye(3))


def test_a_non_reductive_algebra_is_refused_where_a_proper_ideal_splits_off():
    """On the Heisenberg group times a line, the line's field is parallel
    and an ideal, so gD is the line, of dimension 0 < 1 < 4, and its
    complement needs the reference form: the algebra is refused by name."""
    heisenberg = _heisenberg_group(np.eye(3)).algebra
    alg = direct_sum(heisenberg, abelian(1)[0])
    sp = HomogeneousSpace(alg, Subspace.zero(4), BilinearForm(np.eye(4)),
                          complement=Subspace(4, np.eye(4)))
    report = transvection_space(sp)
    assert report.index == 1
    assert report.p_space.contains(np.array([0.0, 0.0, 0.0, 1.0]))
    with pytest.raises(ValueError, match="kernel of B and derived "
                                         "subalgebra do not split"):
        symmetry_ideal(sp, report)


def test_perpendicular_space_of_the_coupled_quotient():
    lam = 0.4
    sp, _ = so4_so2(lam, 0.7)
    perp = perpendicular_killing_space(sp)
    assert perp.dim == 3
    # every element is (Z, -Z/lam) on the two factors
    for a in range(perp.dim):
        z = perp.basis[:, a]
        np.testing.assert_allclose(z[3:], -z[:3] / lam, atol=1e-8)


# -- augmentation -----------------------------------------------------------

def test_augmentation_is_identity_without_bi_invariant_directions():
    sp, _ = spin3_metric(2.0, 1.5, 1.2)
    assert augment_left_invariant(sp) is sp


def test_augmented_squashed_sphere_gains_one_symmetry():
    t = 1.5
    base, _ = spin3_berger(t)
    assert transvection_space(base).index == 0
    aug = augment_left_invariant(base)
    assert aug.algebra.dim == 4
    assert aug.algebra.basis_labels[-1] == "op1"
    rep = transvection_space(aug)
    assert (rep.index, rep.coindex) == (1, 2)
    # the parallel line mixes the field with its opposite-invariant partner
    v = rep.p_space.basis[:, 0]
    a = -aug.isotropy.basis[:3, :] @ np.linalg.inv(aug.isotropy.basis[3:, :])
    np.testing.assert_allclose(a @ v[3:], (t - 1.0) * v[:3], atol=1e-8)


def test_augmented_round_metric_recovers_full_symmetry():
    aug = augment_left_invariant(spin3_metric(2.0, 2.0, 2.0)[0])
    assert aug.algebra.dim == 6
    rep = transvection_space(aug)
    assert rep.index == 3 and rep.coindex == 0


def test_augmentation_fits_the_opposite_brackets_as_lstsq_does():
    """The bi-invariant directions come as an orthonormal basis, so the
    coordinates of their brackets are a projection: the fit
    np.linalg.lstsq gives, to the last bits."""
    sp = spin3_metric(2.0, 2.0, 2.0)[0]
    aug = augment_left_invariant(sp)
    n = sp.algebra.dim
    a = aug.isotropy.basis[:n]  # the isotropy is spanned by [a; -I]
    q = a.shape[1]
    np.testing.assert_allclose(a.T @ a, np.eye(q), rtol=0, atol=1e-15)
    w = -brackets(sp.algebra, a, a).reshape(n, q * q)
    want = np.linalg.lstsq(a, w, rcond=None)[0].reshape(q, q, q)
    np.testing.assert_allclose(aug.algebra.structure[n:, n:, n:],
                               want.transpose(1, 2, 0), rtol=0, atol=1e-13)


def test_augmented_space_keeps_the_tolerance():
    aug = augment_left_invariant(spin3_berger(1.5, tol=1e-7)[0])
    assert aug.algebra.dim == 4
    assert aug.tol == 1e-7


def test_augmentation_requires_trivial_isotropy():
    sp, _ = round_sphere(2)
    with pytest.raises(ValueError, match="trivial isotropy"):
        augment_left_invariant(sp)


# -- curvature operators and their fields -----------------------------------

def test_round_three_sphere_spectrum():
    sp, _ = round_sphere(3)
    x = sp.lift(np.eye(3)[:, 0])
    spec = jacobi_operator(sp, x)
    np.testing.assert_allclose(np.sort(spec.eigenvalues), [0.0, 1.0, 1.0],
                               atol=1e-9)
    assert spec.psd_ok
    assert spec.selfadjoint_residual < 1e-9


def test_coupled_quotient_spectrum():
    sp, _ = so4_so2(0.5, 0.6)
    spec = jacobi_operator(sp, np.array([0, 1, 0, 0, 1, 0.0]))
    np.testing.assert_allclose(np.sort(spec.eigenvalues),
                               [0.0, 0.0, 1 / 6, 1 / 6, 1 / 6], atol=1e-9)


def test_jacobi_rejects_vanishing_and_non_geodesic_fields():
    sp, _ = so4_so2(0.5, 0.6)
    with pytest.raises(ValueError, match="zero"):
        jacobi_operator(sp, np.array([1, 0, 0, 1, 0, 0.0]))  # isotropy vector
    squashed, _ = spin3_berger(3.0)
    with pytest.raises(ValueError, match="not a geodesic"):
        jacobi_operator(squashed, np.array([1.0, 1.0, 0.0]))


def _sl2_group(gram):
    """SL(2, R) with a left-invariant metric: its basis directions are
    geodesics, and two of them have curvature operators with negative
    eigenvalues."""
    h = np.diag([1.0, -1.0])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    y = np.array([[0.0, 1.0], [-1.0, 0.0]])
    alg, _ = matrix_algebra(np.array([h, x, y]), ("h", "x", "y"))
    return HomogeneousSpace(alg, Subspace.zero(3), BilinearForm(gram))


def _heisenberg_group(gram):
    """The Heisenberg group with a left-invariant metric: ad_x squares to
    zero, so every curvature operator is zero and a field whose orbit is
    not a geodesic fails on its drift alone."""
    c = np.zeros((3, 3, 3))
    c[0, 1, 2], c[1, 0, 2] = 1.0, -1.0
    alg = LieAlgebra(3, ("x", "y", "z"), c)
    return HomogeneousSpace(alg, Subspace.zero(3), BilinearForm(gram),
                            complement=Subspace(3, np.eye(3)))


def curvature_psd(sp, xs):
    """The stacked curvature decision of transvection_stack on one metric
    and the columns of ``xs``: ``(psd_ok, refused)``, one entry per column,
    refused where _curvature names a failing precondition and psd_ok where
    it does not and _stacked_psd holds."""
    gram = sp.metric.gram[None]
    *_, first, _, go = homspace._curvature(sp, gram, sp._nabla_basis[None],
                                          xs[None])
    refused = first[0] >= 0
    return ~refused & homspace._stacked_psd(gram, go)[0], refused


def _psd_by_loop(sp, candidates):
    """The reference for curvature_psd: one jacobi_operator call per
    column, a ValueError counting as a refusal."""
    psd_ok, refused = [], []
    for x in candidates.T:
        try:
            spectrum = jacobi_operator(sp, x)
        except ValueError:
            psd_ok.append(False)
            refused.append(True)
            continue
        psd_ok.append(spectrum.psd_ok)
        refused.append(False)
    return np.array(psd_ok, dtype=bool), np.array(refused, dtype=bool)


def _near_the_drift_ceiling(sp, x0, y, tol=1e-8):
    """``x0 + eps y`` for a geodesic field ``x0``, with ``eps`` putting the
    drift of the unit-speed field off its geodesic at about 0.6 and 1.6
    times ``tol`` (it grows linearly in ``eps``); none if it does not grow."""
    def drift(x):
        v = sp.evaluate(x)
        xn = x / np.sqrt(v @ sp.metric.gram @ v)
        return np.linalg.norm(sp.nabla_at_base(xn) @ sp.evaluate(xn))

    slope = drift(x0 + 1e-4 * y) / 1e-4
    if slope < 1e-3:
        return np.zeros((len(x0), 0))
    return np.stack([x0 + f * tol / slope * y for f in (0.6, 1.6)], axis=1)


def _psd_draws(rng):
    for _ in range(4):
        lam, s = rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.95)
        yield so4_so2(lam, s)[0]
        yield so4_so2(lam, s, rng.uniform(0.05, 3.0))[0]
        yield so4_so2(lam, s, 2.0 - s + rng.uniform(-1e-6, 1e-6))[0]
        yield spin3_metric(*rng.uniform(0.1, 4.0, 3))[0]
        yield product_of_spheres(rng.uniform(0.1, 3.0))[0]
        yield _sl2_group(np.diag(rng.uniform(0.5, 3.0, 3)))
        yield _heisenberg_group(np.diag(rng.uniform(0.5, 3.0, 3)))
    yield round_sphere(3)[0]


def test_batched_psd_check_matches_the_jacobi_operator_loop():
    """curvature_psd refuses exactly the fields jacobi_operator raises on
    and agrees with its psd_ok elsewhere, on seeded draws of the catalog
    families (coupled, uncoupled and within 1e-6 of the coupled stratum)
    and of SL(2, R), the Heisenberg group and the round S^3.  The
    candidates are those of a sweep (tangent basis directions and parallel
    fields) plus isotropy fields and the zero field (no value at the base
    point), random tangent combinations (mostly not geodesic) and random
    sums of basis fields with isotropy parts (on S^3 some fail the lift
    check alone, on the Heisenberg group some the geodesic check alone),
    and fields just inside and just outside the drift ceiling."""
    rng = np.random.default_rng(2027)
    seen = {"psd": 0, "not psd": 0, "refused": 0}
    for sp in _psd_draws(rng):
        report = transvection_space(sp)
        sweep_candidates = np.hstack([sp.m_basis, report.p_space.basis])
        n = sp.algebra.dim
        _, sweep_refused = _psd_by_loop(sp, sweep_candidates)
        geodesic = sweep_candidates[:, ~sweep_refused]
        candidates = np.hstack([
            sweep_candidates, sp.h_basis, np.zeros((n, 1)),
            sp.m_basis @ rng.normal(size=(sp.dim, 2)),
            (sp.m_basis[:, :, None] + sp.h_basis[:, None, :]).reshape(n, -1),
            rng.integers(-1, 2, size=(n, 8)).astype(float),
            *[_near_the_drift_ceiling(sp, x0, rng.normal(size=n))
              for x0 in geodesic.T]])
        want_ok, want_refused = _psd_by_loop(sp, candidates)
        got_ok, got_refused = curvature_psd(sp, candidates)
        np.testing.assert_array_equal(got_refused, want_refused)
        np.testing.assert_array_equal(got_ok, want_ok)
        k = sweep_candidates.shape[1]
        assert (np.count_nonzero(curvature_psd(sp, sweep_candidates)[1])
                == np.count_nonzero(want_refused[:k]))
        seen["psd"] += np.count_nonzero(want_ok)
        seen["not psd"] += np.count_nonzero(~want_ok & ~want_refused)
        seen["refused"] += np.count_nonzero(want_refused)
    assert min(seen.values()) >= 8, seen


def _whitened_psd(grams, lowered):
    """The curvature psd rule by its definition: the smallest eigenvalue of
    each symmetric part whitened by the Cholesky factor of its metric is at
    least -CHECK_TOL."""
    white = np.linalg.inv(np.linalg.cholesky(grams))[:, None]
    w = np.linalg.eigvalsh(white @ (0.5 * (lowered + lowered.swapaxes(-1, -2)))
                           @ white.swapaxes(-1, -2))
    return np.all(w >= -CHECK_TOL, axis=-1)


@pytest.mark.parametrize("d", range(1, 10))
def test_the_pivot_psd_rule_is_the_eigenvalue_rule_at_its_boundary(d):
    """_stacked_psd decides as _whitened_psd on operators whose whitened
    smallest eigenvalue is -CHECK_TOL (1 + delta) or -CHECK_TOL (1 - delta),
    for delta down to 1e-6, and random metrics: 200 metrics of 4 operators
    each, with a skew part that the rules drop; those just above the
    boundary are psd and those just below are not."""
    rng = np.random.default_rng(100 + d)
    n, k = 200, 4
    b = rng.normal(size=(n, d, d))
    grams = b @ b.swapaxes(-1, -2) / d + np.eye(d)
    low = np.linalg.cholesky(grams)[:, None]
    for delta in (0.5, 1e-2, 1e-4, 1e-6):
        above = rng.random((n, k)) < 0.5
        w = rng.uniform(0.01, 2.0, size=(n, k, d))
        w[..., 0] = -CHECK_TOL * np.where(above, 1 - delta, 1 + delta)
        q = np.linalg.qr(rng.normal(size=(n, k, d, d)))[0]
        skew = rng.normal(size=(n, k, d, d))
        lowered = (low @ (q * w[..., None, :]) @ q.swapaxes(-1, -2)
                   @ low.swapaxes(-1, -2) + skew - skew.swapaxes(-1, -2))
        got = homspace._stacked_psd(grams, lowered)
        np.testing.assert_array_equal(got, _whitened_psd(grams, lowered))
        np.testing.assert_array_equal(got, above)


def test_the_pivot_psd_rule_on_empty_and_non_finite_operators():
    """No tangent direction reads psd, as does no candidate; an operator
    with a nan entry reads not psd and raises nothing, and leaves the others
    of its stack their answers."""
    for d, k in ((0, 4), (3, 0)):
        grams, lowered = np.eye(d)[None].repeat(5, 0), np.zeros((5, k, d, d))
        got = homspace._stacked_psd(grams, lowered)
        assert got.shape == (5, k) and got.all()
        np.testing.assert_array_equal(got, _whitened_psd(grams, lowered))
    grams = np.eye(3)[None].repeat(2, 0)
    lowered = np.eye(3) * np.array([1.0, -1.0])[:, None, None, None]
    lowered = lowered.repeat(3, axis=1)
    lowered[:, 1, 2, 0] = np.nan
    with np.errstate(all="raise"):
        got = homspace._stacked_psd(grams, lowered)
    np.testing.assert_array_equal(got, [[True, False, True],
                                        [False, False, False]])


def test_a_stack_of_metrics_is_decided_as_each_metric_alone():
    """transvection_stack decides the metrics of one presentation together;
    per metric it gives None where HomogeneousSpace refuses the metric, and
    otherwise transvection_space's report with the psd flag and refused
    count of one jacobi_operator call per tangent basis direction and
    parallel field.  The stacks interleave metrics whose answers differ:
    on SL(2, R), diagonal metrics (geodesic basis directions, operators
    not psd) and rotated ones (every candidate refused); on so4-so2,
    metrics on the coupled stratum t = 2 - s, on the stratum t = 2 + s and
    off both; and an indefinite metric and two the isotropy does not
    preserve.  A last stack holds coupled so4-so2 metrics at one slope,
    whose parallel fields all have one dimension: one group, the whole
    stack."""
    rng = np.random.default_rng(2032)

    def rotated(w):
        q = np.linalg.qr(rng.standard_normal((len(w), len(w))))[0]
        return q @ np.diag(w) @ q.T

    so4 = so4_so2(0.4, 0.5)[0]
    stacks = [
        (_sl2_group(np.eye(3)),
         [f(rng.uniform(0.5, 3.0, 3)) for _ in range(3)
          for f in (np.diag, rotated)] + [np.diag([1.0, -1.0, 1.0])]),
        (so4, [np.diag([2.0, 2.0, s, t, t])
               for s, t in [(0.5, 1.5), (0.9, 2.9), (0.5, 1.2), (0.3, 1.7),
                            (0.4, 2.4), (1.1, 0.8)]]
         + [np.diag([2.0, 3.0, 0.5, 1.5, 1.5]),
            np.diag([2.0, 2.0, 0.5, 1.5, 1.0])]),
        (so4, [so4_so2_gram(s, 2.0 - s) for s in rng.uniform(0.2, 1.8, 5)]),
    ]
    seen = {"refused metric": 0, "psd": 0, "not psd": 0, "index": set()}
    for pres, grams in stacks:
        found = transvection_stack(pres, np.array(grams))
        reports = homspace._unstack(TransvectionReport, found, pres)
        for gram, report, ok, count in zip(grams, reports, found["psd_ok"],
                                           found["refused"]):
            try:
                sp = pres.space(BilinearForm(gram))
            except ValueError:
                assert report is None and not ok and count == 0
                seen["refused metric"] += 1
                continue
            want = transvection_space(sp)
            assert (report.index, report.coindex, report.dim_transvection,
                    report.involutive_ok) == (
                want.index, want.coindex, want.dim_transvection,
                want.involutive_ok)
            for got_space, want_space in ((report.p_space, want.p_space),
                                          (report.k_space, want.k_space),
                                          (report.s_space, want.s_space)):
                assert got_space.equals(want_space)
            candidates = np.hstack([sp.m_basis, want.p_space.basis])
            want_ok, want_refused = _psd_by_loop(sp, candidates)
            assert ok == np.all(want_ok | want_refused)
            assert count == np.count_nonzero(want_refused)
            seen["psd" if ok else "not psd"] += 1
            seen["index"].add(report.index)
    assert seen["refused metric"] == 3 and seen["psd"] and seen["not psd"]
    assert seen["index"] == {0, 2}, seen
    # the last stack: every metric kept, all parallel fields of one dimension
    assert [report.p_space.dim for report in reports] == [2] * 5


def _structure_theorem_spaces():
    """Seeded so4-so2 draws on the coupled stratum t = 2 - s, within 1e-6
    of it and off it; seeded spin3 draws, generic and on the line; every
    default_spaces() entry; the augmented Berger and round spin3 spaces;
    the round spheres S^2 to S^6; and inline so(n+1)/so(n) documents with
    no complement, n = 2 to 7, which take the default complement."""
    rng = np.random.default_rng(2053)
    spaces = []
    for lam, s in rng.uniform([0.2, 0.2], [0.9, 1.8], (3, 2)):
        pres = spin4_quotient(so4_so2_complement(lam), DEFAULT_TOL)
        spaces += [pres.space(BilinearForm(so4_so2_gram(s, t))) for t in (
            2.0 - s, 2.0 - s + rng.uniform(-1e-6, 1e-6),
            rng.uniform(0.3, 3.0))]
    spin3 = spin3_presentation(DEFAULT_TOL)
    spaces += [spin3.space(BilinearForm(np.diag(w)))
               for w in [*rng.uniform(0.5, 3.0, (3, 3)),
                         *(spin3_line(s) for s in rng.uniform(0.1, 0.9, 2))]]
    spaces += [sp for sp, _ in default_spaces()]
    spaces += [augment_left_invariant(spin3_berger(1.5)[0]),
               augment_left_invariant(spin3_metric(2.0, 2.0, 2.0)[0])]
    spaces += [round_sphere(n)[0] for n in range(2, 7)]
    for n in range(2, 8):
        document = space_to_dict(round_sphere(n)[0])
        del document["complement"]
        spaces.append(space_from_dict(document))
    return spaces


def test_the_structure_theory_decides_the_reports():
    """The reports take from two rank decisions, p and k = [p, p], what
    the structure theory proves: evaluation is injective on p (index =
    dim p), k lies in the isotropy (dim(k + p) = dim k + dim p), and the
    isotropy plus p spans the isotropy plus the lifted s.  The complements
    take their dimensions from it too: the reference form Q and the metric
    are nondegenerate and evaluation is onto.  The rank decisions these
    replace are kept here as the reference: s as the span of the values of
    p, index its rank, dim_transvection the rank of [k | p], gD grown by
    the per-seed loop from isotropy plus lifted s, and the kernels of
    gD^T Q, h^T Q and s^T G E as g_prime, the default complement and the
    seed of the perpendicular space.
    """
    seen = set()
    for sp in _structure_theorem_spaces():
        rep, tol, n = transvection_space(sp), sp.tol, sp.algebra.dim
        p, k = rep.p_space.basis, rep.k_space.basis
        values = sp.eval_matrix @ p
        transvection_rank = numerical_rank(np.hstack([k, p]), tol)
        assert numerical_rank(values, tol) == rep.p_space.dim
        assert transvection_rank == rep.k_space.dim + rep.p_space.dim
        assert sp.isotropy.contains_columns(k).all()
        s_old = Subspace.from_spanning(sp.dim, values, tol)
        lifted = Subspace.from_spanning(
            n, np.hstack([sp.h_basis, sp.m_basis @ s_old.basis]), tol)
        assert lifted.equals(Subspace(n, np.hstack([sp.h_basis, p])))
        assert rep.s_space.equals(s_old)
        c = sp.dim - s_old.dim
        assert (rep.index, rep.coindex, rep.dim_transvection) == (
            s_old.dim, c, transvection_rank)
        bound = symmetry_ideal(sp, rep)
        g_d = Subspace(n, invariant_by_loop(sp.algebra.ad_stack,
                                            lifted.onb(), tol))
        assert bound.gD.equals(g_d)
        lhs, rhs = 2 * (n - g_d.dim), c * (c + 1)
        assert (bound.k, bound.lhs, bound.rhs, bound.equality) == (
            c, lhs, rhs, lhs == rhs)
        q = reference_form(sp.algebra, tol).gram
        g_prime = numerical_kernel(bound.gD.basis.T @ q, tol)
        assert g_prime.shape == (n, n - g_d.dim)
        assert bound.g_prime.equals(Subspace(n, g_prime))
        assert Subspace.kernel_of(sp.h_basis.T @ q, tol).equals(
            orthogonal_complement(sp.algebra, sp.isotropy, tol))
        seed = Subspace.kernel_of(
            rep.s_space.basis.T @ sp.metric.gram @ sp.eval_matrix, tol)
        assert seed.dim == n - rep.index
        assert perpendicular_killing_space(sp, rep).equals(
            largest_invariant_subspace(sp.algebra, np.hstack([k, p]), seed,
                                       tol))
        seen.add((rep.index, rep.k_space.dim))
    assert seen >= {(0, 0), (1, 0), (2, 1), (3, 3)}, seen


def _assert_leaf_round_trip(sp, report):
    """The leaf of symmetry of ``report``, built by meaning.leaf, is a
    symmetric space of the report's dimensions, closed under the bracket
    and totally geodesic: along each field x of p the Jacobi operators of
    the space and the leaf agree on the values E p of p."""
    lf, leak = leaf(sp, report)
    inner = transvection_space(lf)
    assert lf.algebra.dim == report.dim_transvection
    assert (inner.index, lf.dim, inner.coindex) == (report.index,
                                                    report.index, 0)
    assert inner.k_space.dim == report.k_space.dim
    assert leak <= 1e-12
    p = report.p_space.onb()
    b, values = np.hstack([report.k_space.onb(), p]), sp.eval_matrix @ p
    for x in report.p_space.basis.T:
        np.testing.assert_allclose(
            jacobi_operator(sp, x).operator @ values,
            values @ jacobi_operator(lf, b.T @ x).operator, rtol=0,
            atol=1e-12)


def test_the_leaf_of_symmetry_is_symmetric_of_the_reported_dimensions():
    """The round trip of the paper's leaf of symmetry (Olmos-Reggiani-
    Tamaru): whatever route computed a report, its k + p is the
    transvection algebra of a totally geodesic symmetric space."""
    indices = []
    for sp in _structure_theorem_spaces():
        report = transvection_space(sp)
        _assert_leaf_round_trip(sp, report)
        indices.append(report.index)
    assert len(indices) == 35 and np.count_nonzero(indices) == 24


@pytest.mark.parametrize("mutation", ["dim_transvection", "rolled p"])
def test_a_mutated_report_fails_the_leaf_round_trip(mutation):
    """The round trip tells reports apart: a wrong dim_transvection fails
    an assertion, and a p_space column rolled out of the derivative kernel
    gives a leaf that Presentation refuses (it is not effective)."""
    sp = so4_so2(0.5, 0.8)[0]  # coupled: index 2, dim k 1
    report = transvection_space(sp)
    _assert_leaf_round_trip(sp, report)
    if mutation == "dim_transvection":
        bad = dataclasses.replace(
            report, dim_transvection=report.index + 2 * report.k_space.dim)
    else:
        p = report.p_space.basis.copy()
        p[:, 0] = np.roll(p[:, 0], 1)
        assert np.abs(sp.nabla_operator() @ p[:, 0]).max() > 1e-3
        bad = dataclasses.replace(report, p_space=Subspace(sp.algebra.dim, p))
    with pytest.raises((AssertionError, ValueError)):
        _assert_leaf_round_trip(sp, bad)


def record_certificates(monkeypatch) -> list:
    """Wrap homspace._kk_certificate: each call appends its bound."""
    certs = []
    certificate = homspace._kk_certificate

    def recorded(*args):
        certs.append(certificate(*args))
        return certs[-1]

    monkeypatch.setattr(homspace, "_kk_certificate", recorded)
    return certs


def full_containment(sp, report) -> tuple:
    """The containments behind ``involutive_ok``, each computed in full as
    the reference: ``(leak, inside)``, the largest norm of a bracket of
    k_space columns outside k_space, and whether [k, k] in k and [k, p] in
    p both hold up to CHECK_TOL."""
    alg, k, p = sp.algebra, report.k_space.basis, report.p_space.basis
    kk = brackets(alg, k, k)
    flat = kk.reshape(alg.dim, k.shape[1] ** 2)
    leak = np.linalg.norm(flat - k @ (k.T @ flat), axis=0).max(initial=0.0)
    inside = (stacked_contains(k, kk)[0].all()
              and stacked_contains(p, brackets(alg, k, p))[0].all())
    return leak, bool(inside)


def test_the_kk_certificate_bounds_the_computed_leak(monkeypatch):
    """Wherever k is not zero, the certificate is at least the leak the
    full containment computes, and involutive_ok is the full
    containment's, on the structure-theorem spaces, their leaves of
    symmetry, so(n+1)/so(n) for n = 3 to 15 and so4_so2(0.5, 0.8, 1.2 + d)
    for d = 1e-2 to 1e-10, the last also as one stack.  Both paths run:
    so(15)/so(14) is certified and so(16)/so(15) checked; at d = 1e-9 the
    [k, p] leak of the nearly parallel fields sends [k, k] to the check,
    at d = 1e-10 it does not."""
    certs = record_certificates(monkeypatch)
    spaces = _structure_theorem_spaces()
    spaces += [leaf(sp, transvection_space(sp))[0] for sp in spaces]
    spheres = [round_sphere(n)[0] for n in range(3, 16)]
    near = 1.2 + 10.0 ** -np.arange(2, 11)
    strata = [so4_so2(0.5, 0.8, t)[0] for t in near]
    bounds = []  # the certificate of each space, or 0 where k = 0
    for sp in spaces + spheres + strata:
        certs.clear()
        report = transvection_space(sp)
        leak, inside = full_containment(sp, report)
        assert report.involutive_ok == inside
        assert len(certs) == (report.k_space.dim > 0)
        bounds.append(certs[0] if certs else 0.0)
        assert leak <= bounds[-1]
    half = CHECK_TOL / 2
    assert np.count_nonzero(np.array(bounds) <= half) >= 40
    *_, so15, so16 = bounds[len(spaces):len(spaces) + len(spheres)]
    *_, at_1e9, at_1e10 = bounds[-len(strata):]
    assert so15 <= half < so16 and at_1e10 <= half < at_1e9
    pres = spin4_quotient(so4_so2_complement(0.5), DEFAULT_TOL)
    reports = homspace._unstack(TransvectionReport, transvection_stack(
        pres, [so4_so2_gram(0.8, t) for t in near]), pres)
    for report, sp in zip(reports, strata):
        assert report.involutive_ok == full_containment(sp, report)[1]


def record_self_brackets(monkeypatch) -> list:
    """Wrap homspace.brackets: each bracket of a basis with itself appends
    the number of its columns: the complement's of the Koszul terms, the
    index for the [p, p] spans and dim k for the full [k, k] containments."""
    calls = []
    exact = homspace.brackets

    def counted(alg, a, b):
        if a is b:
            calls.append(a.shape[-1])
        return exact(alg, a, b)

    monkeypatch.setattr(homspace, "brackets", counted)
    return calls


def test_a_perturbed_algebra_falls_back_to_the_full_containment(monkeypatch):
    """so(5) with an antisymmetric perturbation of 1e-11 per entry is an
    algebra within DEFAULT_TOL, but its Jacobi bound makes n^{3/2} J exceed
    CHECK_TOL: the certificate leaves [k, k] in k open, and the full
    containment decides it as the reference does."""
    sphere = round_sphere(4)[0]
    rng = np.random.default_rng(31)
    noise = rng.standard_normal((10, 10, 10))
    structure = sphere.algebra.structure + 1e-11 * (
        noise - noise.transpose(1, 0, 2))
    alg = LieAlgebra(10, sphere.algebra.basis_labels, structure)
    assert 10 ** 1.5 * alg._jacobi_bound > CHECK_TOL
    sp = HomogeneousSpace(alg, sphere.isotropy, sphere.metric,
                          complement=sphere.complement)
    certs = record_certificates(monkeypatch)
    calls = record_self_brackets(monkeypatch)
    report = transvection_space(sp)
    assert (report.index, report.k_space.dim) == (4, 6)
    assert certs[0] > CHECK_TOL / 2
    assert calls.count(6) == 1  # beside the [m, m] of nabla and the [p, p]
    assert report.involutive_ok and full_containment(sp, report) == (
        pytest.approx(0.0, abs=1e-9), True)
    exact = homspace.brackets

    def leaking(alg, a, b):  # [k, k] gains 1e-6 of E01, which is in p
        out = exact(alg, a, b)
        return out + 1e-6 * np.eye(10)[:, :1, None] if (
            a is b and a.shape[-1] == 6) else out

    monkeypatch.setattr(homspace, "brackets", leaking)
    assert not transvection_space(sp).involutive_ok


def test_the_kk_certificate_grows_with_the_rank_gap():
    """A dropped singular value at the cutoff, or a small kept one, leaves
    [k, k] in k to the check: the bound carries 2 A s_{r+1} / s_r, and its
    other terms over s_r."""
    alg = so_elementary(5)[0]
    leaks = np.zeros((1, 6))  # squared [k, p] leaks for r = 2, k = 3

    def bound(*sv):
        return homspace._kk_certificate(alg, np.array([sv]), 2, 3, leaks)

    assert bound(1.0, 1.0, 0.0) <= CHECK_TOL / 2
    assert bound(1.0, 1.0, 1e-9) - bound(1.0, 1.0, 0.0) == pytest.approx(
        2e-9 * np.linalg.norm(alg.structure))
    assert bound(1.0, 1e-4, 0.0) > CHECK_TOL / 2


def test_stacked_symmetry_ideals_equal_the_one_report_path():
    """symmetry_ideals decides the reports of one presentation together;
    each bound must be symmetry_ideal's for its report alone, with the gD
    of the per-seed loop of meaning.invariant_by_loop.  The seeded stacks
    mix index 0 with both so4-so2 strata t = 2 - s and t = 2 + s (index
    2), spin3 metrics of index 0 and 1, centriole metrics of index 1 whose
    gD is the centre, and round S^3 metrics of full index whose gD is the
    whole algebra."""
    rng = np.random.default_rng(2043)
    cp2 = cp2_centriole()[0]
    stacks = [
        (spin4_quotient(so4_so2_complement(rng.uniform(0.2, 0.9)),
                        DEFAULT_TOL),
         [so4_so2_gram(s, t) for s in rng.uniform(0.2, 1.8, 3)
          for t in (2.0 - s, 2.0 + s, rng.uniform(0.3, 3.0))]),
        (spin3_presentation(DEFAULT_TOL),
         [np.diag(w) for w in rng.uniform(0.5, 3.0, (3, 3))]
         + [np.diag(spin3_line(s)) for s in rng.uniform(0.1, 0.9, 2)]),
        (cp2, [c * cp2.metric.gram for c in rng.uniform(0.5, 2.0, 2)]
         + [np.diag([a, 1.0, 1.0]) for a in rng.uniform(0.5, 3.0, 2)]),
        (round_sphere(3)[0],
         [c * np.eye(3) for c in rng.uniform(0.5, 2.0, 3)]),
    ]
    seen = set()
    for pres, grams in stacks:
        rng.shuffle(grams)
        found = transvection_stack(pres, np.array(grams))
        reports = homspace._unstack(TransvectionReport, found, pres)
        assert None not in reports
        bounds = homspace._unstack(BoundReport,
                                   homspace.symmetry_ideals(pres, found), pres)
        for report, bound in zip(reports, bounds):
            want = symmetry_ideal(pres, report)
            assert (bound.k, bound.lhs, bound.rhs, bound.equality) == (
                want.k, want.lhs, want.rhs, want.equality)
            assert bound.gD.equals(want.gD)
            assert bound.g_prime.equals(want.g_prime)
            seed = Subspace.from_spanning(pres.algebra.dim, np.hstack(
                [pres.h_basis, pres.m_basis @ report.s_space.basis]))
            by_loop = invariant_by_loop(pres.algebra.ad_stack, seed.onb(),
                                        pres.tol)
            assert bound.gD.equals(Subspace(pres.algebra.dim, by_loop))
            seen.add((report.index, report.coindex, bound.gD.dim))
    assert {i for i, _, _ in seen} >= {0, 1, 2, 3}, seen
    assert {(c, d) for _, c, d in seen} >= {(3, 0), (5, 0), (2, 1), (0, 6)}, \
        seen


def test_a_full_seed_gives_the_whole_algebra_without_a_factorization(
        monkeypatch):
    """Where the seed [h | p] has n columns it has full rank by theorem, so
    symmetry_ideals takes gD = g and g_prime = 0 without factorizing it.
    Both equal the SVD route of meaning.ideal_by_svd, print the same
    canonical bases, and no stacked_frames call sees a full seed: on the
    round spheres S^2 to S^9, on a stack of S^3 metrics that mixes round
    ones with a refused one, and on a stack of Spin(3) metrics that mixes
    partial seeds (metrics of the one-parameter line, index 1) with empty
    ones (generic metrics and round ones, index 0 relative to the
    one-sided algebra).  No presentation here carries a symmetric metric
    and a non-symmetric one relative to its algebra, so a full seed and a
    partial one meet in one call only where a refused member is skipped."""
    rng = np.random.default_rng(37)
    stacks = [(sp, [sp.metric.gram])
              for sp in (round_sphere(n)[0] for n in range(2, 10))]
    stacks.append((round_sphere(3)[0],
                   [c * np.eye(3) for c in rng.uniform(0.5, 2.0, 2)]
                   + [-np.eye(3)]))
    stacks.append((spin3_presentation(DEFAULT_TOL),
                   [c * np.eye(3) for c in rng.uniform(0.5, 2.0, 2)]
                   + [np.diag(spin3_line(s)) for s in rng.uniform(0.1, 0.9, 2)]
                   + [np.diag(w) for w in rng.uniform(0.5, 3.0, (2, 3))]))
    widths, frames = [], homspace.stacked_frames
    monkeypatch.setattr(homspace, "stacked_frames",
                        lambda a: widths.append(a.shape[-1]) or frames(a))
    seen = []
    for pres, grams in stacks:
        n = pres.algebra.dim
        found = transvection_stack(pres, np.array(grams))
        reports = homspace._unstack(TransvectionReport, found, pres)
        widths.clear()
        bounds = homspace._unstack(BoundReport,
                                   homspace.symmetry_ideals(pres, found), pres)
        assert all(width < n for width in widths), widths
        for report, bound in zip(reports, bounds):
            if report is None:
                assert bound is None
                seen.append(None)
                continue
            full = pres.h_basis.shape[1] + report.index == n
            g_d, g_prime = ideal_by_svd(pres, report)
            for got, want in ((bound.gD, g_d), (bound.g_prime, g_prime)):
                assert got.equals(Subspace(n, want))
                assert np.array_equal(canonical_basis(got.onb()),
                                      canonical_basis(want))
            assert bound.gD.dim == n if full else bound.gD.dim < n
            seen.append((report.index, full))
    assert seen[:11] == [(n, True) for n in range(2, 10)] + [(3, True)] * 2 + [
        None]
    assert sorted(seen[11:]) == [(0, False)] * 4 + [(1, False)] * 2


def test_a_nested_part_of_a_stack_reads_its_own_members_lift_brackets():
    """Parts of the stack [a, b, a, c] of so4-so2 complements, and parts of
    a part, hold one Koszul term, the stack's, and read at each position
    its own member's: their derivatives are those of each position's own
    presentation, bit for bit.  The part of positions 1 to 3 holds the
    members b, a, c, and its positions 2 and 0 are the stack's c and b."""
    a, b, c = (so4_so2_complement(lam) for lam in (0.3, 0.6, 0.9))
    stack = spin4_quotient([a, b, a, c], 1e-9)
    grams = np.array([so4_so2_gram(s, 2.0 - s) for s in (0.4, 0.8, 1.2, 1.6)])
    part = stack._members(np.arange(1, 4))
    nested = part._members(np.array([2, 0]))
    for sub, positions in ((part, [1, 2, 3]), (nested, [3, 1])):
        assert sub._lift_brackets is stack._lift_brackets
        got = homspace._nablas(sub, grams[positions])
        for row, i in enumerate(positions):
            one = spin4_quotient([a, b, a, c][i], 1e-9)
            assert np.array_equal(got[row],
                                  homspace._nablas(one, grams[i][None])[0])
    assert "_lift_brackets" in vars(stack)  # formed once, on the stack


def test_a_stacked_presentation_refuses_exactly_its_failing_members():
    """A stack of so4-so2 complements, one per metric, refuses the member
    whose complement overlaps the isotropy and the one whose complement is
    not reductive with the messages a single presentation raises, and a
    bad metric on either with the complement's message; it decides every
    other member as transvection_space and symmetry_ideal do."""
    rng = np.random.default_rng(1519)
    good = [so4_so2_complement(lam) for lam in rng.uniform(0.1, 1.0, 6)]
    overlap = good[1].basis.copy()
    overlap[:, 0] = [1.0, 0.0, 0.0, 1.0, 0.0, 0.0]
    # m0 + 0.3 h: still completes the isotropy, but ad(h) m1 is m0
    unreductive = good[3].basis.copy()
    unreductive[:, 0] += 0.3 * np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    complements = [good[0], Subspace(6, overlap), good[2],
                   Subspace(6, unreductive), good[4], good[5], good[1]]
    s = rng.uniform(0.2, 1.8, 7)
    grams = [so4_so2_gram(v, 2.0 - v if i % 2 else rng.uniform(0.3, 3.0))
             for i, v in enumerate(s)]
    grams[1] = grams[6] = np.diag([2.0, 2.0, -1.0, 1.0, 1.0])
    messages = {}
    for i in (1, 3):
        with pytest.raises(ValueError) as refusal:
            spin4_quotient(complements[i], 1e-9)
        messages[i] = str(refusal.value)
    assert "overlap" in messages[1] and "not reductive" in messages[3]
    messages[6] = "metric is not positive definite"

    stack = spin4_quotient(complements, 1e-9)
    assert homspace._metric_refusals(stack, np.array(grams)) == [
        messages.get(i) for i in range(7)]
    found = transvection_stack(stack, grams)
    reports = homspace._unstack(TransvectionReport, found, stack)
    psd_ok, refused = found["psd_ok"], found["refused"]
    bounds = homspace._unstack(BoundReport,
                               homspace.symmetry_ideals(stack, found), stack)
    indices = set()
    for i, (comp, gram) in enumerate(zip(complements, grams)):
        if i in messages:
            assert reports[i] is None and bounds[i] is None
            continue
        sp = spin4_quotient(comp, 1e-9).space(BilinearForm(gram))
        want = transvection_space(sp)
        got = reports[i]
        assert (got.index, got.coindex, got.dim_transvection) == (
            want.index, want.coindex, want.dim_transvection)
        for name in ("p_space", "k_space", "s_space"):
            assert getattr(got, name).equals(getattr(want, name))
        one = transvection_stack(sp, [gram])
        assert (psd_ok[i], refused[i]) == (one["psd_ok"][0],
                                           one["refused"][0])
        bound = symmetry_ideal(sp, want)
        assert (bounds[i].lhs, bounds[i].rhs) == (bound.lhs, bound.rhs)
        assert bounds[i].gD.equals(bound.gD)
        indices.add(got.index)
    assert indices == {0, 2}
    # one metric per member: a stack does not broadcast to other counts
    with pytest.raises(ValueError, match="stack of size 7 "):
        transvection_stack(stack, grams[:6])
    with pytest.raises(ValueError, match="stack of size 7 "):
        stack.space(BilinearForm(np.eye(5)))


def test_a_stack_refuses_only_the_member_whose_brackets_overflow():
    """The spin3 stack [c, 1e200 c]: the brackets of the scaled complement
    overflow, so its member is refused by name with no numpy warning, and
    the other member is decided as the spin3 space alone decides it."""
    one = spin3_presentation(DEFAULT_TOL)
    c = one.complement
    message = "the brackets of the complement overflow; rescale its basis"
    gram = np.diag([0.5, 1.5, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stack = Presentation(one.algebra, one.isotropy,
                             [c, Subspace(3, 1e200 * c.basis)], DEFAULT_TOL)
        assert homspace._metric_refusals(
            stack._members(np.arange(2)), np.array([gram, gram])) == [
            None, message]
        found = transvection_stack(stack, [gram, gram])
        want = transvection_stack(one, [gram])
        with pytest.raises(ValueError, match=re.escape(message)):
            Presentation(one.algebra, one.isotropy,
                         Subspace(3, 1e200 * c.basis))
    for name in ("index", "coindex", "dim_transvection", "involutive_ok",
                 "psd_ok", "refused"):
        assert found[name][0] == want[name][0], name
    assert found["index"][1] == -1
    (rows, p), = found["p_space"]
    (_, q), = want["p_space"]
    assert rows.tolist() == [0] and np.array_equal(p, q)


def test_a_stack_takes_one_metric_per_member_and_makes_no_space():
    """A metric count other than the stack's size is refused by one message
    naming both counts, also where numpy would broadcast a stack of one and
    on a part read by an index array; a stack, even of one member, makes no
    single space, and it decides one metric per position, also where its
    positions repeat a complement."""
    gram = so4_so2_gram(0.8, 1.2)
    part = spin4_quotient([so4_so2_complement(lam) for lam in (0.3, 0.6, 0.9)],
                          1e-9)._members(np.arange(3))
    stacks = [(spin4_quotient([so4_so2_complement(0.5)] * size, 1e-9), size,
               count) for size, count in ((1, 3), (2, 3), (3, 1), (2, 0))]
    for stack, size, count in stacks + [(part, 3, 5), (part, 3, 1)]:
        with pytest.raises(ValueError, match=(
                f"a stack of size {size} takes one metric per member, "
                f"got {count}")):
            transvection_stack(stack, [gram] * count)
    one = spin4_quotient([so4_so2_complement(0.5)], 1e-9)
    with pytest.raises(ValueError, match="stack of size 1 is no space"):
        one.space(BilinearForm(gram))
    assert transvection_stack(one, [gram])["index"][0] == 2
    a, b = (so4_so2_complement(lam) for lam in (0.5, 1.0))
    grams = np.array([so4_so2_gram(s, 2.0 - s) for s in (0.5, 0.8, 1.2)])
    assert transvection_stack(spin4_quotient([a, b, a], 1e-9),
                              grams)["index"].tolist() == [2, 2, 2]


def test_an_int_position_of_a_stack_takes_a_metric_as_its_own_presentation():
    """The part of a stack at an int position holds the 2-D arrays of one
    complement and takes a metric as the presentation of that complement
    alone does, bit for bit, also where the stack's positions share that
    one complement."""
    a, b = (so4_so2_complement(lam) for lam in (0.5, 1.0))
    metric = BilinearForm(so4_so2_gram(0.5, 1.5))
    want = spin4_quotient(b, 1e-9).space(metric)
    for comps in ([a, b], [b, b]):
        got = spin4_quotient(comps, 1e-9)._members(1).space(metric)
        for name in ("m_basis", "eval_matrix", "_nabla_basis"):
            assert same_bits(getattr(got, name), getattr(want, name)), name
        assert transvection_space(got).index == transvection_space(want).index
    stack = spin4_quotient([a, b, a], 1e-9)
    assert stack._members(1).complement is b
    assert stack._members(np.arange(3)).complement == (a, b, a)
    assert space_to_dict(stack._members(1).space(metric)) == space_to_dict(
        want)


def test_the_stacked_result_holds_every_report_field_by_name():
    """Each field of :class:`BoundReport`, and each of
    :class:`TransvectionReport` but ``s_space``, which the reports form
    from ``p_space``, is a key of the stacked result of a stack."""
    pres = spin4_quotient([so4_so2_complement(lam) for lam in (0.5, 1.0)],
                          1e-9)
    grams = np.array([so4_so2_gram(s, 2.0 - s) for s in (0.5, 1.2)])
    stack = symmetry_ideals(pres, transvection_stack(pres, grams))
    names = {f.name for cls in (TransvectionReport, BoundReport)
             for f in dataclasses.fields(cls)}
    assert names - {"s_space"} <= stack.keys()


def test_a_part_read_by_an_index_array_is_no_space():
    """A part of a stack read by an index array keeps the stack axis, even
    of length 1, and is refused as a stack, not made a space of stacked
    arrays."""
    stack = spin4_quotient([so4_so2_complement(lam) for lam in (0.5, 1.0)],
                           1e-9)
    with pytest.raises(ValueError, match="stack of size 1 is no space"):
        stack._members(np.array([1])).space(
            BilinearForm(so4_so2_gram(0.5, 1.5)))


def test_a_stack_from_an_iterator_keeps_its_complements():
    """A stack keeps its complements, one per position, as a tuple, also
    when they come from an iterator that its construction exhausts; it
    holds each distinct complement object once, placed at its positions."""
    comps = [so4_so2_complement(lam) for lam in (0.5, 1.0)]
    positions = [comps[0], comps[1], comps[0], comps[0]]
    stack = spin4_quotient((c for c in positions), 1e-9)
    assert stack.complement == tuple(positions)
    assert stack.m_basis.shape == (2, 6, 5)
    assert stack._place.tolist() == [0, 1, 0, 0]


def test_a_stack_of_metrics_peaks_within_its_byte_budget():
    """transvection_stack checks, derives and decides its metrics chunk by
    chunk: on 4 000 coupled metrics of one so4-so2 presentation it peaks
    no higher than the byte budget, and 64 KiB of slack, above what it
    holds on return, its results."""
    pres = spin4_quotient(so4_so2_complement(0.5), DEFAULT_TOL)
    grams = np.array([so4_so2_gram(s, 2.0 - s)
                      for s in np.linspace(0.1, 1.9, 4000)])
    transvection_stack(pres, grams[:50])  # imports and caches, untraced
    (found, held), peak = traced_peak(lambda: (
        transvection_stack(pres, grams), tracemalloc.get_traced_memory()[0]))
    assert found["index"].tolist() == [2] * 4000
    assert peak <= held + liealg._STACK_BYTES + 64 * 1024


def test_a_misshapen_gram_stack_is_refused_by_its_shape():
    """transvection_stack takes metrics (N, dim, dim) and refuses any other
    shape by name: one 9 x 9 Gram matrix on Spin(3), of dimension 3, is not
    nine 3 x 3 metrics, and neither one 3 x 3 matrix nor an empty sequence
    is a stack of them.  The point, of dimension 0, takes (N, 0, 0) as
    transvection_space takes its metric."""
    pres = spin3_presentation(1e-9)
    for shape in [(9, 9), (1, 9, 9), (9,), (3,), (), (2, 3), (3, 3, 1),
                  (1, 1, 3, 3), (3, 3), (0,)]:
        with pytest.raises(ValueError, match=re.escape(
                f"metrics of shape {shape}, not (N, 3, 3)")):
            transvection_stack(pres, np.ones(shape))
    assert transvection_stack(pres, [np.eye(3)])["index"].tolist() == [0]
    assert transvection_stack(pres, np.ones((0, 3, 3)))["index"].shape == (0,)
    point = HomogeneousSpace(abelian(0)[0], Subspace.zero(0),
                             BilinearForm(np.zeros((0, 0))))
    assert transvection_space(point).index == 0
    found = transvection_stack(point, np.zeros((2, 0, 0)))
    assert found["index"].tolist() == [0, 0]


def test_a_space_built_from_a_space_takes_the_new_metric():
    """Presentation.space on a space whose derivative is already computed
    decides with the derivative of the new metric."""
    sp, _ = so4_so2(0.5, 0.5)
    assert transvection_space(sp).index == 2
    other = sp.space(BilinearForm(np.diag([2.0, 2.0, 0.5, 1.2, 1.2])))
    want, _ = so4_so2(0.5, 0.5, 1.2)
    np.testing.assert_allclose(other.nabla_operator(), want.nabla_operator(),
                               atol=1e-12)
    assert transvection_space(other).index == transvection_space(want).index
    assert transvection_space(other).index == 0


def test_each_curvature_refusal_names_the_first_failing_precondition():
    """jacobi_operator and closed_geodesic_length raise by the precondition
    that fails first (speed, then geodesic), and the stacked check refuses
    the same fields.  The geodesics that the double bracket refused, as
    depending on the lift or not self-adjoint, have the finite-difference
    curvature R(., c')c'."""
    sp, _ = so4_so2(0.8, 1.6, 0.4)
    fields = np.array([[0, 0, 0, 0, 0, 0], [0, 0, 1, 1, 1, 0],
                       [0, 1, -1, 0, 0, 0], [-1, 0, 0, 0, 0, 0]], float).T
    rep = np.zeros((6, 2, 2))
    for x, message in zip(fields.T, ["evaluates to zero", "not a geodesic"]):
        with pytest.raises(ValueError, match=message):
            jacobi_operator(sp, x)
        with pytest.raises(ValueError, match=message):
            closed_geodesic_length(sp, rep, x)
    assert curvature_psd(sp, fields)[1].tolist() == [True, True, False, False]
    chart = ExponentialChart(sp, sp.metric.gram)
    for x in fields.T[2:]:
        np.testing.assert_allclose(jacobi_operator(sp, x).operator,
                                   chart.jacobi_matrix_fd(sp.evaluate(x)),
                                   atol=1e-6)


def test_an_orbit_length_needs_only_a_geodesic():
    """At the base point (rho i, i) of the product of spheres with rho = 1,
    e0 fixes rho i under conjugation and moves i at speed 1 with period
    2 pi; e1 turns rho i at frequency 2 (speed 2) and i at frequency 1
    (speed 1), period 2 pi and speed sqrt(5).  Both orbits are geodesics,
    the one precondition an orbit length shares with jacobi_operator, which
    gives their curvature as the finite differences do."""
    sp, info = product_of_spheres(1.0)
    e0, e1 = np.eye(6)[:2]
    chart = ExponentialChart(sp, sp.metric.gram)
    for x in (e0, e1):
        np.testing.assert_allclose(jacobi_operator(sp, x).operator,
                                   chart.jacobi_matrix_fd(sp.evaluate(x)),
                                   atol=1e-6)
    rep = info["representation"]
    assert closed_geodesic_length(sp, rep, e0) == pytest.approx(
        2.0 * np.pi, rel=1e-12)
    assert closed_geodesic_length(sp, rep, e1) == pytest.approx(
        2.0 * np.pi * np.sqrt(5.0), rel=1e-12)


@pytest.mark.parametrize("x, shown", [
    ([np.nan, 1.0, 0.0], r"\[0\] is nan"),
    ([0.0, 1.0, -np.inf], r"\[2\] is -inf"),
], ids=["nan", "-inf"])
def test_a_non_finite_field_is_refused_by_name(x, shown):
    """A non-finite coefficient is named, not read as a zero speed, by
    jacobi_operator and closed_geodesic_length alike."""
    sp, info = round_sphere(2)
    message = f"field entry {shown}, not a finite number"
    with pytest.raises(ValueError, match=message):
        jacobi_operator(sp, x)
    with pytest.raises(ValueError, match=message):
        closed_geodesic_length(sp, info["representation"], x)


@pytest.mark.parametrize("x", [np.ones(5), np.ones(7), np.ones((6, 1))],
                         ids=["short", "long", "column"])
def test_a_field_of_the_wrong_length_is_refused_by_name(x):
    """so(4) has 6 fields; the field's shape and the algebra dimension are
    named, by jacobi_operator and closed_geodesic_length alike, before a
    matmul meets them."""
    sp, info = round_sphere(3)
    message = (rf"field has shape \({x.shape[0]},{' 1' if x.ndim == 2 else ''}"
               rf"\), the algebra dimension is 6")
    with pytest.raises(ValueError, match=message):
        jacobi_operator(sp, x)
    with pytest.raises(ValueError, match=message):
        closed_geodesic_length(sp, info["representation"], x)


@pytest.mark.parametrize("x", [
    np.array([1 + 1j, 0, 0, 0, 0, 0]), [1 + 1j, 0, 0, 0, 0, 0],
    np.eye(6, dtype=complex)[0], np.array([1 + 1j, 0, 0]),
], ids=["array", "list", "zero-imaginary", "short"])
def test_a_complex_field_is_refused_by_name(x):
    """Killing field coefficients are real: a complex field, as an array
    or a list and even with no imaginary part, is refused by name before
    it is converted, not cut to its real part with a ComplexWarning nor
    met by float()'s TypeError."""
    sp, info = round_sphere(3)
    message = r"field has complex entries \(complex128\), not real numbers"
    with pytest.raises(ValueError, match=message):
        jacobi_operator(sp, x)
    with pytest.raises(ValueError, match=message):
        closed_geodesic_length(sp, info["representation"], x)


@pytest.mark.parametrize("rep, message", [
    (np.zeros((5, 4, 4)), r"shape \(5, 4, 4\)"),
    (np.zeros((6, 4, 3)), r"shape \(6, 4, 3\)"),
    (np.zeros((6, 16)), r"shape \(6, 16\)"),
    (np.where(np.eye(4, dtype=bool), np.nan, 0.0)[None].repeat(6, axis=0),
     r"representation entry \[0, 0, 0\] is nan, not a finite number"),
], ids=["five-matrices", "not-square", "flat", "nan"])
def test_closed_geodesic_length_refuses_a_representation_by_name(rep, message):
    """The representation must be one finite d x d matrix per field of the
    algebra, checked before eigvals or einsum meet it."""
    sp, _ = round_sphere(3)
    with pytest.raises(ValueError, match=message):
        closed_geodesic_length(sp, rep, sp.lift(np.eye(3)[:, 0]))


def test_batched_psd_check_takes_no_candidates():
    sp, _ = so4_so2(0.5, 0.5)
    psd_ok, refused = curvature_psd(sp, np.zeros((6, 0)))
    assert psd_ok.shape == refused.shape == (0,)


def test_operator_scales_inversely_with_the_metric():
    a = jacobi_operator(spin3_metric(1.0, 1.0, 2.0)[0], I_VEC)
    b = jacobi_operator(spin3_metric(4.0, 4.0, 8.0)[0], I_VEC)
    np.testing.assert_allclose(np.sort(b.eigenvalues),
                               np.sort(a.eigenvalues) / 4.0, atol=1e-10)


def test_field_solutions_on_a_spectrum_with_a_negative_eigenvalue():
    """Through the cosh branch and for scalar t, against the integrated
    field equation of the operator with that spectrum, on a metric-
    orthonormal eigenbasis that is not the coordinate basis, along the
    field of the space that is parallel at the base point."""
    sp, _ = spin3_metric(0.5, 1.5, 2.0)
    rng = np.random.default_rng(677)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    vecs = np.linalg.inv(np.linalg.cholesky(sp.metric.gram)).T @ q
    kappa = np.array([-0.8, 0.0, 0.6])
    spec = homspace.JacobiSpectrum(
        direction=transvection_space(sp).p_space.basis[:, 0],
        operator=vecs * kappa @ vecs.T
        @ sp.metric.gram, eigenvalues=kappa, eigenvectors=vecs,
        psd_ok=False, selfadjoint_residual=0.0)
    v0, w0 = rng.standard_normal(3), rng.standard_normal(3)
    times, integrated = integrate_field_equation(spec.operator, v0, w0, 2.0)
    np.testing.assert_allclose(jacobi_field(sp, spec, v0, w0, times),
                               integrated, rtol=0, atol=1e-9)
    at_end = jacobi_field(sp, spec, v0, w0, 2.0)
    assert at_end.shape == (3,)
    np.testing.assert_allclose(at_end, integrated[-1], rtol=0, atol=1e-9)


@pytest.mark.parametrize("v, message", [
    ([1 + 1j, 0], r"has complex entries \(complex128\), not real numbers"),
    ([1.0, 0.0, 0.0], r"has shape \(3,\), the space dimension is 2"),
    ([np.nan, 0.0], r"entry \[0\] is nan, not a finite number"),
], ids=["complex", "long", "nan"])
def test_jacobi_field_refuses_an_initial_vector_by_name(v, message):
    """The initial value and derivative are dim finite real tangent
    coordinates, refused by name before any product: not met by float()'s
    TypeError or a matmul message, nor carried into rows of nan."""
    sp, _ = round_sphere(2)
    spec = jacobi_operator(sp, sp.lift([1.0, 0.0]))
    with pytest.raises(ValueError, match="v0 " + message):
        jacobi_field(sp, spec, v, np.zeros(2), 1.0)
    with pytest.raises(ValueError, match="w0 " + message):
        jacobi_field(sp, spec, np.zeros(2), v, [0.0, 1.0])


@pytest.mark.parametrize("t, shown", [
    ([0.0, np.nan], r"\[1\] is nan"), (np.inf, r"\[0\] is inf"),
], ids=["nan", "inf"])
def test_jacobi_field_refuses_a_non_finite_arc_length_by_name(t, shown):
    """A non-finite arc length is named, not carried into a row of nan."""
    sp, _ = round_sphere(2)
    spec = jacobi_operator(sp, sp.lift([1.0, 0.0]))
    with pytest.raises(ValueError, match=rf"t entry {shown}, not a finite"):
        jacobi_field(sp, spec, [1.0, 0.0], [0.0, 1.0], t)


def test_jacobi_field_refuses_a_direction_that_is_not_parallel():
    """The closed form needs an operator constant along the orbit, which
    a field parallel at the base point gives; the basis directions of
    spin3:1,2,3 are geodesics, but none is parallel."""
    sp, _ = spin3_metric(1.0, 2.0, 3.0)
    spec = jacobi_operator(sp, sp.m_basis[:, 0])
    with pytest.raises(ValueError, match="direction of the spectrum is not "
                                         "parallel at the base point"):
        jacobi_field(sp, spec, np.zeros(3), np.zeros(3), 1.0)


@pytest.mark.parametrize("call, what, of, n", [
    (HomogeneousSpace.evaluate, "field", "algebra", 3),
    (HomogeneousSpace.lift, "tangent vector", "space", 2),
    (HomogeneousSpace.nabla_at_base, "field", "algebra", 3),
    (lambda sp, v: sp.isotropy.contains_columns(v), "vecs", "ambient", 3),
], ids=["evaluate", "lift", "nabla_at_base", "contains_columns"])
def test_coordinates_are_refused_by_name(call, what, of, n):
    """On so(3)/so(2) each public method that takes coordinates refuses
    complex, misshapen or non-finite input by name (not by float()'s
    TypeError, a matmul message or a real part kept with a ComplexWarning),
    and takes a matrix of coordinate columns as each column."""
    sp, _ = round_sphere(2)
    for v, message in [
            (np.eye(n)[0] * (1 + 1j), r"has complex entries \(complex128\)"),
            (np.zeros(n + 1), rf"has shape \({n + 1},\), the {of} dimension "
                              rf"is {n}"),
            (np.zeros(()), rf"has shape \(\), the {of} dimension is {n}"),
            (np.r_[np.zeros(n - 1), np.nan], rf"entry \[{n - 1}\] is nan"),
            (np.c_[np.zeros(n), [np.inf] * n], r"entry \[0, 1\] is inf")]:
        with pytest.raises(ValueError, match=f"{what} {message}"):
            call(sp, v)
    columns = np.random.default_rng(5).standard_normal((n, 2))
    together = call(sp, columns)
    for j, column in enumerate(columns.T):
        alone = call(sp, column)
        np.testing.assert_allclose(
            alone, together[j] if call is HomogeneousSpace.nabla_at_base
            else together[..., j], rtol=1e-14, atol=1e-14)


def test_field_solutions_on_sphere_and_torus():
    sp, _ = round_sphere(3)
    spec = jacobi_operator(sp, sp.lift(np.eye(3)[:, 0]))
    # eigenvector with unit eigenvalue, started with zero velocity
    w = spec.eigenvectors[:, np.argmax(spec.eigenvalues)]
    t = np.array([0.0, 0.4, 1.1, 3.0])
    vals = jacobi_field(sp, spec, w, np.zeros(3), t)
    np.testing.assert_allclose(vals, np.outer(np.cos(t), w), atol=1e-10)
    vals = jacobi_field(sp, spec, np.zeros(3), w, t)
    np.testing.assert_allclose(vals, np.outer(np.sin(t), w), atol=1e-10)

    torus = flat_torus()
    spec0 = jacobi_operator(torus, np.array([1.0, 0.0]))
    v0, w0 = np.array([0.2, -0.3]), np.array([1.0, 0.5])
    vals = jacobi_field(torus, spec0, v0, w0, t)
    np.testing.assert_allclose(vals, v0 + np.outer(t, w0), atol=1e-12)


# -- closed geodesics -------------------------------------------------------

def test_great_circle_length():
    sp, info = round_sphere(3)
    x = sp.lift(np.eye(3)[:, 0])
    length = closed_geodesic_length(sp, info["representation"], x)
    assert length == pytest.approx(2.0 * np.pi, rel=1e-10)


@pytest.mark.parametrize("s", [0.2, 0.5, 0.8])
def test_one_parameter_line_orbit_lengths(s):
    sp, info = spin3_one_parameter(s)
    rep = info["representation"]
    j_len = closed_geodesic_length(sp, rep, J_VEC)
    assert j_len == pytest.approx(2.0 * np.pi * np.sqrt(s), rel=1e-10)
    i_len = closed_geodesic_length(sp, rep, I_VEC)
    assert i_len == pytest.approx(2.0 * np.pi * np.sqrt(2.0), rel=1e-10)


def test_length_of_mixed_frequency_orbit():
    torus = flat_torus()
    j = np.array([[0.0, -1.0], [1.0, 0.0]])
    z = np.zeros((2, 2))
    rep = np.stack([np.block([[2 * j, z], [z, z]]),
                    np.block([[z, z], [z, 3 * j]])])
    length = closed_geodesic_length(torus, rep, np.array([1.0, 1.0]))
    # frequencies 2 and 3 close up after a full period 2*pi
    assert length == pytest.approx(2.0 * np.pi * np.sqrt(2.0), rel=1e-10)


def test_length_rejects_irrational_frequency_ratio():
    """Frequencies 1 and sqrt(2) never close up, however fine the grid."""
    torus = flat_torus()
    j = np.array([[0.0, -1.0], [1.0, 0.0]])
    z = np.zeros((2, 2))
    rep = np.stack([np.block([[j, z], [z, z]]),
                    np.block([[z, z], [z, np.sqrt(2.0) * j]])])
    with pytest.raises(ValueError, match="incommensurable"):
        closed_geodesic_length(torus, rep, np.array([1.0, 1.0]))


@pytest.mark.xfail(strict=True, raises=ValueError,
                   reason="the length is taken from the period of the "
                          "group, not from the return time of the orbit")
def test_length_ignores_the_isotropy_part_of_the_field():
    """E12 + sqrt(2) E34 on S^3: the E34 part fixes the base point and
    commutes with E12, so the orbit is the great circle of E12."""
    sp, info = round_sphere(3)  # basis E12 E13 E14 E23 E24 E34
    x = np.zeros(6)
    x[0], x[5] = 1.0, np.sqrt(2.0)
    length = closed_geodesic_length(sp, info["representation"], x)
    assert length == pytest.approx(2.0 * np.pi, rel=1e-10)


def test_length_error_paths():
    torus = flat_torus()
    j = np.array([[0.0, -1.0], [1.0, 0.0]])
    z = np.zeros((2, 2))
    with pytest.raises(ValueError, match="incommensurable"):
        rep = np.stack([np.block([[j, z], [z, z]]),
                        np.block([[z, z], [z, (1.0 + 1e-7) * j]])])
        closed_geodesic_length(torus, rep, np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="kernel"):
        rep = np.stack([np.block([[j, z], [z, z]]), np.zeros((4, 4))])
        closed_geodesic_length(torus, rep, np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="imaginary axis"):
        flip = np.zeros((4, 4))
        flip[0, 1] = flip[1, 0] = 1.0
        rep = np.stack([np.block([[j, z], [z, z]]), flip])
        closed_geodesic_length(torus, rep, np.array([0.0, 1.0]))
    squashed, info = spin3_berger(3.0)
    with pytest.raises(ValueError, match="not a geodesic"):
        closed_geodesic_length(squashed, info["representation"],
                               np.array([1.0, 1.0, 0.0]))


# -- one tolerance per space ------------------------------------------------

def test_no_function_of_a_space_takes_its_own_tolerance():
    """A space, and a presentation, carries the tolerance it was built
    with; a function of either that took another would decide ranks at a
    second cutoff."""
    of_a_space = {}
    for name, fn in inspect.getmembers(homspace, inspect.isfunction):
        if name.startswith("_") or fn.__module__ != homspace.__name__:
            continue
        params = list(inspect.signature(fn, eval_str=True).parameters.values())
        if params and params[0].annotation in (HomogeneousSpace, Presentation):
            of_a_space[name] = [p.name for p in params]
    assert {"transvection_space", "transvection_stack",
            "symmetry_ideal", "perpendicular_killing_space",
            "augment_left_invariant", "jacobi_operator",
            "closed_geodesic_length"} <= set(of_a_space)
    taking_tol = sorted(n for n, params in of_a_space.items() if "tol" in params)
    assert not taking_tol, f"functions of a space that take tol: {taking_tol}"
