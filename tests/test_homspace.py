import numpy as np
import pytest

from symidx.liealg import (
    BilinearForm,
    Subspace,
    abelian,
    direct_sum,
    so_elementary,
    spin3_quaternion,
)
from symidx.homspace import (
    HomogeneousSpace,
    augment_left_invariant,
    closed_geodesic_length,
    jacobi_field,
    jacobi_operator,
    perpendicular_killing_space,
    symmetry_ideal,
    transvection_space,
)
from symidx.catalog import (
    cp2_centriole,
    round_sphere,
    so4_so2,
    spin3_berger,
    spin3_metric,
    spin3_one_parameter,
)

I_VEC = np.array([1.0, 0.0, 0.0])
J_VEC = np.array([0.0, 1.0, 0.0])


def flat_torus(d=2):
    alg, _ = abelian(d)
    return HomogeneousSpace(alg, Subspace.zero(d), BilinearForm(np.eye(d)))


def _round_s2():
    return round_sphere(2)[0]


@pytest.mark.parametrize("build", [
    lambda: Subspace(3, np.eye(3)[:, :2]),
    lambda: BilinearForm(np.eye(2)),
    lambda: so_elementary(3)[0],
    lambda: transvection_space(_round_s2()),
    lambda: symmetry_ideal(_round_s2()),
    lambda: jacobi_operator(_round_s2(), _round_s2().m_basis[:, 0]),
    lambda: cp2_centriole()[1],
], ids=["Subspace", "BilinearForm", "LieAlgebra", "TransvectionReport",
        "BoundReport", "JacobiSpectrum", "CentrioleReport"])
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
        HomogeneousSpace(alg, span, BilinearForm(np.eye(3)),
                         check_effective=False)


def test_rejects_non_reductive_complement():
    alg, _ = so_elementary(3)
    h = Subspace(3, np.eye(3)[:, :1])
    cols = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="not reductive"):
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
    # vector 0 fails only skewness, vector 1 only reductivity: each vector
    # is checked in full before the next
    ("tilted", [1, 2, 1, 1], "isotropy vector 0 does not act skew"),
])
def test_reductive_and_skew_errors_name_the_first_offending_vector(
        complement, gram, message):
    alg, iso, standard, tilted = two_circle_isotropy()
    comp = standard if complement == "standard" else tilted
    with pytest.raises(ValueError, match=message + r".*\(residual 2\.000e\+00\)"):
        HomogeneousSpace(alg, iso, BilinearForm(np.diag(gram).astype(float)),
                         complement=Subspace(6, comp))


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


# -- transvection data ------------------------------------------------------

def test_coupled_quotient_transvection_report():
    sp, _ = so4_so2(0.4, 0.7)
    rep = transvection_space(sp)
    assert (rep.index, rep.coindex) == (2, 3)
    assert rep.dim_transvection == 3
    assert rep.involutive_ok
    assert rep.relative_to_supplied_algebra
    # the parallel fields are the diagonal j and k pairs
    for w in (np.array([0, 1, 0, 0, 1, 0.0]), np.array([0, 0, 1, 0, 0, 1.0])):
        lifted = sp.lift(sp.evaluate(w))
        assert rep.p_space.contains(lifted, 1e-8)
    assert rep.k_space.dim == 1
    assert rep.k_space.contains(np.array([1, 0, 0, 1, 0, 0.0]), 1e-8)


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
    assert rep.p_space.contains(np.array([1.0, 0.0, 0.0]), 1e-8)
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
    assert bound.gD.contains(np.array([0.0, 0.0, 0.0, 1.0]), 1e-8)


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


def test_operator_scales_inversely_with_the_metric():
    a = jacobi_operator(spin3_metric(1.0, 1.0, 2.0)[0], I_VEC)
    b = jacobi_operator(spin3_metric(4.0, 4.0, 8.0)[0], I_VEC)
    np.testing.assert_allclose(np.sort(b.eigenvalues),
                               np.sort(a.eigenvalues) / 4.0, atol=1e-10)


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
