import itertools
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from meaning import (
    adjoint,
    invariant_by_loop,
    lstsq_structure,
    same_bits,
    traced_peak,
)
from symidx import catalog, liealg, verify
from symidx.catalog import cp2_centriole, round_sphere, spin3_berger
from symidx.homspace import (
    HomogeneousSpace,
    Presentation,
    augment_left_invariant,
)
from symidx.liealg import (
    DEFAULT_TOL,
    BilinearForm,
    LieAlgebra,
    Subspace,
    abelian,
    adjoints,
    bi_invariant_directions,
    bracket,
    brackets,
    canonical_basis,
    derived_subalgebra,
    direct_sum,
    eigenvalue_clusters,
    killing_form_positive,
    largest_invariant_subspace,
    matrix_algebra,
    numerical_kernel,
    numerical_rank,
    orthogonal_complement,
    pencil_eigh,
    preset,
    quaternion_left_multiplication,
    reference_form,
    so_elementary,
    spin3_quaternion,
    stacked_frames,
    stacked_kernels,
    stacked_leaks,
    stacked_spans,
    su3,
)
from symidx.serialize import space_from_dict, space_to_dict

I, J, K = np.eye(3)


def test_quaternion_brackets_follow_the_killing_convention():
    """Right-invariant fields bracket to minus the matrix commutator."""
    alg, _ = spin3_quaternion()
    np.testing.assert_allclose(bracket(alg, J, I), 2 * K, atol=1e-12)
    np.testing.assert_allclose(bracket(alg, I, J), -2 * K, atol=1e-12)
    np.testing.assert_allclose(bracket(alg, J, K), -2 * I, atol=1e-12)
    np.testing.assert_allclose(bracket(alg, K, I), -2 * J, atol=1e-12)
    np.testing.assert_allclose(bracket(alg, I, K), 2 * J, atol=1e-12)
    np.testing.assert_allclose(bracket(alg, K, J), 2 * I, atol=1e-12)


def test_quaternion_killing_form_is_eight_times_identity():
    alg, _ = spin3_quaternion()
    np.testing.assert_allclose(killing_form_positive(alg).gram, 8 * np.eye(3),
                               atol=1e-12)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_elementary_so_killing_form_diagonal(n):
    alg, _ = so_elementary(n)
    b = killing_form_positive(alg)
    np.testing.assert_allclose(b.gram, 2 * (n - 2) * np.eye(alg.dim),
                               atol=1e-12)


def test_su3_killing_form_is_twelve_times_identity():
    alg, _ = su3()
    assert alg.dim == 8
    np.testing.assert_allclose(killing_form_positive(alg).gram,
                               12 * np.eye(8), atol=1e-12)


def test_adjoint_matches_bracket():
    alg, _ = so_elementary(4)
    rng = np.random.default_rng(7)
    x, y = rng.standard_normal((2, alg.dim))
    np.testing.assert_allclose(adjoint(alg, x) @ y, bracket(alg, x, y),
                               atol=1e-12)


def test_structure_tensor_validation_rejects_bad_tensors():
    alg, _ = spin3_quaternion()
    broken = alg.structure.copy()
    broken[0, 1, 2] += 0.1
    with pytest.raises(ValueError, match="antisymmetric"):
        LieAlgebra(3, alg.basis_labels, broken)
    # antisymmetric but violating the Jacobi identity
    broken = alg.structure.copy()
    broken[0, 1, 0] += 0.1
    broken[1, 0, 0] -= 0.1
    with pytest.raises(ValueError, match="Jacobi"):
        LieAlgebra(3, alg.basis_labels, broken)


def test_a_non_finite_structure_tensor_is_refused_by_name():
    """A nan entry makes the antisymmetry residual nan, which is not above
    the tolerance; the check fails closed and names the entry."""
    alg, _ = so_elementary(3)
    c = alg.structure.copy()
    c[0, 1, 2] = c[1, 0, 2] = np.nan
    with pytest.raises(ValueError, match=r"structure tensor entry \[0, 1, 2\] "
                                         r"is nan, not a finite number"):
        LieAlgebra(3, alg.basis_labels, c)
    c[0, 1, 2], c[1, 0, 2] = np.inf, -np.inf
    with np.errstate(invalid="ignore"), pytest.raises(
            ValueError, match=r"entry \[0, 1, 2\] is inf"):
        LieAlgebra(3, alg.basis_labels, c)


def test_a_jacobi_sum_that_overflows_is_refused_as_an_overflow():
    """At scale 1e160 the Jacobiator overflows to inf - inf = nan, which a
    running max must keep: the tensor is refused, not accepted."""
    c = np.random.default_rng(0).standard_normal((4, 4, 4))
    c -= c.transpose(1, 0, 2)
    with pytest.raises(ValueError, match=r"Jacobi identity \(residual "
                                         r"1\.553e\+01\)"):
        LieAlgebra(4, "abcd", c)
    with pytest.raises(ValueError, match=r"residual 1\.553e\+201"):
        LieAlgebra(4, "abcd", 1e100 * c)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ValueError, match="Jacobi sum of the structure tensor overflows"):
        LieAlgebra(4, "abcd", 1e160 * c)


def test_matrix_algebra_refuses_brackets_that_overflow():
    """Commutators of so(3) generators overflow where two scales multiply
    past 1.8e308, and their fit is nan; the fit refuses the first pair that
    overflows by name, before any tensor is built."""
    alg, rep = so_elementary(3)
    for scales, pair in (([1e160, 1e160, 1e160], "E12 and E13"),
                         ([1e150, 1e155, 1e155], "E13 and E23")):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                ValueError, match=rf"bracket of {pair} has residual nan, "
                                  rf"not a finite number; rescale the "
                                  rf"generators"):
            matrix_algebra(np.array(scales)[:, None, None] * rep,
                           alg.basis_labels)


@pytest.mark.parametrize("gram, entry", [
    ([[np.nan, 0.0], [0.0, 1.0]], r"\[0, 0\] is nan"),
    ([[1.0, np.inf], [0.0, 1.0]], r"\[0, 1\] is inf"),
    ([[1.0, 0.0], [-np.inf, -np.inf]], r"\[1, 0\] is -inf"),
], ids=["nan", "inf", "-inf"])
def test_a_non_finite_gram_matrix_is_refused_by_name(gram, entry):
    with pytest.raises(ValueError, match=f"gram matrix entry {entry}, not a "
                                         f"finite number"):
        BilinearForm(gram)


def test_a_gram_matrix_near_the_largest_float_is_symmetrized_finite():
    """0.5 g + 0.5 g^T, where g + g^T overflowed with a warning; away from
    the largest float the two are the same bits."""
    rng = np.random.default_rng(3)
    g = rng.standard_normal((5, 5))
    g = g + g.T + rng.standard_normal((5, 5)) * 1e-12
    assert same_bits(BilinearForm(g).gram, 0.5 * (g + g.T))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = BilinearForm(np.diag([1e308, 1.0])).gram
        with pytest.raises(ValueError, match=r"not symmetric \(residual inf"):
            BilinearForm([[1.0, 1e308], [-1e308, 1.0]])
    assert same_bits(big, np.diag([1e308, 1.0]))


@pytest.mark.parametrize("value, message", [
    (1e308, "the Jacobi sum of the structure tensor overflows"),
    (-1e308, "the Jacobi sum of the structure tensor overflows"),
    (None, r"structure tensor is not antisymmetric \(residual inf\)")],
    ids=["jacobi", "jacobi-negative", "antisymmetry"])
def test_a_structure_tensor_near_the_largest_float_is_refused_without_a_warning(
        value, message):
    """An entry of 1e308 and its antisymmetric partner overflow the Jacobi
    sum, the same entry twice the antisymmetry residual: both are refused
    by name, and numpy does not warn first."""
    alg, _ = so_elementary(4)
    c = alg.structure.copy()
    i, j, k = np.argwhere(c > 0.5)[0]
    c[i, j, k], c[j, i, k] = (1e308, 1e308) if value is None \
        else (value, -value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            LieAlgebra(alg.dim, alg.basis_labels, c)


@pytest.mark.parametrize("entry, shown", [
    (np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf"),
], ids=["nan", "inf", "-inf"])
def test_a_non_finite_subspace_basis_is_refused_by_name(entry, shown):
    """Before its SVD, which raises LinAlgError on nan and reads rank 0
    for inf."""
    with pytest.raises(ValueError, match=rf"basis entry \[0, 0\] is {shown}, "
                                         rf"not a finite number"):
        Subspace(3, [[entry], [0.0], [1.0]])


@pytest.mark.parametrize("entry, shown", [
    (np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf"),
], ids=["nan", "inf", "-inf"])
def test_spanning_vectors_and_kernel_matrices_are_refused_by_name(entry,
                                                                  shown):
    """Before their SVDs, which raise LinAlgError on nan, and on inf read
    the span as zero and the kernel as the whole space."""
    with pytest.raises(ValueError, match=rf"spanning set entry \[0, 0\] is "
                                         rf"{shown}, not a finite number"):
        Subspace.from_spanning(3, [[entry], [0.0], [1.0]])
    with pytest.raises(ValueError, match=rf"kernel matrix entry \[0, 0\] is "
                                         rf"{shown}, not a finite number"):
        Subspace.kernel_of([[entry, 0.0, 1.0]])


@pytest.mark.parametrize("entry, shown", [
    (np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf"),
], ids=["nan", "inf", "-inf"])
def test_numerical_rank_and_kernel_refuse_non_finite_entries_by_name(entry,
                                                                     shown):
    """Both public doors to the rank decision refuse before their SVD,
    which raises LinAlgError on nan, and on inf reads rank 0 and the
    kernel as the whole space."""
    with pytest.raises(ValueError, match=rf"rank matrix entry \[0, 0\] is "
                                         rf"{shown}, not a finite number"):
        numerical_rank([[entry, 0.0, 1.0], [0.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match=rf"rank matrix entry \[1, 2, 2\] is "
                                         rf"{shown}, not a finite number"):
        numerical_rank(np.array([np.eye(3), np.diag([1.0, 1.0, entry])]))
    with pytest.raises(ValueError, match=rf"kernel matrix entry \[0, 0\] is "
                                         rf"{shown}, not a finite number"):
        numerical_kernel([[entry, 0.0, 1.0]])


def test_bi_invariant_directions_refuse_a_non_finite_form():
    with np.errstate(invalid="ignore"), pytest.raises(
            ValueError, match=r"kernel matrix entry \[\d+, \d+\] is nan, "
                              r"not a finite number"):
        bi_invariant_directions(so_elementary(3)[0],
                                np.diag([np.nan, 1.0, 1.0]))


@pytest.mark.parametrize("entry, shown", [
    (np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf"),
], ids=["nan", "inf", "-inf"])
def test_matrix_algebra_refuses_non_finite_generators_by_name(entry, shown):
    """Before the SVD, which raises LinAlgError on nan and reads an inf
    entry as a linear dependence."""
    rep = np.array(so_elementary(3)[1])
    rep[0, 0, 1] = entry
    with pytest.raises(ValueError, match=rf"generator entry \[0, 0, 1\] is "
                                         rf"{shown}, not a finite number"):
        matrix_algebra(rep)


@pytest.mark.parametrize("build, message", [
    (lambda: BilinearForm(np.ones((2, 3))),
     r"gram matrix must be square, got \(2, 3\)"),
    (lambda: LieAlgebra(3, ("a", "b", "c"), np.zeros((3, 3, 2))),
     r"structure tensor shape \(3, 3, 2\) != \(3, 3, 3\)"),
    (lambda: LieAlgebra(3, ("a", "b"), np.zeros((3, 3, 3))),
     "2 labels for dimension 3"),
    (lambda: matrix_algebra(np.zeros((2, 3, 4))),
     r"expected a stack of square matrices, got shape \(2, 3, 4\)"),
    (lambda: matrix_algebra(np.eye(3)),
     r"expected a stack of square matrices, got shape \(3, 3\)"),
    (lambda: largest_invariant_subspace(so_elementary(3)[0], np.eye(4),
                                        Subspace.zero(3)),
     "generators must be given as columns in algebra coordinates"),
    (lambda: so_elementary(1), r"so\(n\) needs n >= 2"),
    (lambda: abelian(-1), "dimension must be nonnegative"),
])
def test_malformed_inputs_are_refused_by_shape(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("build, what", [
    (lambda: BilinearForm(np.eye(2) * (1 + 1j)), "gram matrix"),
    (lambda: BilinearForm([[1 + 1j, 0], [0, 1]]), "gram matrix"),
    (lambda: BilinearForm(np.eye(2, dtype=complex)), "gram matrix"),
    (lambda: Subspace(3, np.eye(3)[:, :2] * (1 + 1j)), "basis"),
    (lambda: Subspace.from_spanning(3, np.eye(3) * 1j), "spanning set"),
    (lambda: Subspace.kernel_of(np.eye(3)[:1] * 1j), "kernel matrix"),
    (lambda: LieAlgebra(1, ("a",), np.zeros((1, 1, 1), complex)),
     "structure tensor"),
], ids=["form", "form-list", "form-zero-imaginary", "basis", "spanning",
        "kernel", "structure"])
def test_complex_input_is_refused_by_name(build, what):
    """Forms, subspaces and structure tensors are real: complex input, even
    with no imaginary part, is refused by name, not cut to its real part
    with a ComplexWarning nor met by float()'s TypeError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"{what} has complex entries "
                                             rf"\(complex128\), not real "
                                             rf"numbers"):
            build()



def test_pair_indices_enumerate_the_pairs_in_colex_order():
    """By the larger index, then the smaller; one cached, read-only pair of
    arrays per size."""
    for n in range(8):
        first, second = liealg.pair_indices(n)
        assert list(zip(first.tolist(), second.tolist())) == sorted(
            itertools.combinations(range(n), 2), key=lambda t: (t[1], t[0]))
        again = liealg.pair_indices(n)
        assert again[0] is first and again[1] is second
        assert not (first.flags.writeable or second.flags.writeable)


def test_so_elementary_lists_its_basis_lexicographically():
    alg, rep = so_elementary(4)
    assert alg.basis_labels == ("E12", "E13", "E14", "E23", "E24", "E34")
    for label, m in zip(alg.basis_labels, rep):
        a, b = int(label[1]) - 1, int(label[2]) - 1
        want = np.zeros((4, 4))
        want[a, b], want[b, a] = 1.0, -1.0
        np.testing.assert_array_equal(m, want)


def test_refusals_name_the_first_failing_pair_in_colex_order():
    """Of so(5)'s E13, E24, E25 and E34, the pairs (E13, E34), (E24, E25)
    and (E24, E34) leave the span; colex order meets (E24, E25) first."""
    alg, rep = so_elementary(5)  # E12 E13 E14 E15 E23 E24 E25 E34 E35 E45
    gens = [1, 5, 6, 7]
    with pytest.raises(ValueError, match="bracket of E24 and E25 leaves"):
        matrix_algebra(rep[gens], [alg.basis_labels[g] for g in gens])
    with pytest.raises(ValueError, match="basis vectors 1 and 2 leaves it"):
        Presentation(alg, Subspace(alg.dim, np.eye(alg.dim)[:, gens]))


def test_matrix_algebra_rejects_non_closed_span():
    e12 = np.zeros((3, 3))
    e12[0, 1], e12[1, 0] = 1.0, -1.0
    e13 = np.zeros((3, 3))
    e13[0, 2], e13[2, 0] = 1.0, -1.0
    with pytest.raises(ValueError, match="leaves the span"):
        matrix_algebra(np.array([e12, e13]), ("a", "b"))


def test_matrix_algebra_rejects_dependent_generators():
    m = np.zeros((2, 2))
    m[0, 1], m[1, 0] = 1.0, -1.0
    with pytest.raises(ValueError, match="dependent"):
        matrix_algebra(np.array([m, 2 * m]))


def test_direct_sum_blocks_and_labels():
    a, _ = spin3_quaternion()
    both = direct_sum(a, a)
    assert both.basis_labels == ("i@0", "j@0", "k@0", "i@1", "j@1", "k@1")
    x = np.zeros(6)
    x[0] = 1.0  # i in the first factor
    y = np.zeros(6)
    y[4] = 1.0  # j in the second factor
    np.testing.assert_allclose(bracket(both, x, y), np.zeros(6), atol=1e-12)
    y2 = np.zeros(6)
    y2[1] = 1.0
    expect = np.zeros(6)
    expect[2] = -2.0
    np.testing.assert_allclose(bracket(both, x, y2), expect, atol=1e-12)


def test_kernel_of_roundoff_matrix_is_everything():
    rng = np.random.default_rng(11)
    noise = 1e-13 * rng.standard_normal((4, 4))
    assert numerical_kernel(noise).shape == (4, 4)
    assert numerical_rank(noise) == 0


def test_rank_and_column_space_basics():
    a = np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]])
    assert numerical_rank(a) == 1
    assert Subspace.from_spanning(3, a).onb().shape == (3, 1)
    ker = numerical_kernel(a)
    assert ker.shape == (2, 1)
    np.testing.assert_allclose(a @ ker, np.zeros((3, 1)), atol=1e-12)


def test_subspace_operations():
    sub = Subspace.from_spanning(3, np.array([[1.0, 2.0], [0.0, 0.0],
                                              [1.0, 2.0]]))
    assert sub.dim == 1
    assert sub.contains(np.array([3.0, 0.0, 3.0]))
    assert not sub.contains(np.array([1.0, 0.0, 0.0]))
    other = Subspace(3, np.array([[5.0], [0.0], [5.0]]))
    assert sub.equals(other)
    with pytest.raises(ValueError, match="rank deficient"):
        Subspace(3, np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]]))
    # dependent up to roundoff is dependent too
    with pytest.raises(ValueError, match=r"rank deficient \(rank 1\)"):
        Subspace(3, np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14], [0.0, 0.0]]))


def test_spanning_sets_and_kernels_serve_their_basis_as_onb():
    rng = np.random.default_rng(8)
    vectors = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 4))
    sub = Subspace.from_spanning(5, vectors)
    assert sub.dim == 2
    assert sub.onb() is sub.basis
    np.testing.assert_allclose(sub.basis.T @ sub.basis, np.eye(2), atol=1e-12)
    assert sub.contains_columns(vectors).all()

    ker = Subspace.kernel_of(vectors.T)
    assert (ker.ambient_dim, ker.dim) == (5, 3)
    assert ker.onb() is ker.basis
    np.testing.assert_allclose(vectors.T @ ker.basis, 0.0, atol=1e-12)
    with pytest.raises(ValueError, match="do not match ambient_dim"):
        Subspace.from_spanning(4, vectors)


def test_bilinear_form_definiteness_and_restriction():
    """A form may be indefinite; a space decides whether it is a metric."""
    form = BilinearForm(np.diag([2.0, 1.0, 0.5]))
    group = Presentation(spin3_quaternion()[0], Subspace.zero(3))
    assert group.space(form).metric is form
    sub = Subspace(3, np.array([[1.0], [0.0], [0.0]]))
    np.testing.assert_allclose(sub.basis.T @ form.gram @ sub.basis, [[2.0]])
    with pytest.raises(ValueError, match="not positive definite"):
        group.space(BilinearForm(np.diag([1.0, -1.0, 1.0])))
    with pytest.raises(ValueError, match="symmetric"):
        BilinearForm(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_bi_invariant_directions_of_diagonal_metrics():
    alg, _ = spin3_quaternion()
    # squashed: only the distinguished axis is two-sided invariant
    sub = bi_invariant_directions(alg, np.diag([2.0, 1.5, 1.5]))
    assert sub.dim == 1 and sub.contains(I)
    # bi-invariant: everything
    assert bi_invariant_directions(alg, 2.0 * np.eye(3)).dim == 3
    # pairwise distinct: nothing
    assert bi_invariant_directions(alg, np.diag([2.0, 0.5, 0.9])).dim == 0


def test_largest_invariant_subspace_finds_ideals():
    alg, _ = spin3_quaternion()
    seed = Subspace(3, np.array([[1.0], [0.0], [0.0]]))
    assert largest_invariant_subspace(alg, np.eye(3), seed).dim == 0

    both = direct_sum(alg, abelian(1)[0])
    cols = np.zeros((4, 2))
    cols[0, 0] = 1.0  # i in the simple factor
    cols[3, 1] = 1.0  # the abelian direction
    found = largest_invariant_subspace(both, np.eye(4),
                                       Subspace(4, cols))
    assert found.dim == 1
    assert found.contains(np.array([0.0, 0.0, 0.0, 1.0]))

    full = largest_invariant_subspace(alg, np.eye(3), Subspace(3, np.eye(3)))
    assert full.dim == 3


def test_reference_form_extends_over_the_center():
    both = direct_sum(spin3_quaternion()[0], abelian(2)[0])
    q = reference_form(both)
    assert np.linalg.eigvalsh(q.gram)[0] > 0.5
    # ad-invariance: q(ad_x y, z) + q(y, ad_x z) = 0 for basis x
    for a in range(5):
        ad = adjoint(both, np.eye(5)[:, a])
        resid = np.max(np.abs(q.gram @ ad + ad.T @ q.gram))
        assert resid < 1e-12


def test_reference_form_rejects_non_reductive_algebras():
    # solvable: bracket(x, y) = y, so the kernel of B meets the derived span
    c = np.zeros((2, 2, 2))
    c[0, 1, 1] = 1.0
    c[1, 0, 1] = -1.0
    alg = LieAlgebra(2, ("x", "y"), c)
    with pytest.raises(ValueError, match="do not split"):
        reference_form(alg)


def _fresh(alg):
    """An equal algebra with nothing cached yet."""
    return LieAlgebra(alg.dim, alg.basis_labels, np.array(alg.structure))


@pytest.mark.parametrize("build", [
    lambda: so_elementary(5)[0],
    lambda: su3()[0],
    lambda: direct_sum(spin3_quaternion()[0], abelian(2)[0]),
    lambda: abelian(0)[0],
], ids=["so5", "su3", "spin3+R2", "zero"])
def test_cached_ad_stack_is_the_adjoint_stack_of_the_basis(build):
    """A read-only view of the structure tensor, whether it is certified
    (read-only) or not."""
    alg = build()
    stack = alg.ad_stack
    assert stack is alg.ad_stack
    np.testing.assert_array_equal(stack, adjoints(alg, np.eye(alg.dim)))
    assert stack.dtype == float and not stack.flags.writeable
    if alg.dim:  # zero-size arrays share no memory
        assert np.shares_memory(stack, alg.structure)
        with pytest.raises(ValueError, match="read-only"):
            stack[0, 0, 0] = 1.0


@pytest.mark.parametrize("first, second", [
    (lambda: so_elementary(4), lambda: so_elementary(4)),
    (su3, su3),
    (spin3_quaternion, lambda: preset("spin3_quat")),
    (lambda: so_elementary(3), lambda: preset("so3")),
    (lambda: so_elementary(4), lambda: preset("so4")),
    (su3, lambda: preset("su3")),
], ids=["so4", "su3", "spin3", "preset-so3", "preset-so4", "preset-su3"])
def test_algebra_presets_are_built_once_and_read_only(first, second):
    (alg, rep), (again, rep_again) = first(), second()
    assert alg is again and rep is rep_again
    for array in (alg.structure, rep):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0, 1] = 0.0


def test_a_cached_preset_and_its_ad_stack_allocate_nothing_new():
    """A repeated so(12) and the ad stack of a fresh copy each take under
    4 KiB, not the 2.3 MB of a tensor of dimension 66."""
    alg = _fresh(so_elementary(12)[0])
    assert traced_peak(lambda: so_elementary(12))[1] < 4096
    assert traced_peak(lambda: alg.ad_stack)[1] < 4096


@pytest.mark.parametrize("k", [3, 4, 6, 8])
def test_the_reference_form_of_a_rebased_compact_sum_with_a_centre(k):
    """so(k) + R^2 under 20 seeded orthogonal changes of basis: the derived
    subalgebra is so(k) and the reference form, the Killing form extended
    by the unit form on the centre, is positive definite and ad-invariant.
    The rank of [g, g] is the one decision here that roundoff can move: an
    eigenvalue of S S^T, S the bracket table, that is roundoff near
    1e-16 |S|^2 has a square root near 1e-8 |S|, above a cutoff of 1e-9."""
    base = direct_sum(so_elementary(k)[0], abelian(2)[0])
    n, rng = base.dim, np.random.default_rng(k)
    for _ in range(20):
        q = _random_orthogonal(rng, n)
        alg = LieAlgebra(n, base.basis_labels, np.einsum(
            "ai,bj,abc,ck->ijk", q, q, base.structure, q, optimize=True))
        assert derived_subalgebra(alg).dim == k * (k - 1) // 2
        gram, ads = reference_form(alg).gram, alg.ad_stack
        assert np.linalg.eigvalsh(gram)[0] > 0.5
        assert np.abs(gram @ ads + ads.swapaxes(1, 2) @ gram).max() < 1e-12


def test_reference_form_is_cached_per_tolerance():
    alg = direct_sum(spin3_quaternion()[0], abelian(2)[0])
    loose, tight = reference_form(alg, 1e-6), reference_form(alg, 1e-9)
    assert reference_form(alg, 1e-6) is loose
    assert reference_form(alg, 1e-9) is tight
    assert set(alg._reference_forms) == {1e-6, 1e-9}
    for tol, form in ((1e-6, loose), (1e-9, tight)):
        np.testing.assert_array_equal(form.gram,
                                      reference_form(_fresh(alg), tol).gram)
        assert not form.gram.flags.writeable


def test_stacked_invariant_iteration_equals_the_per_seed_loop():
    """invariant_subspaces re-splits a stack of seeds as their dimensions
    fall; each seed's result must span what largest_invariant_subspace and
    the per-seed loop of meaning.invariant_by_loop give it.  On
    so(3) + so(3) + R each seed is a sum of ideals (the factors A, B and
    the centre Z) padded with random vectors, so one stack holds seeds
    whose largest ideals differ in dimension; the generators case takes
    ad of random fields instead of the whole algebra."""
    rng = np.random.default_rng(2041)
    so3 = so_elementary(3)[0]
    alg = direct_sum(direct_sum(so3, so3), abelian(1)[0])
    eye = np.eye(7)
    ideals = [eye[:, :0], eye[:, :3], eye[:, 3:6], eye[:, 6:], eye[:, 3:],
              eye[:, [0, 1, 2, 6]], eye[:, :6]]
    seen = set()
    for r in range(8):
        cols = [np.hstack([j, rng.standard_normal((7, r - j.shape[1]))])
                for j in ideals if j.shape[1] <= r]
        cols += [rng.standard_normal((7, r)) for _ in range(2)]
        seeds = np.stack([Subspace.from_spanning(7, c).onb() for c in cols])
        gens = rng.standard_normal((7, 2))
        for ads, generators in ((alg.ad_stack, eye),
                                (adjoints(alg, gens), gens)):
            found = [None] * len(seeds)
            for rows, bases in liealg.invariant_subspaces(ads, seeds,
                                                          DEFAULT_TOL):
                for row, basis in zip(rows.tolist(), bases):
                    found[row] = Subspace(7, basis)
            for seed, got in zip(seeds, found):
                want = largest_invariant_subspace(alg, generators,
                                                  Subspace(7, seed))
                assert got.equals(want)
                assert got.equals(Subspace(7, invariant_by_loop(
                    ads, seed, DEFAULT_TOL)))
                seen.add((r, got.dim))
    assert {d for r, d in seen if r == 4} >= {0, 1, 3, 4}, seen


def test_leaks_equal_the_projector_formula():
    """stacked_leaks forms ad W - W (W^T ad W), with no (N, K, n, n)
    product of the projector 1 - W W^T and each ad; both are what ad maps
    out of the span of W, for W of every width from none to all."""
    rng = np.random.default_rng(2047)
    for alg in (so_elementary(5)[0], su3()[0], spin3_quaternion()[0]):
        n = alg.dim
        frames = np.linalg.qr(rng.standard_normal((3, n, n)))[0]
        for r in (0, 1, n // 2, n):
            w = frames[..., :r]
            p_out = np.eye(n) - w @ w.swapaxes(-1, -2)
            want = (p_out[:, None] @ alg.ad_stack) @ w[:, None]
            np.testing.assert_allclose(stacked_leaks(alg.ad_stack, w), want,
                                       rtol=0, atol=1e-13)


def test_derived_subalgebra_of_u2_like_sum():
    both = direct_sum(spin3_quaternion()[0], abelian(1)[0])
    der = derived_subalgebra(both)
    assert der.dim == 3
    assert not der.contains(np.array([0.0, 0.0, 0.0, 1.0]))


def test_presets_cover_documented_names():
    assert preset("so3")[0].dim == 3
    assert preset("so4")[0].dim == 6
    assert preset("spin3_quat")[0].dim == 3
    assert preset("su3")[0].dim == 8
    alg, rep = preset("abelian:4")
    assert alg.dim == 4 and rep is None
    with pytest.raises(ValueError, match="unknown"):
        preset("e8")
    with pytest.raises(ValueError, match="malformed"):
        preset("abelian:x")


@pytest.mark.parametrize("n", [liealg.MAX_ALGEBRA_DIM + 1, 10 ** 6])
def test_an_abelian_algebra_above_the_limit_is_refused_before_it_allocates(n):
    """abelian and its preset refuse a dimension above MAX_ALGEBRA_DIM
    before the n^3 tensor is asked for; the limit keeps so(17), the
    algebra of the largest catalog sphere."""
    largest = catalog.MAX_SPHERE_DIM + 1
    assert largest * (largest - 1) // 2 <= liealg.MAX_ALGEBRA_DIM

    def refused():
        for build in (lambda: abelian(n), lambda: preset(f"abelian:{n}")):
            with pytest.raises(ValueError, match=(
                    f"at most MAX_ALGEBRA_DIM = {liealg.MAX_ALGEBRA_DIM}")):
                build()

    assert traced_peak(refused)[1] < 2 ** 16


def test_matrix_algebra_refuses_too_many_generators_before_it_factors():
    """More than MAX_ALGEBRA_DIM generators are refused by name before the
    SVD of their flattened stack and before the n^3 tensor; so(17), with
    136 generators, still builds."""
    mats = np.random.default_rng(7).standard_normal(
        (liealg.MAX_ALGEBRA_DIM + 1, 12, 12))

    def refused():
        with pytest.raises(ValueError, match=(
                f"at most MAX_ALGEBRA_DIM = {liealg.MAX_ALGEBRA_DIM}")):
            matrix_algebra(mats)

    assert traced_peak(refused)[1] < 2 ** 20
    assert so_elementary(17)[0].dim == liealg.MAX_ALGEBRA_DIM


def test_quaternion_left_multiplication_table():
    li = quaternion_left_multiplication(1)
    # i * j = k, i * i = -1
    np.testing.assert_allclose(li @ np.array([0.0, 0.0, 1.0, 0.0]),
                               [0.0, 0.0, 0.0, 1.0])
    np.testing.assert_allclose(li @ np.array([0.0, 1.0, 0.0, 0.0]),
                               [-1.0, 0.0, 0.0, 0.0])


def test_algebra_dict_round_trip():
    sp, _ = round_sphere(3)  # so(4)/so(3)
    back = space_from_dict(space_to_dict(sp)).algebra
    assert back.basis_labels == sp.algebra.basis_labels
    np.testing.assert_allclose(back.structure, sp.algebra.structure)


# -- batched primitives against their one-at-a-time definitions --------------

@pytest.mark.parametrize("k", [0, 1, 4])
def test_adjoints_match_adjoint_column_by_column(k):
    alg, _ = so_elementary(5)
    gens = np.random.default_rng(8 + k).standard_normal((alg.dim, k))
    got = adjoints(alg, gens)
    assert got.shape == (k, alg.dim, alg.dim)
    for p in range(k):
        np.testing.assert_allclose(got[p], adjoint(alg, gens[:, p]),
                                   atol=1e-12)
    stack = np.stack([gens, -2.0 * gens])
    np.testing.assert_allclose(adjoints(alg, stack),
                               np.stack([got, -2.0 * got]), atol=1e-12)


@pytest.mark.parametrize("cols", [[], [0], [0, 5], [1, 2, 3]])
def test_orthogonal_complement_is_reference_orthogonal_and_complementary(cols):
    # so(4) plus a one-dimensional center, so the form is not just -B
    alg = direct_sum(so_elementary(4)[0], abelian(1)[0])
    rng = np.random.default_rng(len(cols))
    sub = Subspace.from_spanning(
        alg.dim, np.eye(alg.dim)[:, cols] + 0.3 * rng.standard_normal(
            (alg.dim, len(cols))))
    comp = orthogonal_complement(alg, sub)
    assert comp.dim == alg.dim - sub.dim
    q = reference_form(alg).gram
    assert np.max(np.abs(sub.basis.T @ q @ comp.basis), initial=0.0) < 1e-12
    assert numerical_rank(np.hstack([sub.basis, comp.basis])) == alg.dim
    if not cols:
        assert comp.equals(Subspace(alg.dim, np.eye(alg.dim)))


def random_antisymmetric(rng, n):
    """A dense structure-like tensor, antisymmetric in its first two indices
    but with no reason to satisfy the Jacobi identity."""
    c = rng.standard_normal((n, n, n))
    return c - c.transpose(1, 0, 2)


@pytest.mark.parametrize("n, ka, kb", [(5, 3, 4), (8, 8, 2), (6, 0, 3)])
def test_brackets_match_pairwise_bracket(n, ka, kb):
    rng = np.random.default_rng(100 + n)
    # bracket and brackets only read the structure tensor
    alg = SimpleNamespace(structure=random_antisymmetric(rng, n))
    a = rng.standard_normal((n, ka))
    b = rng.standard_normal((n, kb))
    got = brackets(alg, a, b)
    assert got.shape == (n, ka, kb)
    first, second = np.triu_indices(ka, 1)
    pairs = bracket(alg, a[:, first], a[:, second])
    assert pairs.shape == (n, first.size)
    for col, (p, q) in enumerate(zip(first, second)):
        # a batch of columns rounds exactly like one column at a time
        np.testing.assert_array_equal(
            pairs[:, col], bracket(alg, a[:, p], a[:, q]))
    for p in range(ka):
        for q in range(kb):
            want = np.einsum("i,j,ijk->k", a[:, p], b[:, q], alg.structure)
            np.testing.assert_allclose(bracket(alg, a[:, p], b[:, q]), want,
                                       atol=1e-12)
            np.testing.assert_allclose(got[:, p, q], want, atol=1e-12)
    # a stack of column sets, one pair per leading index
    c, d = rng.standard_normal((n, ka)), rng.standard_normal((n, kb))
    stacked = brackets(alg, np.stack([a, c]), np.stack([b, d]))
    assert stacked.shape == (2, n, ka, kb)
    np.testing.assert_allclose(stacked[0], got, atol=1e-12)
    np.testing.assert_allclose(stacked[1], brackets(alg, c, d), atol=1e-12)


def reference_jacobi_residual(c):
    """The whole dim^4 cyclic sum over every ordered triple, formed at once
    by three products."""
    t1 = np.einsum("jka,iab->ijkb", c, c)
    t2 = np.einsum("kia,jab->ijkb", c, c)
    t3 = np.einsum("ija,kab->ijkb", c, c)
    return float(np.max(np.abs(t1 + t2 + t3), initial=0.0))


def jacobi_sum(c) -> float:
    """LieAlgebra.jacobi_residual of ``c``: the unbound method reads only
    dim and structure, which lets it score tensors the constructor would
    reject."""
    return LieAlgebra.jacobi_residual(SimpleNamespace(dim=len(c), structure=c))


@pytest.mark.parametrize("budget", [None, 40000, 1100, 1])
def test_chunked_jacobi_residual_matches_the_full_tensor_formula(
        budget, monkeypatch):
    """On su(3) the default byte budget takes one box of the six middle
    indices j, 40 000 bytes two boxes of three, 1 100 one j per block and
    one to six k, and 1 one j and one k, which hold more than the budget:
    each block takes one item at least."""
    if budget is not None:
        monkeypatch.setattr(liealg, "_STACK_BYTES", budget)
    rng = np.random.default_rng(31)
    alg, _ = su3()
    # a dense presentation of su(3): random change of basis
    t = rng.standard_normal((8, 8))
    dense = np.einsum("ip,jq,ijk,rk->pqr", t, t, alg.structure,
                      np.linalg.inv(t))
    perturbed = dense.copy()
    perturbed[0, 1, 2] += 1e-3
    perturbed[1, 0, 2] -= 1e-3
    tensors = [alg.structure, dense, perturbed, random_antisymmetric(rng, 7)]
    # below dimension 3 there is no triple i < j < k, and at 3 only one
    small = [random_antisymmetric(rng, n) for n in range(4)]
    for c in tensors + small:
        want = reference_jacobi_residual(c)
        assert jacobi_sum(c) == pytest.approx(want, rel=1e-12, abs=1e-13)
    assert reference_jacobi_residual(perturbed) > 1e-4
    assert [jacobi_sum(c) == 0.0 for c in small] == [True, True, True, False]


@pytest.mark.parametrize("budget", [None, 40000, 1])
@pytest.mark.parametrize("build", [
    pytest.param(lambda: so_elementary(4)[0], id="so4"),
    pytest.param(lambda: rebased(su3()[1], 0), id="su3-dense"),
])
def test_every_violation_of_the_jacobi_identity_is_seen(
        build, budget, monkeypatch):
    """c[i, j, a] += 0.5 and c[j, i, a] -= 0.5 at every position (i, j, a),
    i != j: the sum over i < j < k equals the cyclic sum over every
    ordered triple, in one block, in two blocks of three j on su(3), and
    in blocks of one j and one k."""
    if budget is not None:
        monkeypatch.setattr(liealg, "_STACK_BYTES", budget)
    c = build().structure
    n = len(c)
    for i, j, a in itertools.product(range(n), repeat=3):
        if i == j:
            continue
        bad = c.copy()
        bad[i, j, a] += 0.5
        bad[j, i, a] -= 0.5
        want = reference_jacobi_residual(bad)
        assert want > 1e-3
        assert jacobi_sum(bad) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("m", [7, 8, 10])
def test_the_exact_jacobi_sum_peaks_within_the_byte_budget(m):
    """On so(7), so(8) and so(10), dimension 21 to 45, the sum holds past
    its antisymmetric part 2a one block within the byte budget, and 64 KiB
    of slack."""
    c = np.array(so_elementary(m)[0].structure)
    residual, peak = traced_peak(lambda: jacobi_sum(c))
    assert residual < 1e-12
    assert peak <= c.nbytes + liealg._STACK_BYTES + 64 * 1024


@pytest.mark.parametrize("seed, drift, refused", [
    (7, 0.0, False),
    (7, 1e-10, False),
    (7, 3e-10, True),
    (8, 1e-9, True),
])
def test_a_near_antisymmetric_tensor_is_judged_by_its_antisymmetric_part(
        seed, drift, refused):
    """so(4) plus an antisymmetric drift plus a symmetric part below
    DEFAULT_TOL / 2, which the antisymmetry check lets through: the
    residual is the cyclic sum of the antisymmetric part, and the
    constructor accepts or refuses the tensor as that sum decides, where
    the cyclic sum of the tensor itself would refuse every one."""
    rng = np.random.default_rng(seed)
    sym = rng.uniform(-1.0, 1.0, (6, 6, 6))
    sym = 0.2 * DEFAULT_TOL * (sym + sym.transpose(1, 0, 2))
    c = so_elementary(4)[0].structure + drift * random_antisymmetric(rng, 6)
    c += sym
    anti = 0.5 * (c - c.transpose(1, 0, 2))
    want = reference_jacobi_residual(anti)
    assert jacobi_sum(c) == pytest.approx(want, rel=1e-12, abs=1e-25)
    assert (want > DEFAULT_TOL) == refused
    assert reference_jacobi_residual(c) > DEFAULT_TOL
    labels = [f"e{k}" for k in range(6)]
    if refused:
        with pytest.raises(ValueError, match="Jacobi identity"):
            LieAlgebra(6, labels, c)
    else:
        assert LieAlgebra(6, labels, c).structure is not None


@pytest.mark.parametrize("shape, rank", [
    ((3, 7), 3),   # wide: the kernel reaches past the rows of a thin SVD
    ((2, 9), 1),
    ((9, 5), 3),   # tall
    ((6, 6), 4),
    ((4, 6), 0),   # all zero
    ((6, 4), 0),
])
def test_numerical_kernel_is_complete_and_orthonormal(shape, rank):
    m, n = shape
    rng = np.random.default_rng(m * 10 + n)
    a = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    ker = numerical_kernel(a)
    assert ker.shape == (n, n - rank)
    np.testing.assert_allclose(ker.T @ ker, np.eye(n - rank), atol=1e-12)
    np.testing.assert_allclose(a @ ker, np.zeros((m, n - rank)), atol=1e-10)


def test_matrix_algebra_names_the_first_pair_that_leaves_the_span():
    def elementary(a, b):
        m = np.zeros((4, 4))
        m[a, b], m[b, a] = 1.0, -1.0
        return m

    # pairs in order: (e12, e34) commute, [e12, e13] = e23 leaves the span,
    # and so does [e34, e13] = e14 later on
    gens = np.array([elementary(0, 1), elementary(2, 3), elementary(0, 2)])
    with pytest.raises(ValueError,
                       match=r"bracket of e12 and e13 leaves the span "
                             r"\(residual 1\.414e\+00\)"):
        matrix_algebra(gens, ("e12", "e34", "e13"))
    # at scale 1e100 the squares of the residuals overflow unless the norms
    # are taken in units of the scale squared; inf <= inf would accept the
    # generators as an abelian algebra
    with pytest.raises(ValueError,
                       match=r"bracket of e12 and e13 leaves the span "
                             r"\(residual 1\.414e\+200\)"):
        matrix_algebra(1e100 * gens, ("e12", "e34", "e13"))


def test_subspace_batched_containment():
    sub = Subspace.from_spanning(4, np.eye(4)[:, :2])
    vecs = np.array([[1.0, 0.0, 1.0], [2.0, 0.0, 0.0],
                     [0.0, 1.0, 1e-12], [0.0, 0.0, 0.0]])
    np.testing.assert_array_equal(sub.contains_columns(vecs),
                                  [True, False, True])
    assert sub.contains_columns(np.zeros((4, 2, 3))).shape == (2, 3)
    assert sub.onb() is sub.onb()


def _random_orthogonal(rng, k):
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    return q * np.sign(np.diag(r))


@pytest.mark.parametrize("n,k", [(7, 3), (5, 1), (6, 5), (12, 6)])
def test_canonical_basis_depends_only_on_the_span(n, k):
    rng = np.random.default_rng(n * 10 + k)
    q = np.linalg.qr(rng.standard_normal((n, k)))[0]
    c = canonical_basis(q)
    for _ in range(3):
        np.testing.assert_allclose(
            canonical_basis(q @ _random_orthogonal(rng, k)), c,
            rtol=0, atol=1e-12)
    np.testing.assert_allclose(c.T @ c, np.eye(k), atol=1e-12)
    np.testing.assert_allclose(c @ c.T, q @ q.T, atol=1e-12)


def test_canonical_basis_prints_exact_zeros_and_short_paths():
    rng = np.random.default_rng(3)
    # the span of e1 and e3 in R^4, handed over in a rotated basis whose
    # zero rows may carry -0.0 from the product
    q = np.eye(4)[:, [0, 2]] @ -_random_orthogonal(rng, 2)
    c = canonical_basis(q)
    np.testing.assert_allclose(c, np.eye(4)[:, [0, 2]], atol=1e-15)
    assert not np.any(np.signbit(c) & (c == 0.0))
    noisy = canonical_basis(np.linalg.qr(
        np.eye(5)[:, :3] @ _random_orthogonal(rng, 3) + 1e-17)[0])
    assert np.count_nonzero(noisy) == 3
    # noise beside a unit entry just below 1 leaves the last bit alone
    unit = canonical_basis(np.array([[9e-17], [0.0], [0.0], [1 - 2 ** -53]]))
    np.testing.assert_array_equal(unit, np.eye(4)[:, 3:])
    assert canonical_basis(np.zeros((4, 0))).shape == (4, 0)
    np.testing.assert_array_equal(
        canonical_basis(_random_orthogonal(rng, 3)), np.eye(3))


def test_eigenvalue_clusters_chain_neighbours_within_tol():
    w = np.array([0.0, 1e-10, 1.0, 1.0 + 5e-10, 1.0 + 9e-10, 2.0])
    assert eigenvalue_clusters(w, 1e-9) == [slice(0, 2), slice(2, 5),
                                            slice(5, 6)]
    assert eigenvalue_clusters(np.zeros(0), 1e-9) == [slice(0, 0)]


def test_pencil_eigh_is_b_orthonormal_and_canonical_in_clusters():
    rng = np.random.default_rng(12)
    r = rng.standard_normal((4, 4))
    b = r @ r.T + 4.0 * np.eye(4)
    # a = b d b with d = diag(1, 1, 1, 3): eigenvalue 1 three times
    o = _random_orthogonal(rng, 4)
    white = np.linalg.inv(np.linalg.cholesky(b))
    lw = np.linalg.inv(white)
    a = lw @ o @ np.diag([1.0, 1.0, 1.0, 3.0]) @ o.T @ lw.T
    w, v = pencil_eigh(a, b, 1e-9)
    np.testing.assert_allclose(w, [1.0, 1.0, 1.0, 3.0], atol=1e-12)
    np.testing.assert_allclose(v.T @ b @ v, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(a @ v, b @ v * w, atol=1e-10)
    # the repeated eigenspace, whitened, is printed by its canonical basis
    u = np.linalg.inv(white.T) @ v[:, :3]
    np.testing.assert_allclose(u, canonical_basis(u), atol=1e-12)


@pytest.mark.parametrize("shape", [(7, 4), (3, 6), (5, 5), (0, 4), (4, 0)])
def test_stacked_rank_primitives_match_the_per_matrix_ones(shape):
    """One SVD call over a stack decides each matrix as numerical_kernel
    and Subspace.from_spanning decide it alone: random matrices of every rank,
    an all-zero one and one of roundoff noise, tall, wide, square and
    empty, under one and under two leading axes."""
    m, n = shape
    rng = np.random.default_rng(10 * m + n)
    stack = np.array(
        [rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
         for r in range(min(m, n) + 1)]
        + [np.zeros((m, n)), 1e-13 * rng.standard_normal((m, n))])
    v, nullity = stacked_kernels(stack)
    u, rank, s = stacked_spans(stack)
    assert v.shape == (len(stack), n, n) and u.shape[:2] == (len(stack), m)
    assert s.shape == (len(stack), min(m, n))
    for a, si in zip(stack, s):  # the singular values, descending
        np.testing.assert_allclose(si, np.linalg.svd(a, compute_uv=False)
                                   if a.size else [], atol=1e-12)
    for a, vi, k, ui, r in zip(stack, v, nullity, u, rank):
        ker, cols = numerical_kernel(a), Subspace.from_spanning(m, a).onb()
        assert (k, r) == (ker.shape[1], cols.shape[1])
        np.testing.assert_allclose(vi[:, n - k:] @ vi[:, n - k:].T,
                                   ker @ ker.T, atol=1e-12)
        np.testing.assert_allclose(ui[:, :r] @ ui[:, :r].T, cols @ cols.T,
                                   atol=1e-12)
    assert list(rank[:-2]) == list(range(min(m, n) + 1))
    assert rank[-2] == rank[-1] == 0
    half = len(stack) // 2
    pairs = stack[: 2 * half].reshape(half, 2, m, n)
    np.testing.assert_array_equal(stacked_kernels(pairs)[1],
                                  nullity[: 2 * half].reshape(half, 2))
    np.testing.assert_array_equal(stacked_spans(pairs)[1],
                                  rank[: 2 * half].reshape(half, 2))


@pytest.mark.parametrize("count", [1, 190])
@pytest.mark.parametrize("m, k", [(6, 6), (6, 3), (9, 4)])
def test_stacked_frames_span_the_columns_of_full_rank_stacks(count, m, k):
    """The QR frames of a stack of full-rank matrices, columns scaled from
    1e-6 to 1e6, are orthonormal and have the projectors of the thin SVD's
    U factors; an empty last axis is returned as it came."""
    a = (np.random.default_rng(100 * count + 10 * m + k).standard_normal(
        (count, m, k)) * np.logspace(-6, 6, k))
    q = stacked_frames(a)
    assert q.shape == a.shape
    assert np.linalg.norm(q.swapaxes(-1, -2) @ q - np.eye(k),
                          axis=(-2, -1)).max() <= 1e-13
    u = np.linalg.svd(a, full_matrices=False)[0]
    want = u @ u.swapaxes(-1, -2)
    assert (np.linalg.norm(q @ q.swapaxes(-1, -2) - want, axis=(-2, -1))
            <= 1e-12 * np.linalg.norm(want, axis=(-2, -1))).all()
    empty = a[..., :0]
    assert stacked_frames(empty) is empty


def test_a_subspace_forms_its_onb_when_first_read():
    """A raw Subspace decides its rank by singular values alone and forms
    the thin SVD's U factor, read-only, when onb() is first read; rank
    deficient bases are refused by name, and k = 0 and ambient 0 hold."""
    basis = np.random.default_rng(12).standard_normal((7, 3))
    sub = Subspace(7, basis)
    assert "_onb" not in sub.__dict__
    onb = sub.onb()
    assert same_bits(onb, stacked_spans(basis)[0])
    assert not onb.flags.writeable and sub.onb() is onb
    with pytest.raises(ValueError, match=r"rank deficient \(rank 2\)"):
        Subspace(7, basis[:, [0, 1, 0]])
    for ambient, k in [(5, 0), (0, 0)]:
        empty = Subspace(ambient, np.zeros((ambient, k)))
        assert empty.dim == 0 and empty.onb().shape == (ambient, 0)
        assert not empty.onb().flags.writeable
    with pytest.raises(ValueError, match=r"\(0, 2\) is rank deficient"):
        Subspace(0, np.zeros((0, 2)))


def record_jacobi_sums(monkeypatch) -> list:
    """Wrap LieAlgebra.jacobi_residual: each exact sum appends (the
    certificate of its algebra, its structure tensor, its value)."""
    calls = []
    exact = LieAlgebra.jacobi_residual

    def recorded(self):
        value = exact(self)
        calls.append((self._jacobi_bound, self.structure, value))
        return value

    monkeypatch.setattr(LieAlgebra, "jacobi_residual", recorded)
    return calls


def rebased(gens, seed):
    """The algebra of ``gens`` after a seeded dense change of generator
    basis of condition number 100."""
    rng = np.random.default_rng(seed)
    n = len(gens)
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    t = q1 @ np.diag(np.geomspace(1.0, 0.01, n)) @ q2
    return matrix_algebra(np.einsum("ab,bij->aij", t, gens))[0]


@pytest.mark.parametrize("build", [
    *(pytest.param(lambda n=n: so_elementary(n)[0], id=f"so{n}")
      for n in range(2, 12)),
    pytest.param(lambda: su3()[0], id="su3"),
    pytest.param(lambda: spin3_quaternion()[0], id="spin3"),
    pytest.param(lambda: cp2_centriole()[0].algebra, id="cp2-centriole"),
    *(pytest.param(lambda seed=seed: rebased(so_elementary(5)[1], seed),
                   id=f"so5-dense-real-{seed}") for seed in range(3)),
    *(pytest.param(lambda seed=seed: rebased(su3()[1], seed),
                   id=f"su3-dense-complex-{seed}") for seed in range(3)),
])
def test_certificate_bounds_the_exact_jacobi_sum(build):
    """matrix_algebra certifies its tensor by a bound that holds and that
    the exact sum does not need to run behind (so(12), the largest whose
    exact sum a test runs, is checked in test_scale)."""
    alg = build()
    assert alg.jacobi_residual() <= alg._jacobi_bound <= DEFAULT_TOL


def cp2_centriole_generators() -> np.ndarray:
    """The generators that cp2_centriole hands to matrix_algebra."""
    seen = []

    def recording(mats, *args, **kwargs):
        seen.append(np.array(mats))
        return matrix_algebra(mats, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(catalog, "matrix_algebra", recording)
        cp2_centriole()
    return seen[0]


def compact_sum_with_centre(seed) -> np.ndarray:
    """Generators of so(k) + su(2) + u(1), k seeded in 3..5, block-diagonal
    in C^(k+3), conjugated by a seeded rotation and mixed by a seeded
    orthogonal change of generator basis."""
    rng = np.random.default_rng(seed)
    blocks = [so_elementary(int(rng.integers(3, 6)))[1], su3()[1][:3, :2, :2],
              np.array([[[1j]]])]
    d = sum(len(b[0]) for b in blocks)
    gens, at = [], 0
    for b in blocks:
        g = np.zeros((len(b), d, d), dtype=complex)
        g[:, at:at + len(b[0]), at:at + len(b[0])] = b
        gens.append(g)
        at += len(b[0])
    gens = np.concatenate(gens)
    rot = np.linalg.qr(rng.standard_normal((d, d)))[0]
    mix = np.linalg.qr(rng.standard_normal((len(gens),) * 2))[0]
    return np.einsum("ab,bij->aij", mix, rot @ gens @ rot.T)


PRESET_GENERATORS = [
    *(pytest.param(lambda n=n: so_elementary(n)[1], id=f"so{n}")
      for n in range(3, 16)),
    pytest.param(lambda: su3()[1], id="su3"),
    pytest.param(lambda: spin3_quaternion()[1], id="spin3"),
]
FITTED_GENERATORS = [
    *PRESET_GENERATORS,
    pytest.param(cp2_centriole_generators, id="cp2-centriole"),
    *(pytest.param(lambda seed=seed: compact_sum_with_centre(seed),
                   id=f"compact-sum-with-centre-{seed}") for seed in range(4)),
]


@pytest.mark.parametrize("gens", FITTED_GENERATORS)
def test_the_one_svd_fit_equals_the_lstsq_fit(gens):
    """matrix_algebra reads the least-squares fit off the factors of its one
    SVD; it is the fit np.linalg.lstsq gives, to the last bits."""
    gens = gens()
    np.testing.assert_allclose(matrix_algebra(gens)[0].structure,
                               lstsq_structure(gens), rtol=0, atol=1e-13)


@pytest.mark.parametrize("gens", [  # one pair a block is slow past so(10)
    g for g in FITTED_GENERATORS if g.id not in {"so11", "so12", "so13",
                                                 "so14", "so15"}])
def test_a_fit_by_blocks_of_pairs_is_the_one_shot_fit(gens, monkeypatch):
    """The fit of one pair a block, the budget's least, agrees with the fit
    of all pairs in one block, its most, as the lstsq fit does."""
    gens, fits = gens(), []
    for budget in (1, 2 ** 62):
        monkeypatch.setattr(liealg, "_STACK_BYTES", budget)
        fits.append(matrix_algebra(gens)[0].structure)
    np.testing.assert_allclose(*fits, rtol=0, atol=1e-13)


@pytest.mark.parametrize("gens", PRESET_GENERATORS)
def test_a_preset_fit_by_blocks_of_pairs_keeps_every_bit(gens, monkeypatch):
    """At the default budget so(9) to so(15) take several blocks of pairs,
    and every preset's tensor and certificate keep the bits of the fit in
    one block."""
    gens = gens()
    alg = matrix_algebra(gens)[0]
    monkeypatch.setattr(liealg, "_STACK_BYTES", 2 ** 62)
    whole = matrix_algebra(gens)[0]
    assert same_bits(alg.structure, whole.structure)
    assert same_bits(alg._jacobi_bound, whole._jacobi_bound)


def every_generator_commutators(mats, pairs: slice) -> np.ndarray:
    """The reference for ``_killing_commutators``: the same products, by a
    walk over every generator j for each block of pairs."""
    lo, hi = pairs.start, pairs.stop
    comms = np.empty((hi - lo, *mats.shape[1:]), dtype=mats.dtype)
    for j in range(1, len(mats)):
        t = j * (j - 1) // 2
        p0, p1 = max(t, lo), min(t + j, hi)
        if p0 < p1:
            out = np.matmul(mats[p0 - t:p1 - t], mats[j],
                            out=comms[p0 - lo:p1 - lo])
            out -= mats[j] @ mats[p0 - t:p1 - t]
            np.negative(out, out=out)
    return comms


@pytest.mark.parametrize("gens, budget, blocks", [
    # so(8): 378 pairs of 1 760 bytes each
    *(pytest.param(lambda: so_elementary(8)[1], budget, blocks, id=f"so8-{i}")
      for budget, blocks, i in ((2 ** 62, 1, "one-block"),
                                (10 ** 5, 7, "blocks"),
                                (1, 378, "one-per-pair"))),
    *(pytest.param(*g.values, None, None, id=g.id)
      for g in PRESET_GENERATORS)])
def test_the_walk_of_a_block_takes_only_its_generators(gens, budget, blocks,
                                                       monkeypatch):
    """``_killing_commutators`` walks only the generators that end a pair of
    its block: each block's commutators, and every preset's tensor and
    certificate at the default budget, keep the bits of the walk over all
    generators; so(8) is cut into one block, several and one per pair."""
    gens = gens()
    if budget is not None:
        monkeypatch.setattr(liealg, "_STACK_BYTES", budget)
    pairs = len(gens) * (len(gens) - 1) // 2
    width = liealg._flatten_real(gens).shape[1]
    parts = liealg._chunks(pairs, 3 * width + len(gens))
    assert blocks in (None, len(parts))
    for part in parts:
        assert same_bits(liealg._killing_commutators(gens, part),
                         every_generator_commutators(gens, part))
    alg = matrix_algebra(gens)[0]
    monkeypatch.setattr(liealg, "_killing_commutators",
                        every_generator_commutators)
    walked = matrix_algebra(gens)[0]
    assert same_bits(alg.structure, walked.structure)
    assert same_bits(alg._jacobi_bound, walked._jacobi_bound)


@pytest.mark.parametrize("gens", [
    pytest.param(lambda: so_elementary(6)[1], id="so6"),
    pytest.param(lambda: su3()[1], id="su3"),
    pytest.param(lambda: compact_sum_with_centre(0),
                 id="compact-sum-with-centre"),
])
def test_matrix_algebra_factors_its_generators_once(gens, monkeypatch):
    gens, calls = gens(), []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append("svd")
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    monkeypatch.setattr(np.linalg, "lstsq",
                        lambda *args, **kwargs: calls.append("lstsq"))
    matrix_algebra(gens)
    assert calls == ["svd"]


@pytest.mark.parametrize("dtype", [float, complex])
def test_no_generators_span_the_zero_algebra(dtype):
    alg, rep = matrix_algebra(np.zeros((0, 3, 3), dtype=dtype))
    assert (alg.dim, alg.basis_labels, alg.structure.shape) == (0, (), (0, 0, 0))
    assert rep.shape == (0, 3, 3)


@pytest.mark.parametrize("noise, tol, refused", [(1e-8, 1e-6, False),
                                                 (1e-5, 1e-3, True)])
def test_a_fit_the_certificate_cannot_bound_is_decided_by_the_exact_sum(
        noise, tol, refused, monkeypatch):
    """Noisy so(4) generators pass closure at a loose tol, and their fit
    residuals are too large for the certificate: the exact sum runs once
    and accepts or refuses the tensor, as it would with no certificate."""
    rng = np.random.default_rng(5)
    gens = so_elementary(4)[1] + noise * rng.standard_normal((6, 4, 4))
    calls = record_jacobi_sums(monkeypatch)
    if refused:
        with pytest.raises(ValueError, match="Jacobi identity"):
            matrix_algebra(gens, tol=tol)
    else:
        matrix_algebra(gens, tol=tol)
    [(bound, structure, value)] = calls
    assert bound > DEFAULT_TOL
    assert value == pytest.approx(reference_jacobi_residual(structure),
                                  rel=1e-9, abs=1e-15)
    assert (value > DEFAULT_TOL) == refused


def uncertified_copy():
    alg = so_elementary(4)[0]
    copy = LieAlgebra(alg.dim, alg.basis_labels, alg.structure.copy())
    assert copy.structure.flags.writeable
    return copy


@pytest.mark.parametrize("build", [
    pytest.param(uncertified_copy, id="copy-of-certified"),
    pytest.param(lambda: space_from_dict(space_to_dict(HomogeneousSpace(
        su3()[0], Subspace.zero(8), BilinearForm(np.eye(8))))),
                 id="from-dict"),
    pytest.param(lambda: direct_sum(spin3_quaternion()[0], abelian(1)[0]),
                 id="sum-with-uncertified"),
    pytest.param(lambda: direct_sum(so_elementary(3)[0], su3()[0]),
                 id="sum-of-certified"),
    pytest.param(lambda: augment_left_invariant(spin3_berger(1.5)[0]),
                 id="augmented"),
    pytest.param(lambda: verify.run_checks("structure"), id="verify"),
])
def test_uncertified_constructions_run_the_exact_sum(build, monkeypatch):
    """Each construction runs the sum with no certificate; a later sum on
    a tensor built so (verify's structure check reruns it) sees the first
    sum kept as the algebra's Jacobi bound."""
    calls = record_jacobi_sums(monkeypatch)
    build()
    built = [structure for bound, structure, _ in calls if bound is None]
    assert built and all(bound is None or any(structure is t for t in built)
                         for bound, structure, _ in calls)


def test_an_uncertified_algebra_keeps_its_jacobi_sum_as_its_bound():
    """The constructor keeps the exact sum it ran, as a bound on each
    triple's norm (sqrt(dim) times the largest entry, plus rounding), and
    no bound where the tensor is not exactly antisymmetric, since the sum
    is of the antisymmetric part."""
    alg = uncertified_copy()
    assert alg.jacobi_residual() * 6 ** 0.5 <= alg._jacobi_bound <= 1e-12
    skewed = alg.structure.copy()
    skewed[0, 1, 2] += 1e-12
    assert LieAlgebra(6, alg.basis_labels, skewed)._jacobi_bound == np.inf


def test_certified_tensors_are_read_only(monkeypatch):
    calls = record_jacobi_sums(monkeypatch)
    a, b = so_elementary(5)[0], su3()[0]
    assert calls == []
    for alg in (a, b):
        with pytest.raises(ValueError, match="read-only"):
            alg.structure[0, 1, 2] = 0.0
