from types import SimpleNamespace

import numpy as np
import pytest

from symidx import liealg
from symidx.liealg import (
    BilinearForm,
    LieAlgebra,
    Subspace,
    abelian,
    adjoint,
    adjoints,
    algebra_from_dict,
    algebra_to_dict,
    bi_invariant_directions,
    bracket,
    brackets,
    derived_subalgebra,
    direct_sum,
    killing_form_positive,
    largest_invariant_subspace,
    matrix_algebra,
    numerical_kernel,
    numerical_rank,
    orthogonal_complement,
    orthonormal_columns,
    preset,
    quaternion_left_multiplication,
    reference_form,
    so_elementary,
    spin3_quaternion,
    su3,
)

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
    cols = orthonormal_columns(a)
    assert cols.shape == (3, 1)
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


def test_bilinear_form_definiteness_and_restriction():
    form = BilinearForm(np.diag([2.0, 1.0, 0.5]))
    assert form.is_positive_definite()
    sub = Subspace(3, np.array([[1.0], [0.0], [0.0]]))
    np.testing.assert_allclose(form.restricted_to(sub), [[2.0]])
    assert not BilinearForm(np.diag([1.0, -1.0])).is_positive_definite()
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

    full = largest_invariant_subspace(alg, np.eye(3), Subspace.full(3))
    assert full.dim == 3


def test_reference_form_extends_over_the_center():
    both = direct_sum(spin3_quaternion()[0], abelian(2)[0])
    q = reference_form(both)
    assert q.is_positive_definite()
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
    alg = LieAlgebra(2, ("x", "y"), c, convention_note="test")
    with pytest.raises(ValueError, match="do not split"):
        reference_form(alg)


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


def test_quaternion_left_multiplication_table():
    li = quaternion_left_multiplication(1)
    # i * j = k, i * i = -1
    np.testing.assert_allclose(li @ np.array([0.0, 0.0, 1.0, 0.0]),
                               [0.0, 0.0, 0.0, 1.0])
    np.testing.assert_allclose(li @ np.array([0.0, 1.0, 0.0, 0.0]),
                               [-1.0, 0.0, 0.0, 0.0])


def test_algebra_dict_round_trip():
    alg, _ = so_elementary(4)
    back = algebra_from_dict(algebra_to_dict(alg))
    assert back.basis_labels == alg.basis_labels
    np.testing.assert_allclose(back.structure, alg.structure)


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
        assert comp.equals(Subspace.full(alg.dim))


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


def reference_jacobi_residual(c):
    """The whole dim^4 cyclic sum, formed at once."""
    t1 = np.einsum("jka,iab->ijkb", c, c)
    t2 = np.einsum("kia,jab->ijkb", c, c)
    t3 = np.einsum("ija,kab->ijkb", c, c)
    return float(np.max(np.abs(t1 + t2 + t3)))


@pytest.mark.parametrize("chunk", [None, 1, 1100])
def test_chunked_jacobi_residual_matches_the_full_tensor_formula(
        chunk, monkeypatch):
    if chunk is not None:
        # one first index per chunk, or chunks of 2-3 with a short last one
        monkeypatch.setattr(liealg, "_JACOBI_CHUNK", chunk)
    rng = np.random.default_rng(31)
    alg, _ = su3()
    # a dense presentation of su(3): random change of basis
    t = rng.standard_normal((8, 8))
    dense = np.einsum("ip,jq,ijk,rk->pqr", t, t, alg.structure,
                      np.linalg.inv(t))
    perturbed = dense.copy()
    perturbed[0, 1, 2] += 1e-3
    perturbed[1, 0, 2] -= 1e-3
    for c in (alg.structure, dense, perturbed, random_antisymmetric(rng, 7)):
        # the unbound method reads only dim and structure, which lets it
        # score tensors the constructor would reject
        got = LieAlgebra.jacobi_residual(
            SimpleNamespace(dim=c.shape[0], structure=c))
        want = reference_jacobi_residual(c)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-13)
    assert reference_jacobi_residual(perturbed) > 1e-4
    assert LieAlgebra.jacobi_residual(
        SimpleNamespace(dim=0, structure=np.zeros((0, 0, 0)))) == 0.0


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


def test_subspace_batched_containment():
    sub = Subspace.from_spanning(4, np.eye(4)[:, :2])
    vecs = np.array([[1.0, 0.0, 1.0], [2.0, 0.0, 0.0],
                     [0.0, 1.0, 1e-12], [0.0, 0.0, 0.0]])
    np.testing.assert_array_equal(sub.contains_columns(vecs),
                                  [True, False, True])
    assert sub.contains_columns(np.zeros((4, 2, 3))).shape == (2, 3)
    assert sub.onb() is sub.onb()
