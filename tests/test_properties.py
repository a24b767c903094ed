"""Randomized invariants, run on seeded generators for reproducibility.

Each property is checked on a handful of random draws; the assertions
are structural facts that must hold for every admissible input, not
frozen values.
"""

import numpy as np
import pytest

from meaning import adjoint, projector
from symidx.liealg import (
    BilinearForm,
    Subspace,
    bracket,
    direct_sum,
    killing_form_positive,
    preset,
)
from symidx.homspace import (
    HomogeneousSpace,
    jacobi_operator,
    symmetry_ideal,
    transvection_space,
)
from symidx.catalog import (
    cp2_centriole,
    product_of_spheres,
    round_sphere,
    so4_so2,
    spin3_metric,
    spin3_one_parameter,
)
from symidx.serialize import space_from_dict, space_to_dict


def random_quotients(rng, count):
    for _ in range(count):
        lam = float(rng.uniform(0.1, 1.0))
        s = float(rng.uniform(0.1, 1.9))
        if rng.uniform() < 0.5:
            yield so4_so2(lam, s)[0]
        else:
            yield so4_so2(lam, s, t=float(rng.uniform(0.1, 2.5)))[0]


def test_index_plus_coindex_is_the_dimension():
    rng = np.random.default_rng(2024)
    spaces = list(random_quotients(rng, 6))
    spaces += [round_sphere(n)[0] for n in (2, 3, 4)]
    spaces += [spin3_metric(*rng.uniform(0.2, 2.5, size=3))[0]
               for _ in range(3)]
    for sp in spaces:
        rep = transvection_space(sp)
        assert rep.index + rep.coindex == sp.dim
        assert rep.involutive_ok


def test_parallel_fields_have_vanishing_derivative():
    rng = np.random.default_rng(99)
    for sp in random_quotients(rng, 5):
        rep = transvection_space(sp)
        for c in range(rep.p_space.dim):
            x = rep.p_space.basis[:, c]
            resid = np.max(np.abs(sp.nabla_at_base(x)))
            assert resid < 1e-8


def test_transvection_span_is_closed_under_brackets():
    rng = np.random.default_rng(7)
    for sp in random_quotients(rng, 4):
        rep = transvection_space(sp)
        if rep.p_space.dim == 0:
            continue
        span = Subspace.from_spanning(
            sp.algebra.dim,
            np.hstack([rep.k_space.basis, rep.p_space.basis]))
        assert span.dim == rep.dim_transvection
        for a in range(span.dim):
            for b in range(a + 1, span.dim):
                w = bracket(sp.algebra, span.basis[:, a], span.basis[:, b])
                assert span.contains(w)


def test_dimension_bound_is_never_exceeded():
    rng = np.random.default_rng(31)
    for sp in random_quotients(rng, 8):
        bound = symmetry_ideal(sp)
        assert bound.lhs <= bound.rhs
        assert bound.equality == (bound.lhs == bound.rhs)


def test_index_survives_a_change_of_complement_basis():
    rng = np.random.default_rng(55)
    for sp in random_quotients(rng, 4):
        q, _ = np.linalg.qr(rng.standard_normal((sp.dim, sp.dim)))
        rotated = HomogeneousSpace(
            sp.algebra, sp.isotropy,
            BilinearForm(q.T @ sp.metric.gram @ q),
            complement=Subspace(sp.algebra.dim, sp.m_basis @ q))
        r1, r2 = transvection_space(sp), transvection_space(rotated)
        assert (r1.index, r1.coindex) == (r2.index, r2.coindex)
        assert r1.p_space.equals(r2.p_space)


def test_metric_scaling_rescales_curvature():
    rng = np.random.default_rng(13)
    for _ in range(3):
        a = rng.uniform(0.3, 2.0, size=3)
        c = float(rng.uniform(0.5, 4.0))
        base = spin3_metric(*a)[0]
        scaled = spin3_metric(*(c * a))[0]
        for col in range(3):
            x = base.m_basis[:, col]
            try:
                s1 = jacobi_operator(base, x)
            except ValueError:
                continue
            s2 = jacobi_operator(scaled, x)
            np.testing.assert_allclose(np.sort(s2.eigenvalues),
                                       np.sort(s1.eigenvalues) / c,
                                       atol=1e-9)


def test_jacobi_eigenvectors_are_orthonormal_for_the_metric():
    rng = np.random.default_rng(77)
    sp, _ = round_sphere(4)
    for _ in range(4):
        x = sp.lift(rng.standard_normal(sp.dim))
        spec = jacobi_operator(sp, x)
        v = spec.eigenvectors
        np.testing.assert_allclose(v.T @ sp.metric.gram @ v, np.eye(sp.dim),
                                   atol=1e-9)
        assert spec.selfadjoint_residual < 1e-9


def test_killing_form_is_ad_invariant():
    rng = np.random.default_rng(5)
    for name in ("so3", "so4", "spin3_quat", "su3"):
        alg, _ = preset(name)
        b = killing_form_positive(alg).gram
        for _ in range(3):
            ad = adjoint(alg, rng.standard_normal(alg.dim))
            np.testing.assert_allclose(b @ ad, -ad.T @ b, atol=1e-9)


def test_serialization_preserves_the_index():
    rng = np.random.default_rng(404)
    for sp in random_quotients(rng, 3):
        back = space_from_dict(space_to_dict(sp))
        assert transvection_space(back).index == transvection_space(sp).index


def _block_diagonal(x, y):
    out = np.zeros((x.shape[0] + y.shape[0], x.shape[1] + y.shape[1]))
    out[:x.shape[0], :x.shape[1]] = x
    out[x.shape[0]:, x.shape[1]:] = y
    return out


def product_space(a, b):
    """The Riemannian product of two spaces, presented by the direct sum of
    their algebras with block isotropy, complement and metric."""
    n = a.algebra.dim + b.algebra.dim
    return HomogeneousSpace(
        direct_sum(a.algebra, b.algebra),
        Subspace(n, _block_diagonal(a.isotropy.basis, b.isotropy.basis)),
        BilinearForm(_block_diagonal(a.metric.gram, b.metric.gram)),
        complement=Subspace(n, _block_diagonal(a.complement.basis,
                                               b.complement.basis)))


def catalog_draws(rng):
    """One space of each catalog kind, its parameters drawn from ``rng``."""
    lam, s = rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.9)
    return [
        round_sphere(2)[0],
        so4_so2(lam, s)[0],  # coupled
        so4_so2(lam, s, t=2.0 - s + rng.choice([-1, 1]) * rng.uniform(
            0.1, 0.5))[0],
        spin3_metric(*rng.uniform(0.2, 2.5, size=3))[0],
        spin3_one_parameter(rng.uniform(0.1, 1.9))[0],
        product_of_spheres(rng.uniform(0.3, 2.0))[0],
        cp2_centriole()[0],
    ]


@pytest.mark.parametrize("seed", [11, 12])
def test_index_and_ideal_dimensions_add_over_products(seed):
    """On the product of two spaces, presented by the direct sum of their
    algebras, the index, ``dim gD`` and ``2 dim g'`` are the sums of the
    factors' values: an ideal inside a product subspace projects to
    ideals inside the factors."""
    rng = np.random.default_rng(seed)
    spaces = catalog_draws(rng)
    decided = [(transvection_space(sp), symmetry_ideal(sp)) for sp in spaces]
    pairs = [(i, j) for i in range(len(spaces)) for j in range(i, len(spaces))]
    for k in rng.choice(len(pairs), size=12, replace=False):
        i, j = rng.permutation(pairs[k])  # the order of the summands too
        product = product_space(spaces[i], spaces[j])
        rep = transvection_space(product)
        bound = symmetry_ideal(product, rep)
        (rep_i, bound_i), (rep_j, bound_j) = decided[i], decided[j]
        assert rep.index == rep_i.index + rep_j.index
        assert bound.gD.dim == bound_i.gD.dim + bound_j.gD.dim
        assert bound.lhs == bound_i.lhs + bound_j.lhs


def test_evaluation_and_lift_are_mutually_inverse():
    rng = np.random.default_rng(21)
    for sp in random_quotients(rng, 3):
        v = rng.standard_normal(sp.dim)
        np.testing.assert_allclose(sp.evaluate(sp.lift(v)), v, atol=1e-10)
        x = sp.lift(v)
        # lifts carry no isotropy part
        coords = np.linalg.solve(np.hstack([sp.h_basis, sp.m_basis]), x)
        np.testing.assert_allclose(coords[:sp.isotropy.dim],
                                   np.zeros(sp.isotropy.dim), atol=1e-10)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_subspace_projectors(seed):
    rng = np.random.default_rng(seed)
    cols = rng.standard_normal((6, 3))
    sub = Subspace.from_spanning(6, cols)
    p = projector(sub)
    np.testing.assert_allclose(p @ p, p, atol=1e-10)
    np.testing.assert_allclose(p @ cols, cols, atol=1e-10)
