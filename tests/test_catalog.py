import inspect
import json
import math
import re
import warnings

import numpy as np
import pytest

from meaning import traced_peak
from symidx import catalog
from symidx.catalog import (
    CATALOG_TEMPLATES,
    MAX_SPHERE_DIM,
    cp2_centriole,
    default_spaces,
    from_name,
    orbit_space,
    product_of_spheres,
    round_sphere,
    so4_so2,
    so4_so2_complement,
    spin3_berger,
    spin3_metric,
    spin3_one_parameter,
    spin4_quotient,
)
from symidx.homspace import HomogeneousSpace, transvection_space
from symidx.liealg import (
    DEFAULT_TOL,
    Subspace,
    quaternion_left_multiplication,
    quaternion_right_multiplication,
    so_elementary,
)
from symidx.serialize import plain
from symidx.verify import run_checks


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_round_sphere_shapes(n):
    sp, info = round_sphere(n)
    assert sp.dim == n
    assert sp.algebra.dim == (n + 1) * n // 2
    assert set(info) == {"family", "n", "representation"}
    assert transvection_space(sp).index == n


@pytest.mark.parametrize("n", [0, -1])
def test_round_sphere_dimension_range(n):
    """S^n needs so(n+1), so n >= 1."""
    with pytest.raises(ValueError, match="must be at least 1"):
        round_sphere(n)


@pytest.mark.parametrize("n", [MAX_SPHERE_DIM + 1, 10 ** 5, int(1e300)])
def test_round_sphere_refuses_a_dimension_above_the_limit(n):
    """The limit is named and keeps so(15), which test_scale builds; the
    refusal comes before so(n+1) allocates anything."""
    assert MAX_SPHERE_DIM >= 14

    def refused():
        with pytest.raises(ValueError, match=f"at most MAX_SPHERE_DIM = "
                                             f"{MAX_SPHERE_DIM}"):
            round_sphere(n)

    assert traced_peak(refused)[1] < 2 ** 16


def test_quotient_parameter_validation():
    with pytest.raises(ValueError, match="slope"):
        so4_so2(0.0, 0.5)
    with pytest.raises(ValueError, match="slope"):
        so4_so2(1.2, 0.5)
    with pytest.raises(ValueError, match="outside"):
        so4_so2(0.5, 2.0)
    with pytest.raises(ValueError, match="positive"):
        so4_so2(0.5, 0.5, -1.0)


def test_quotient_gram_matrix_and_coupling_flag():
    """t defaults to 2 - s, the coupled stratum, where the index is 2; off
    it the index is 0.  ``info`` keeps the parameters only."""
    sp, info = so4_so2(0.7, 0.3)
    np.testing.assert_allclose(sp.metric.gram,
                               np.diag([2.0, 2.0, 0.3, 1.7, 1.7]))
    assert info == {"family": "so4-so2", "lam": 0.7, "s": 0.3, "t": 1.7}
    assert transvection_space(sp).index == 2
    assert transvection_space(so4_so2(0.7, 0.3, t=1.7)[0]).index == 2
    assert transvection_space(so4_so2(0.7, 0.3, t=1.0)[0]).index == 0


def test_quotient_isotropy_is_the_diagonal_circle():
    sp, _ = so4_so2(0.5, 0.5)
    assert sp.isotropy.dim == 1
    assert sp.isotropy.contains(np.array([1.0, 0, 0, 1.0, 0, 0]))
    np.testing.assert_allclose(sp.evaluate(np.array([1.0, 0, 0, 1.0, 0, 0])),
                               np.zeros(5), atol=1e-12)


def test_spin3_metric_validation():
    with pytest.raises(ValueError, match="must be positive"):
        spin3_metric(1.0, -1.0, 1.0)
    with pytest.raises(ValueError, match="outside"):
        spin3_one_parameter(1.0)
    with pytest.raises(ValueError, match="round sphere"):
        spin3_berger(2.0)
    with pytest.raises(ValueError, match="positive"):
        spin3_berger(0.0)


def test_spin3_gram_order():
    sp, _ = spin3_metric(0.5, 1.5, 2.0)
    # tangent basis order is (j, k, i)
    j = np.array([0.0, 1.0, 0.0])
    np.testing.assert_allclose(sp.evaluate(j), [1.0, 0.0, 0.0])
    v = sp.evaluate(j)
    assert np.sqrt(v @ sp.metric.gram @ v) == pytest.approx(math.sqrt(0.5))


@pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
def test_product_of_spheres_matches_the_quotient_family(rho):
    sp, info = product_of_spheres(rho)
    lam = 1.0 / (1.0 + 2.0 * rho * rho)
    assert info["lam"] == pytest.approx(lam)
    s = 2.0 * (1.0 + rho * rho) / (1.0 + 2.0 * rho * rho)
    t = 2.0 * rho * rho / (1.0 + 2.0 * rho * rho)
    c = info["homothety"]
    np.testing.assert_allclose(sp.metric.gram,
                               c * np.diag([2.0, 2.0, s, t, t]), atol=1e-12)
    # isotropy is the diagonal distinguished circle
    assert sp.isotropy.dim == 1
    assert sp.isotropy.contains(np.array([1.0, 0, 0, 1.0, 0, 0]))
    rep = transvection_space(sp)
    assert (rep.index, rep.coindex) == (2, 3)


@pytest.mark.parametrize("rho", [1e154, 1e308])
def test_a_radius_whose_slope_underflows_is_refused_by_name(rho):
    """Past about 9.5e153, 2 rho^2 overflows and the slope 1/(1 + 2 rho^2)
    is 0; the embedding's product overflowed with a numpy warning first."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(
                f"radius rho={rho} is too large: 2 rho^2 overflows")):
            product_of_spheres(rho)


def test_product_of_spheres_moves_only_its_complement():
    """At every radius the isotropy is the circle R(e0 + e3) of so4_so2,
    bit for bit, which spans the kernel of the embedding, and the
    complement is so4_so2's at the slope 1/(1 + 2 rho^2): a product sweep
    is one presentation with a stack of complements."""
    rng = np.random.default_rng(1517)
    for rho in [0.05, 10.0, *rng.uniform(0.05, 10.0, 8)]:
        sp, _ = product_of_spheres(rho)
        want = spin4_quotient(
            so4_so2_complement(1.0 / (1.0 + 2.0 * rho * rho)), DEFAULT_TOL)
        assert sp.h_basis.tobytes() == want.h_basis.tobytes()
        assert sp.isotropy.equals(
            Subspace.kernel_of(catalog._product_embedding(rho)))
        np.testing.assert_array_equal(sp.complement.basis,
                                      want.complement.basis)


def test_product_of_spheres_keeps_the_bases_of_its_own_radius():
    """product_of_spheres builds on spin4_quotient.  At every radius its
    isotropy basis is, bit for bit, the quotient's circle, which spans the
    kernel of that radius's own embedding, and its complement basis that
    of product_of_spheres_metric, so the document that catalog emit
    writes cannot move."""
    rng = np.random.default_rng(1519)
    circle = spin4_quotient(so4_so2_complement(1.0), DEFAULT_TOL).isotropy
    for rho in rng.uniform(0.05, 5.0, 200):
        sp, _ = product_of_spheres(rho)
        assert sp.isotropy.equals(
            Subspace.kernel_of(catalog._product_embedding(rho)))
        for got, want in (
                (sp.isotropy.basis, circle.basis),
                (sp.complement.basis,
                 catalog.product_of_spheres_metric(rho)[0].basis)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _product_embedding_by_loop(rho):
    """The orbit velocities at the base point (rho i, i), field by field."""
    unit_i = np.array([0.0, 1.0, 0.0, 0.0])
    embed = np.zeros((7, 6))
    for a in range(3):
        left = quaternion_left_multiplication(a + 1)
        right = quaternion_right_multiplication(a + 1)
        conj = (left - right)[1:, 1:]  # commutator action on Im(H)
        embed[:3, a] = rho * conj @ unit_i[1:]
        embed[3:, a] = left @ unit_i
        embed[3:, a + 3] = -right @ unit_i
    return embed


def test_product_embedding_is_the_orbit_velocities_of_the_representation():
    """Read off the cached representation, the embedding is, bit for bit,
    the one built field by field."""
    rng = np.random.default_rng(1523)
    for rho in rng.uniform(0.01, 10.0, 200):
        got = catalog._product_embedding(rho)
        want = _product_embedding_by_loop(rho)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_a_product_takes_no_kernel_for_its_isotropy(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("a kernel was taken")

    monkeypatch.setattr(Subspace, "kernel_of", refused)
    sp, _ = product_of_spheres(0.7)
    assert sp.isotropy is catalog._spin4()[1]


def test_product_radius_must_be_positive():
    with pytest.raises(ValueError, match="positive"):
        product_of_spheres(0.0)


def test_product_embedding_kernel_is_the_isotropy():
    sp, info = product_of_spheres(1.0)
    embed = info["embedding"]
    assert embed.shape == (7, 6)
    np.testing.assert_allclose(embed @ sp.isotropy.basis, np.zeros((7, 1)),
                               atol=1e-12)
    # tangent values of the complement columns are orthogonal in R^7
    vals = embed @ sp.m_basis
    np.testing.assert_allclose(vals.T @ vals, sp.metric.gram, atol=1e-12)


def test_orbit_space_builds_the_space_with_its_tolerance():
    alg, rep = so_elementary(3)
    sp = orbit_space(alg, rep, np.diag([1.0, 0.0, 0.0]),
                     lambda a, b: 0.5 * float(np.trace(a @ b.T)), tol=1e-6)
    assert (sp.dim, sp.isotropy.dim) == (2, 1)
    assert sp.tol == 1e-6


def test_orbit_space_refuses_a_degenerate_metric_as_any_space_does():
    """The induced metric is decided by the space's one metric check."""
    alg, rep = so_elementary(3)
    with pytest.raises(ValueError, match="metric is not positive definite"):
        orbit_space(alg, rep, np.diag([1.0, 0.0, 0.0]), lambda a, b: 0.0)


@pytest.mark.parametrize("name", ["so3-axis", "cp2-centriole"])
def test_the_metric_of_an_orbit_space_is_the_gram_of_any_fields_velocities(
        monkeypatch, name):
    """Isotropy fields have no orbit velocity at the base point, so for any
    fields X, isotropy parts included, (E X)^T G (E X) is the Gram matrix
    of their velocities under ``inner``; the cp2-centriole-shape check
    reads the shape off the metric by this identity.  Each space is built through a recording
    ``catalog.orbit_space``, which keeps the representation, point and
    inner product it was given."""
    calls = []

    def recorded(algebra, representation, point, inner, **kw):
        calls.append((np.asarray(representation), point, inner))
        return orbit_space(algebra, representation, point, inner, **kw)

    monkeypatch.setattr(catalog, "orbit_space", recorded)
    so3, so3_rep = so_elementary(3)
    builds = {
        "so3-axis": lambda: catalog.orbit_space(
            so3, so3_rep, np.diag([1.0, 0.0, 0.0]),
            lambda a, b: 0.5 * float(np.trace(a @ b.T))),
        "cp2-centriole": lambda: catalog.cp2_centriole()[0],
    }
    sp = builds[name]()
    rep, point, inner = calls[-1]
    assert sp.isotropy.dim > 0
    rng = np.random.default_rng(29)
    for _ in range(5):
        x = rng.standard_normal((sp.algebra.dim, 4))
        x = np.hstack([x, sp.isotropy.basis @ rng.standard_normal(
            (sp.isotropy.dim, 2))])
        values = sp.evaluate(x)
        velocities = np.einsum("na,nij->aij", x, rep @ point - point @ rep)
        want = np.array([[inner(a, b) for b in velocities]
                         for a in velocities])
        np.testing.assert_allclose(values.T @ sp.metric.gram @ values, want,
                                   rtol=0, atol=1e-12)


def test_orbit_space_refuses_a_non_finite_point():
    """Its orbit velocities are not finite, and their kernel is refused by
    name before an SVD."""
    alg, rep = so_elementary(3)
    with np.errstate(invalid="ignore"), pytest.raises(
            ValueError, match=r"kernel matrix entry \[\d+, \d+\] is nan, "
                              r"not a finite number"):
        orbit_space(alg, rep, np.diag([np.nan, 0.0, 0.0]),
                    lambda a, b: 0.5 * float(np.trace(a @ b.T)))


@pytest.mark.parametrize("generators, point, message", [
    (slice(0, 2), np.diag([1.0, 0.0, 0.0]),
     r"2 generators for an algebra of dimension 3"),
    ([0, 1, 2, 0], np.diag([1.0, 0.0, 0.0]),
     r"4 generators for an algebra of dimension 3"),
    (slice(None), np.eye(2),
     r"point of shape \(2, 2\), not that of the generators \(3, 3\)"),
    (0, np.eye(3), r"expected a stack of square matrices, got shape \(3, 3\)"),
    (slice(None), np.eye(3), "the pair is not effective: an ideal of "
                             "dimension 3 lies inside the isotropy"),
], ids=["two-generators", "four-generators", "small-point", "one-matrix",
        "fixed-point"])
def test_orbit_space_refuses_misshapen_inputs_by_name(generators, point,
                                                       message):
    """The generators must be a stack of one square matrix per algebra
    dimension, the point of their shape, before any orbit velocity is
    formed; a point no generator moves has a zero-dimensional orbit, and
    the pair is then not effective."""
    alg, rep = so_elementary(3)
    with pytest.raises(ValueError, match=message):
        orbit_space(alg, rep[generators], point,
                    lambda a, b: 0.5 * float(np.trace(a @ b.T)))


def test_builders_build_the_space_with_their_tolerance():
    """1e-8 off the coupled stratum, two singular values of the parallel
    field equation are about 1e-8: a space built at 1e-5 decides index 2."""
    sp, _ = so4_so2(0.5, 0.8, 1.2 + 1e-8, tol=1e-5)
    assert sp.tol == 1e-5
    assert transvection_space(sp).index == 2
    assert transvection_space(so4_so2(0.5, 0.8, 1.2 + 1e-8)[0]).index == 0
    for sp, _ in (spin3_metric(1.0, 2.0, 3.0, tol=1e-7),
                  spin3_one_parameter(0.5, tol=1e-7),
                  spin3_berger(1.5, tol=1e-7),
                  product_of_spheres(1.0, tol=1e-7)):
        assert sp.tol == 1e-7


def test_centriole_report():
    """The builder returns the space and its construction data; the shape
    is derived by the cp2-centriole-shape check."""
    sp, info = cp2_centriole()
    assert isinstance(sp, HomogeneousSpace)
    assert set(info) == {"family", "pole_stabilizer"}
    assert info["pole_stabilizer"].dim == 2
    outcome = run_checks("cp2-centriole-shape")[0]
    assert outcome.status == "pass", outcome.detail
    assert outcome.actual["dims"] == (2, 1, 3)
    assert [type(d) for d in outcome.actual["dims"]] == [int, int, int]
    assert outcome.actual["coindex"] == 2
    assert outcome.actual["berger_t"] == pytest.approx(4.0, abs=1e-12)


def test_centriole_builds_its_algebra_with_its_tolerance(monkeypatch):
    """``tol`` reaches every rank decision behind the space and its
    stabilizer, the algebra's too."""
    seen = []
    matrix_algebra = catalog.matrix_algebra

    def recorded(*args, **kwargs):
        call = inspect.signature(matrix_algebra).bind(*args, **kwargs)
        call.apply_defaults()
        seen.append(call.arguments["tol"])
        return matrix_algebra(*args, **kwargs)

    monkeypatch.setattr(catalog, "matrix_algebra", recorded)
    sp, _ = cp2_centriole(tol=1e-7)
    assert seen == [1e-7]
    assert sp.tol == 1e-7


def test_from_name_round_trips_every_template():
    assert from_name("round-sphere:3")[0].dim == 3
    assert from_name("so4-so2:0.5,0.5")[1]["t"] == 1.5
    assert from_name("so4-so2:0.5,0.5,1.0")[1]["t"] == 1.0
    assert from_name("spin3:1,1,2")[0].dim == 3
    assert from_name("product-spheres:1.0")[1]["rho"] == 1.0
    assert from_name("cp2-centriole")[1]["family"] == "cp2-centriole"
    shape = run_checks("cp2-centriole-shape")[0].actual
    assert shape["berger_t"] == pytest.approx(4.0, abs=1e-12)


def test_from_name_rejects_malformed_names():
    with pytest.raises(ValueError, match="unknown catalog name"):
        from_name("lens-space:7,1")
    with pytest.raises(ValueError, match="needs"):
        from_name("so4-so2:0.5")
    with pytest.raises(ValueError, match="non-numeric"):
        from_name("so4-so2:a,b")
    with pytest.raises(ValueError, match="integer"):
        from_name("round-sphere:2.5")
    with pytest.raises(ValueError, match="no parameters"):
        from_name("cp2-centriole:1")


def test_default_spaces_cover_all_families():
    spaces = default_spaces()
    assert len(spaces) == 8
    families = {info["family"] for _, info in spaces}
    assert families == {"round-sphere", "so4-so2", "spin3-line",
                        "spin3-berger", "product-spheres", "cp2-centriole"}
    for sp, _ in spaces:
        assert isinstance(sp, HomogeneousSpace)


#: One name per form of CATALOG_TEMPLATES.
_TEMPLATE_NAMES = {
    "round-sphere:<n>": "round-sphere:3",
    "so4-so2:<lambda>,<s>[,<t>]": "so4-so2:0.5,0.8,1.1",
    "spin3:<a1>,<a2>,<a3>": "spin3:1,2,3",
    "product-spheres:<rho>": "product-spheres:0.7",
    "cp2-centriole": "cp2-centriole",
}


def _assert_space_and_info(pair):
    sp, info = pair
    assert isinstance(sp, HomogeneousSpace)
    assert type(info) is dict
    json.dumps(plain(info))
    return info


def test_every_builder_returns_a_space_and_its_info():
    """The catalog convention: a named builder returns ``(space, info)``,
    with ``info["family"]`` the head of its name and info printable."""
    assert set(_TEMPLATE_NAMES) == set(CATALOG_TEMPLATES)
    for name in _TEMPLATE_NAMES.values():
        info = _assert_space_and_info(from_name(name))
        assert info["family"] == name.partition(":")[0]
    for pair in default_spaces():
        _assert_space_and_info(pair)


def test_templates_are_documented():
    assert "cp2-centriole" in CATALOG_TEMPLATES
    assert any(t.startswith("so4-so2") for t in CATALOG_TEMPLATES)


def test_quotient_and_product_families_share_one_read_only_algebra():
    """And one read-only circle; the products share one read-only
    representation."""
    a, _ = so4_so2(0.5, 0.5)
    b, _ = so4_so2(0.3, 1.2, 0.7)
    c, info = product_of_spheres(1.0)
    d, other = product_of_spheres(2.5)
    assert a.algebra is b.algebra is c.algebra is d.algebra
    assert a.isotropy is b.isotropy is c.isotropy is d.isotropy
    assert info["representation"] is other["representation"]
    with pytest.raises(ValueError, match="read-only"):
        a.algebra.structure[0, 1, 2] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        a.isotropy.basis[0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        a.isotropy.onb()[0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        info["representation"][0, 1, 2] = 0.0
    rep = spin3_metric(1.0, 2.0, 3.0)[1]["representation"]
    with pytest.raises(ValueError, match="read-only"):
        rep[0, 0, 1] = 0.0
