"""Scale guard: the round spheres so(12)/so(11) and so(15)/so(14), algebra
dimension 66 and 105.

The checks are deterministic (results and tracemalloc bounds), not
timings.  The exact Jacobi sum and the whole pipeline run on so(12);
so(15) skips the exact sum on its certificate.  Its symmetry-ideal bound
costs no factorization: the seed of a symmetric space is the whole
algebra.
"""

import pytest

from meaning import traced_peak
from symidx import homspace
from symidx.catalog import round_sphere
from symidx.homspace import symmetry_ideal, transvection_space
from symidx.liealg import DEFAULT_TOL, so_elementary

N = 11

#: Traced peak of building so(15)/so(14): 20.5 MiB measured (numpy 2.4,
#: CPython 3.11); it was 24.0 MiB, the algebra's own, while matrix_algebra
#: held its fit coefficients through the constructor, and 27.0 MiB while the
#: subalgebra check formed every bracket of the isotropy.
SO15_BUILD_PEAK_MIB = 24

#: Traced peak of round_sphere(14) on the cached algebra: 11.4 MiB measured
#: (numpy 2.4, CPython 3.11), the isotropy's ad stack and the complement
#: checks; it was 17.8 MiB while the subalgebra check formed all r^2
#: brackets of the isotropy and projected them onto it.
SO15_SPACE_PEAK_MIB = 14

#: Traced peak of transvection_space on so(15)/so(14), derivatives
#: included: 4.4 MiB measured (numpy 2.4, CPython 3.11) past the space, 4.9
#: with the space built in the same trace; it was 9.5 MiB
#: while [k, p] in p was checked through the ad stack of the 91 k fields
#: rather than of the 14 fields of p.
SO15_TRANSVECTION_PEAK_MIB = 7

#: Traced peak of matrix_algebra on so(15): 18.5 MiB measured (numpy 2.4,
#: CPython 3.11), the structure tensor and the constructor's antisymmetry
#: check, 8.8 MiB each; it was 24.1 MiB while the fit coefficients lived
#: through that check, and 40.9 MiB while the 5 460 pair commutators were
#: formed all at once.
SO15_ALGEBRA_PEAK_MIB = 22

#: Traced peak of matrix_algebra on so(10): 1.61 MiB measured (numpy 2.4,
#: CPython 3.11), the structure tensor and the constructor's antisymmetry
#: check, 0.7 MiB each; the commutators and their fit take blocks of pairs
#: within the byte budget.  It was 2.05 MiB while all 990 commutators and
#: their fit residuals, 0.8 MiB each, were formed at once, and 3.2 MiB
#: while each chunk of pairs gathered copies of its generators.  A process
#: that caches so(4) to so(9) builds so(10) on top of them.
SO10_ALGEBRA_PEAK_MIB = 2

#: Traced peak of the exact Jacobi sum on so(12), the first call in the
#: process: 2.97 MiB measured (numpy 2.4, CPython 3.11), the antisymmetric
#: part 2a, 2.19 MiB, and one block within the byte budget; it was 7.8 MiB
#: while each block of k took products of 2^18 entries and their gathers.
JACOBI_PEAK_MIB = 4


@pytest.fixture(scope="module")
def sphere():
    return round_sphere(N)[0]


@pytest.fixture(scope="module")
def so12(sphere):
    return sphere.algebra


@pytest.fixture(scope="module")
def so15_sphere():
    """round_sphere(14) and the traced peak of building it, in bytes, from
    an empty preset cache: with so(15) cached, no algebra build is traced."""
    so_elementary.cache_clear()
    return traced_peak(lambda: round_sphere(14)[0])


def assert_symmetric_sphere(sp, n):
    """so(n+1)/so(n) is the round n-sphere, a symmetric space: index n and
    coindex 0; returns the transvection report."""
    report = transvection_space(sp)
    assert (report.index, report.coindex) == (n, 0)
    assert report.dim_transvection == sp.algebra.dim
    assert report.involutive_ok
    return report


def test_so12_sphere_pipeline(sphere):
    """The round 11-sphere, with a bound 0 = 0 and no complementary
    ideal."""
    report = assert_symmetric_sphere(sphere, N)
    bound = symmetry_ideal(sphere, report)
    assert (bound.lhs, bound.rhs, bound.equality) == (0, 0, True)


def test_so15_sphere_is_certified_and_built_within_its_memory(so15_sphere):
    """The 105-dimensional algebra skips the O(dim^5) Jacobi sum on its
    certificate and gives the round 14-sphere."""
    sp, peak = so15_sphere
    assert sp.algebra._jacobi_bound <= DEFAULT_TOL
    assert peak < SO15_BUILD_PEAK_MIB * 2**20
    assert_symmetric_sphere(sp, 14)


def test_so15_sphere_and_its_transvections_fit_their_memory(so15_sphere):
    """On the algebra that the fixture cached, the presentation reads its
    subalgebra check through the complement of the isotropy, and
    transvection_space its [k, p] check through the ad stack of p: the
    round 14-sphere, within bounds that the all-pairs check and the ad
    stack of k exceed."""
    sp, space_peak = traced_peak(lambda: round_sphere(14)[0])
    fresh = sp.space(sp.metric)  # derivatives not yet computed
    report, transvection_peak = traced_peak(lambda: transvection_space(fresh))
    assert (report.index, report.coindex, report.k_space.dim) == (14, 0, 91)
    assert report.involutive_ok
    bound = symmetry_ideal(fresh, report)
    assert (bound.gD.dim, bound.g_prime.dim, bound.lhs, bound.rhs) == (
        105, 0, 0, 0)
    assert space_peak < SO15_SPACE_PEAK_MIB * 2**20
    assert transvection_peak < SO15_TRANSVECTION_PEAK_MIB * 2**20


def test_so15_sphere_certifies_kk_in_k_without_the_full_containment(
        so15_sphere, monkeypatch):
    """[k, k] in k on so(15)/so(14) is certified: no bracket of the
    91-dimensional k_space with itself is formed (the one self-bracket
    with 91 columns would be the full containment)."""
    sp = so15_sphere[0]
    widths = []
    exact = homspace.brackets

    def counted(alg, a, b):
        if a is b:
            widths.append(a.shape[-1])
        return exact(alg, a, b)

    monkeypatch.setattr(homspace, "brackets", counted)
    report = assert_symmetric_sphere(sp, 14)
    assert report.k_space.dim == 91 and 14 in widths
    assert 91 not in widths


def test_so15_algebra_forms_its_commutators_within_its_memory():
    """matrix_algebra forms the commutators and their fit by blocks of
    pairs, and frees the fit before the tensor is checked; the preset
    cache is emptied first, so that so(15) is built while traced."""
    so_elementary.cache_clear()
    assert traced_peak(lambda: so_elementary(15))[1] < (
        SO15_ALGEBRA_PEAK_MIB * 2**20)


def test_so10_algebra_gathers_no_copies_of_its_generators():
    """The commutators of the pairs that end in one generator come from one
    broadcast product of views, and the fit takes them by blocks of pairs
    within the byte budget, so the build holds little beyond its tensor."""
    so_elementary.cache_clear()
    assert traced_peak(lambda: so_elementary(10))[1] < (
        SO10_ALGEBRA_PEAK_MIB * 2**20)


def test_jacobi_residual_memory_is_cubic(so12):
    """The three dim^4 tensors of the whole cyclic sum take 150 MB each here;
    the residual works on a block of its middle and last indices j and k
    at a time instead.  The sum is at most the certificate, as for the
    smaller so(n) in test_liealg."""
    residual, peak = traced_peak(so12.jacobi_residual)
    assert residual <= so12._jacobi_bound <= DEFAULT_TOL
    assert residual < 1e-12
    assert peak < JACOBI_PEAK_MIB * 2**20
