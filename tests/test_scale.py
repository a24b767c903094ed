"""Scale guard: the round spheres so(12)/so(11) and so(15)/so(14), algebra
dimension 66 and 105.

The checks are deterministic (results and tracemalloc bounds), not
timings.  The exact Jacobi sum and the whole pipeline run on so(12);
so(15) is only built and decomposed, since its symmetry-ideal bound
alone would cost a third of a second for what so(12) already shows.
"""

import tracemalloc

import pytest

from symidx import homspace
from symidx.catalog import round_sphere
from symidx.homspace import symmetry_ideal, transvection_space
from symidx.liealg import DEFAULT_TOL, so_elementary

N = 11

#: Traced peak of building so(15)/so(14): 27.0 MiB measured (numpy 2.4,
#: CPython 3.11), reached in the subalgebra check of the presentation,
#: which holds the isotropy's ad stack and its brackets with the algebra.
SO15_BUILD_PEAK_MIB = 32

#: Traced peak of matrix_algebra on so(15): 24.1 MiB measured (numpy 2.4,
#: CPython 3.11), with the thin SVD factors that give the fit; it was
#: 40.9 MiB while the 5 460 pair commutators were formed all at once.
SO15_ALGEBRA_PEAK_MIB = 28

#: Traced peak of matrix_algebra on so(10): 2.05 MiB measured (numpy 2.4,
#: CPython 3.11), the 990 commutators and their fit residuals, 0.8 MiB each,
#: and the fit coefficients; it was 3.2 MiB while each chunk of pairs
#: gathered copies of its generators.  A process that caches so(4) to so(9)
#: builds so(10) on top of them, so this peak sets the sphere ladder's.
SO10_ALGEBRA_PEAK_MIB = 2.5

#: Traced peak of the exact Jacobi sum on so(12), the first call in the
#: process: 7.8 MiB measured (numpy 2.4, CPython 3.11; 3.3 on so(8) and 5.6
#: on so(10)), of which the antisymmetric part and its pair rows take 3.3,
#: and the products and gathers of one block of k the rest.
JACOBI_PEAK_MIB = 10


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
    tracemalloc.start()
    try:
        sp = round_sphere(14)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return sp, peak


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
    """matrix_algebra forms the commutators in place, one generator at a
    time, and frees them before the tensor is built; the preset cache is
    emptied first, so that so(15) is built while traced."""
    so_elementary.cache_clear()
    tracemalloc.start()
    try:
        so_elementary(15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < SO15_ALGEBRA_PEAK_MIB * 2**20


def test_so10_algebra_gathers_no_copies_of_its_generators():
    """The commutators of the pairs that end in one generator come from one
    broadcast product of views, so the build holds little beyond them."""
    so_elementary.cache_clear()
    tracemalloc.start()
    try:
        so_elementary(10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < SO10_ALGEBRA_PEAK_MIB * 2**20


def test_jacobi_residual_memory_is_cubic(so12):
    """The three dim^4 tensors of the whole cyclic sum take 150 MB each here;
    the residual works on a block of its largest index k at a time
    instead.  The sum is at most the certificate, as for the smaller so(n)
    in test_liealg."""
    tracemalloc.start()
    try:
        residual = so12.jacobi_residual()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert residual <= so12._jacobi_bound <= DEFAULT_TOL
    assert residual < 1e-12
    assert peak < JACOBI_PEAK_MIB * 2**20
