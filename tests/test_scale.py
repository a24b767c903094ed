"""Scale guard: the round sphere so(12)/so(11), algebra dimension 66.

The checks are deterministic (results and a tracemalloc bound), not
timings; together they take under a second.
"""

import tracemalloc

import pytest

from symidx.catalog import round_sphere
from symidx.homspace import symmetry_ideal, transvection_space

N = 11


@pytest.fixture(scope="module")
def sphere():
    return round_sphere(N)[0]


@pytest.fixture(scope="module")
def so12(sphere):
    return sphere.algebra


def test_so12_sphere_pipeline(sphere):
    """so(12)/so(11) is the round 11-sphere: symmetric, so index 11,
    coindex 0, and a bound 0 = 0 with no complementary ideal."""
    sp = sphere
    report = transvection_space(sp)
    assert (report.index, report.coindex) == (N, 0)
    assert report.dim_transvection == sp.algebra.dim
    assert report.involutive_ok
    bound = symmetry_ideal(sp, report)
    assert (bound.lhs, bound.rhs, bound.equality) == (0, 0, True)


def test_jacobi_residual_memory_is_cubic(so12):
    """The three dim^4 tensors of the whole cyclic sum take 150 MB each here;
    the residual works one first index at a time instead."""
    tracemalloc.start()
    try:
        residual = so12.jacobi_residual()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert residual < 1e-12
    assert peak < 32 * 2**20
