"""Scale guard: the round sphere so(12)/so(11), algebra dimension 66.

The checks are deterministic (results and a tracemalloc bound), not
timings; together they take under a second.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from symidx.homspace import HomogeneousSpace, symmetry_ideal, transvection_space
from symidx.liealg import BilinearForm, Subspace, so_elementary

N = 11


@pytest.fixture(scope="module")
def so12():
    return so_elementary(N + 1)[0]


def test_so12_sphere_pipeline(so12):
    """so(12)/so(11) is the round 11-sphere: symmetric, so index 11,
    coindex 0, and a bound 0 = 0 with no complementary ideal."""
    pairs = list(itertools.combinations(range(N + 1), 2))
    eye = np.eye(so12.dim)
    h_idx = [k for k, (a, _) in enumerate(pairs) if a > 0]
    m_idx = [k for k, (a, _) in enumerate(pairs) if a == 0]
    sp = HomogeneousSpace(so12, Subspace(so12.dim, eye[:, h_idx]),
                          BilinearForm(np.eye(N)),
                          complement=Subspace(so12.dim, eye[:, m_idx]))
    report = transvection_space(sp)
    assert (report.index, report.coindex) == (N, 0)
    assert report.dim_transvection == so12.dim
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
