"""Compare printed reports by what they mean, not by their bytes.

A printed subspace is compared by its orthogonal projector and a
spectrum by its eigenvalues; a basis is not an invariant of the input.
:func:`adjoint` is the one-vector reference for ``liealg.adjoints``,
:func:`invariant_by_loop` the one-seed reference for
``liealg.invariant_subspaces``, :func:`lstsq_structure` the least-squares
reference for ``liealg.matrix_algebra``, :func:`projector` the
orthogonal projector onto a ``Subspace``, and :func:`leaf` the leaf of
symmetry that a ``TransvectionReport`` describes, built as a space of its
own.
"""

import numpy as np

from symidx.homspace import HomogeneousSpace
from symidx.liealg import (
    BilinearForm,
    LieAlgebra,
    Subspace,
    brackets,
    numerical_kernel,
    stacked_spans,
)


def adjoint(alg, x) -> np.ndarray:
    """Matrix of ad_x = bracket(x, .) acting on coefficient vectors."""
    return np.einsum("i,ijk->kj", np.asarray(x, float), alg.structure)


def projector(sub) -> np.ndarray:
    """Orthogonal projector onto the subspace ``sub``."""
    q = sub.onb()
    return q @ q.T


def invariant_by_loop(ads, w, tol) -> np.ndarray:
    """Orthonormal basis of the largest subspace of the span of the
    orthonormal columns ``w`` that every matrix of ``ads`` maps into
    itself: the kernel of ``(1 - W W^T) ad W`` per pass, spanned afresh
    from ``W`` times it, until the dimension stops falling."""
    for _ in range(w.shape[1] + 1):
        if w.shape[1] == 0:
            break
        leaks = (np.eye(len(w)) - w @ w.T) @ ads @ w
        keep = numerical_kernel(leaks.reshape(-1, w.shape[1]), tol)
        if keep.shape[1] == w.shape[1]:
            break
        u, rank, _ = stacked_spans(w @ keep, tol)
        w = u[:, :rank]
    return w


def printed_projector(printed: dict) -> np.ndarray:
    """Orthogonal projector onto a subspace printed as
    ``{"ambient_dim", "dim", "basis"}`` (basis vectors as rows)."""
    basis = np.asarray(printed["basis"], dtype=float).reshape(
        printed["dim"], printed["ambient_dim"]).T
    q = np.linalg.qr(basis)[0]
    return q @ q.T


def assert_same_subspace(a: dict, b: dict, tol: float = 1e-10):
    assert (a["ambient_dim"], a["dim"]) == (b["ambient_dim"], b["dim"])
    distance = float(np.max(np.abs(printed_projector(a) - printed_projector(b)),
                            initial=0.0))
    assert distance <= tol, f"projector distance {distance:.3e}"


def assert_same_spectrum(a, b, tol: float = 1e-10):
    np.testing.assert_allclose(np.asarray(a, dtype=float),
                               np.asarray(b, dtype=float), rtol=0, atol=tol)


def assert_same_report(a, b, tol: float = 1e-10, path: str = ""):
    """Printed reports agree: subspaces by projector distance, floats
    within ``tol``, everything else (integers, flags, labels) exactly."""
    if isinstance(a, dict) and "basis" in a:
        assert_same_subspace(a, b, tol)
    elif isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for key in a:
            assert_same_report(a[key], b[key], tol, f"{path}/{key}")
    elif isinstance(a, list):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same_report(x, y, tol, f"{path}/{i}")
    elif isinstance(a, float):
        assert abs(a - b) <= tol, f"{path}: {a} != {b}"
    else:
        assert type(a) is type(b) and a == b, f"{path}: {a!r} != {b!r}"


def lstsq_structure(mats) -> np.ndarray:
    """Structure tensor, in the Killing convention, of the algebra spanned
    by the linearly independent matrices ``mats``: minus each commutator
    fitted to the generators by ``np.linalg.lstsq``, the reference for
    ``liealg.matrix_algebra``."""
    mats = np.asarray(mats)
    n = len(mats)
    prods = mats[:, None] @ mats[None]  # [i, j] holds M_i M_j
    comms = prods.swapaxes(0, 1) - prods

    def flat(a):  # each matrix as a real row, complex parts side by side
        a = a.reshape(len(a), -1)
        return np.hstack([a.real, a.imag]) if np.iscomplexobj(a) else a

    fit = np.linalg.lstsq(flat(mats).T, flat(comms.reshape(n * n, -1)).T,
                          rcond=None)[0]
    return fit.T.reshape(n, n, n)


def leaf(space, report) -> tuple:
    """The leaf of symmetry through the base point of ``space`` that
    ``report`` (its transvection report) describes, as a space L of its
    own, and the largest entry of a bracket of k + p outside k + p.

    L's algebra is k + p, with the brackets of g projected on the
    orthonormal basis B = [k_space.onb() | p_space.onb()]; its isotropy is
    the k coordinates, its complement the p coordinates, and its metric
    (E p)^T G (E p) for the evaluation E and metric G of ``space``.
    """
    k, p = report.k_space.onb(), report.p_space.onb()
    b = np.hstack([k, p])
    d, r = b.shape[1], k.shape[1]
    w = brackets(space.algebra, b, b)  # w[:, a, c] = [B_a, B_c]
    coeffs = np.tensordot(b.T, w, axes=1)  # coeffs[z, a, c] on B_z
    leak = float(np.max(np.abs(w - np.tensordot(b, coeffs, axes=1)),
                        initial=0.0))
    algebra = LieAlgebra(d, [f"b{a}" for a in range(d)],
                         coeffs.transpose(1, 2, 0))
    values = space.eval_matrix @ p
    eye = np.eye(d)
    return HomogeneousSpace(
        algebra, Subspace(d, eye[:, :r]),
        BilinearForm(values.T @ space.metric.gram @ values),
        complement=Subspace(d, eye[:, r:]), tol=space.tol), leak
