"""Compare printed reports by what they mean, not by their bytes.

A printed subspace is compared by its orthogonal projector and a
spectrum by its eigenvalues; a basis is not an invariant of the input.
:func:`adjoint` is the one-vector reference for ``liealg.adjoints``,
:func:`invariant_by_loop` the one-seed reference for
``liealg.invariant_subspaces``, :func:`lstsq_structure` the least-squares
reference for ``liealg.matrix_algebra``, :func:`projector` the
orthogonal projector onto a ``Subspace``, :func:`leaf` the leaf of
symmetry that a ``TransvectionReport`` describes, built as a space of its
own, :func:`subalgebra_leaks` the all-pairs reference for the subalgebra
check of ``homspace.Presentation``, :func:`ideal_by_svd` the seed
factorization reference for ``homspace.symmetry_ideals``, and
:func:`coupled_by_space` and :func:`uncoupled_by_space` the per-metric
references for verify's two so4-so2 checks; :func:`same_bits` compares
arrays bit for bit.
"""

import numpy as np

from symidx import catalog, verify
from symidx.homspace import HomogeneousSpace, transvection_space
from symidx.liealg import (
    DEFAULT_TOL,
    BilinearForm,
    LieAlgebra,
    Subspace,
    brackets,
    invariant_subspaces,
    numerical_kernel,
    pair_indices,
    reference_form,
    stacked_frames,
    stacked_kernels,
    stacked_spans,
)
from symidx.numcheck import ExponentialChart


def same_bits(a, b) -> bool:
    """Equal shape, dtype and bytes."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())


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


def subalgebra_leaks(alg, isotropy) -> tuple:
    """``(refused, leaks, sizes)`` of the all-pairs subalgebra rule: every
    bracket of two basis vectors a < b of ``isotropy``, in colex order, is
    formed and projected by ``Subspace.contains_columns``.  ``refused``
    holds the positions of the pairs it refuses, ``leaks`` the norm of each
    bracket's part outside the isotropy and ``sizes`` the bracket's norm."""
    first, second = pair_indices(isotropy.dim)
    hh = brackets(alg, isotropy.basis, isotropy.basis)[:, first, second]
    q = isotropy.onb()
    leaks = np.linalg.norm(hh - q @ (q.T @ hh), axis=0)
    return (np.flatnonzero(~isotropy.contains_columns(hh)), leaks,
            np.linalg.norm(hh, axis=0))


def ideal_by_svd(pres, report) -> tuple:
    """``(gD, g_prime)`` bases of the symmetry ideal of ``report`` on
    ``pres`` by factorizing its seed whatever its rank: the thin SVD of
    ``[h | p]``, the largest ideal inside it, and the kernel of its
    transpose times the reference form."""
    seed = np.hstack([pres.h_basis, report.p_space.basis])[None]
    (_, g_d), = invariant_subspaces(pres.algebra.ad_stack,
                                    stacked_frames(seed), pres.tol)
    q = reference_form(pres.algebra, pres.tol).gram
    kernel = stacked_kernels(g_d.swapaxes(-1, -2) @ q)[0]
    return g_d[0], kernel[0][:, g_d.shape[-1]:]


def quotients_by_space(metrics):
    """``(lam, s, t, space, report)`` of the points of verify's so4-so2
    checks, one space at a time: per slope one presentation, every metric
    made a space by ``pres.space`` before the first report, so a refused
    metric raises first, and per space ``transvection_space``."""
    for lam in verify._SLOPES:
        pres = catalog.spin4_quotient(catalog.so4_so2_complement(lam),
                                      DEFAULT_TOL)
        spaces = [pres.space(BilinearForm(catalog.so4_so2_gram(s, t)))
                  for s, t in metrics]
        for (s, t), sp in zip(metrics, spaces):
            yield lam, s, t, sp, transvection_space(sp)


def coupled_by_space():
    """The body of verify's so4-so2-coupled check on one report per space."""
    actual = {}
    for lam, s, _, _, rep in quotients_by_space(verify._COUPLED_METRICS):
        verify._require(rep.index == 2,
                        f"lam={lam}, s={s}: index {rep.index} != 2")
        verify._require(rep.coindex == 3,
                        f"lam={lam}, s={s}: coindex {rep.coindex} != 3")
        verify._require(rep.involutive_ok,
                        f"lam={lam}, s={s}: bracket relations of the "
                        f"parallel fields fail")
        actual[f"lam={lam},s={s}"] = rep.index
    return {"index": 2, "coindex": 3, "points": len(actual)}, actual


def uncoupled_by_space():
    """The body of verify's so4-so2-uncoupled-derivative-oracle check on
    one report, one Koszul derivative and one exponential chart per space."""
    worst = 0.0
    for lam, s, t, sp, rep in quotients_by_space(verify._UNCOUPLED_METRICS):
        verify._require(rep.index == 0,
                        f"lam={lam}, s={s}, t={t}: index {rep.index} != 0")
        gens = np.eye(sp.algebra.dim)
        chart = ExponentialChart(sp, sp.metric.gram)
        numeric = np.moveaxis(chart.nabla_killing_fd(gens), -1, 0)
        errs = np.abs(sp.nabla_at_base(gens) - numeric).max(axis=(1, 2))
        col = int(np.argmax(~(errs <= 1e-6)))  # first failing field, NaN too
        err, worst = errs[col], max(worst, *errs.tolist())
        verify._require(err <= 1e-6,
                        f"lam={lam}, s={s}, t={t}: derivative of field "
                        f"{col} disagrees with the finite difference oracle "
                        f"({err:.3e})")
    return ({"index": 0, "fd_tolerance": 1e-6},
            {"worst_fd_error": worst,
             "points": len(verify._SLOPES) * len(verify._UNCOUPLED_METRICS)})
