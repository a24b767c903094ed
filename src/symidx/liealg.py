"""Real Lie algebras presented by structure constants, with the numerics
used everywhere else in this package (SVD rank and kernel decisions,
invariant subspace closures, ad-invariant reference forms).

Bracket convention
------------------
Every structure tensor in this package stores the bracket of Killing
(right-invariant) vector fields.  When an algebra is generated from a
faithful matrix representation, that bracket is the *negative* of the
matrix commutator: for the quaternion model of spin(3) this gives
``bracket(j, i) = 2k`` even though the quaternion commutator ji - ij
is -2k.  Mixing the two conventions silently flips the sign of the
geodesic spray and of curvature terms, so :func:`matrix_algebra`
applies the flip itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

#: Default relative tolerance for every rank / kernel / residual decision.
#: The algebras handled here have dimension up to about 100 and structure
#: constants of order one; genuine zeros stay near 1e-13 even at that size,
#: so 1e-9 leaves several orders of headroom between them and genuine
#: nonzeros (~1).
DEFAULT_TOL = 1e-9

#: Residual ceiling for derived statements (containment, involutivity,
#: speed and geodesic preconditions); looser than DEFAULT_TOL because
#: these residuals accumulate a few matrix products.
CHECK_TOL = 1e-8

#: Smallest tolerance accepted, 64 units of roundoff: below, roundoff decides.
MIN_TOL = 64 * math.ulp(1.0)

#: Largest dimension of an algebra built from a dimension (an abelian
#: preset, an inline document) or from generators (:func:`matrix_algebra`),
#: refused before its structure tensor of 8 dim^3 bytes is asked for: 136 =
#: dim so(17), the algebra of the largest catalog sphere (19.2 MiB tensor).
MAX_ALGEBRA_DIM = 136

#: Most bytes of the work arrays of one block of a chunked loop, the
#: package's one budget, which each loop cuts by its own bytes per item in
#: :func:`_chunks`: the exact Jacobi sum, :func:`matrix_algebra`'s fit, the
#: stacked metric stages of ``homspace`` and the RK4 blocks of ``numcheck``.
#: The 190-point coupled sweep takes its derivatives in 5 chunks and its one
#: index group in one, at a traced peak of 629 KiB.
_STACK_BYTES = 3 * 2 ** 18


def _chunks(count: int, floats: int) -> list:
    """Slices that cut ``range(count)`` into the fewest parts, equal within
    one, of items taking ``floats`` 8-byte entries each and at most
    ``_STACK_BYTES`` together (one item at least)."""
    parts = -(-count // max(1, _STACK_BYTES // (8 * max(floats, 1))))
    return [slice(count * i // parts, count * (i + 1) // parts)
            for i in range(parts)]


# ---------------------------------------------------------------------------
# rank / kernel primitives
# ---------------------------------------------------------------------------

def checked_tol(tol) -> float:
    """``tol`` as a float, if it is in [MIN_TOL, 1), else ValueError: a
    cutoff of 1 or more drops every signal, one below MIN_TOL keeps noise."""
    tol = float(tol)
    if not MIN_TOL <= tol < 1.0:  # also false for nan
        raise ValueError(f"tolerance {tol!r} is not a number in [MIN_TOL, 1), "
                         f"MIN_TOL = {MIN_TOL:.3g}, below which roundoff "
                         f"decides ranks")
    return tol


def checked_dim(n: int) -> int:
    """``n``, if an algebra of that dimension may be built, else
    ``ValueError``: it is negative or above :data:`MAX_ALGEBRA_DIM`."""
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    if n > MAX_ALGEBRA_DIM:
        raise ValueError(f"algebra dimension must be at most MAX_ALGEBRA_DIM "
                         f"= {MAX_ALGEBRA_DIM}")
    return n


def _sv_cutoff(s: np.ndarray, tol: float) -> np.ndarray:
    # Relative cutoff with a unit floor: matrices in this package have O(1)
    # entries when they are nonzero at all, so the floor only engages for
    # matrices that are zero up to roundoff (where a purely relative cutoff
    # would misread noise singular values as full rank).  ``s`` holds the
    # descending singular values of a matrix, or of a stack of them along
    # the last axis, which the cutoffs keep with length one (none if empty).
    return tol * np.maximum(s[..., :1], 1.0)


def numerical_rank(a: np.ndarray, tol: float = DEFAULT_TOL):
    """Rank of ``a`` by singular values above a relative cutoff; for a
    stack (..., m, n), the array of the ranks of its matrices, by one SVD
    call."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    _refuse_non_finite("rank matrix", a)  # nan or inf would break the SVD
    s = np.linalg.svd(a, compute_uv=False)
    rank = (s > _sv_cutoff(s, tol)).sum(axis=-1)
    return int(rank) if a.ndim == 2 else rank


def stacked_kernels(a: np.ndarray, tol: float = DEFAULT_TOL) -> tuple:
    """The kernels of the matrices ``a`` (..., m, n) by one SVD call and the
    cutoff of :func:`numerical_kernel`: ``(v, nullity)``, where the last
    ``nullity[i]`` columns of ``v[i]`` (n, n) are an orthonormal basis of
    the kernel of ``a[i]``."""
    a = np.asarray(a, dtype=float)
    *lead, m, n = a.shape
    if m == 0 or n == 0:  # numpy's SVD gives the same, at ten times the cost
        return np.zeros((*lead, n, n)) + np.eye(n), np.full(lead, n)
    # The thin SVD already holds all n rows of V when m >= n; a wide matrix
    # needs the full one, whose rows past m span the rest of the kernel.
    _, s, vt = np.linalg.svd(a, full_matrices=m < n)
    return vt.swapaxes(-1, -2), n - (s > _sv_cutoff(s, tol)).sum(axis=-1)


def stacked_spans(a: np.ndarray, tol: float = DEFAULT_TOL) -> tuple:
    """The column spaces of the matrices ``a`` (..., m, k) by one SVD call:
    ``(u, rank, s)``, where the first ``rank[i]`` columns of ``u[i]`` are an
    orthonormal basis and ``s[i]`` holds the descending singular values."""
    a = np.asarray(a, dtype=float)
    if 0 in a.shape[-2:]:  # as in stacked_kernels
        return (np.zeros((*a.shape[:-1], 0)), np.zeros(a.shape[:-2], np.intp),
                np.zeros((*a.shape[:-2], 0)))
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u, (s > _sv_cutoff(s, tol)).sum(axis=-1), s


def stacked_frames(a: np.ndarray) -> np.ndarray:
    """The Q factors of one reduced QR of the matrices ``a`` (..., m, k): an
    orthonormal basis of each column space where the caller proves rank k,
    which decides nothing and so takes no SVD."""
    return np.linalg.qr(a)[0] if a.shape[-1] else a


def stacked_contains(q: np.ndarray, vecs: np.ndarray) -> tuple:
    """Whether each vector of ``vecs`` lies in the span of the orthonormal
    columns of ``q`` (..., n, r) up to relative residual :data:`CHECK_TOL`,
    all in one projection.  The axis of ``vecs`` after the stack axes of
    ``q`` holds the coordinates; the result ``(inside, leaks)`` has one
    entry per vector, flattened to shape (..., m), and ``leaks`` holds the
    squared norms of the residuals.  A vector whose squared norm overflows
    is decided by the same rule in a power-of-two unit of itself."""
    flat = vecs.reshape(*q.shape[:-1], math.prod(vecs.shape[q.ndim - 1:]))
    with np.errstate(over="ignore", invalid="ignore"):  # decided below
        leaks, norms = _leaks_and_norms(q, flat)
        inside = leaks <= CHECK_TOL * CHECK_TOL * np.maximum(1.0, norms)
        huge = np.isinf(norms)
        if huge.any():  # |v|^2 > 1: the rule is |r| <= CHECK_TOL |v|
            unit = np.exp2(-np.frexp(np.abs(flat).max(axis=-2))[1])
            small, size = _leaks_and_norms(q, flat * unit[..., None, :])
            inside[huge] = (small <= CHECK_TOL * CHECK_TOL * size)[huge]
    return inside, leaks


def _leaks_and_norms(q: np.ndarray, flat: np.ndarray) -> tuple:
    """Squared norms of each column's residual off ``q``, and of the column."""
    resid = q @ (q.swapaxes(-1, -2) @ flat)
    np.subtract(flat, resid, out=resid)
    resid *= resid  # squared norms on both sides
    return resid.sum(axis=-2), (flat * flat).sum(axis=-2)


def equal_groups(keys) -> list:
    """``(key, index)`` for each distinct integer of ``keys``, ascending:
    the groups of a ragged stack that one stacked call decides together.
    ``index`` is the array of the group's positions along the first axis."""
    keys = np.asarray(keys)
    return [(key, np.flatnonzero(keys == key))
            for key in sorted(set(keys.tolist()))]


def numerical_kernel(a: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the null space of the matrix ``a``
    (m, n) at the relative singular value cutoff ``tol``; an empty or
    all-zero matrix has the full space as kernel."""
    a = np.atleast_2d(a)
    _refuse_non_finite("kernel matrix", a)
    v, nullity = stacked_kernels(a, tol)
    return v[:, a.shape[1] - nullity:]


def canonical_basis(q: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The orthonormal basis of the span of the orthonormal columns ``q``
    that the span alone determines, with entries below ``tol`` set to 0.0.

    Pivot rows go greedily by largest residual row norm (the lowest row
    wins norms within ``tol`` of the largest), which depends only on the
    projector; the basis is the Q factor, with positive R diagonal, of the
    projector's columns at the sorted pivots, less their noise.
    """
    n, k = q.shape
    if k == 0:
        return np.zeros((n, 0))
    if k == n:
        return np.eye(n)
    resid = np.array(q, dtype=float)
    pivots = []
    for step in range(k):
        norms = (resid * resid).sum(axis=1)
        j = int(np.argmax(norms >= norms.max() - tol))
        pivots.append(j)
        if step < k - 1:  # no deflation after the last pivot
            r = resid[j] / math.sqrt(norms[j])
            resid -= np.outer(resid @ r, r)
    pivots.sort()
    cols = q @ q[pivots].T
    cols[np.abs(cols) < tol] = 0.0  # else noise moves the Q factor's last bits
    basis, tri = np.linalg.qr(cols)
    basis *= np.sign(np.diag(tri))
    basis[np.abs(basis) < tol] = 0.0
    return basis


def eigenvalue_clusters(w: np.ndarray, tol: float) -> list[slice]:
    """Runs of the ascending eigenvalues ``w`` in which each eigenvalue is
    within ``tol`` of the one before, as slices."""
    edges = [0, *(np.flatnonzero(np.diff(w) > tol) + 1), len(w)]
    return [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]


def pencil_eigh(a: np.ndarray, b: np.ndarray,
                tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and ``b``-orthonormal eigenvectors of the
    symmetric pencil ``a v = w b v``, ``b`` positive definite, whitened by
    the Cholesky factor of ``b``; each of the :func:`eigenvalue_clusters`
    gets the :func:`canonical_basis` of its whitened eigenspace."""
    white = np.linalg.inv(np.linalg.cholesky(b))
    w, u = np.linalg.eigh(white @ a @ white.T)
    for cluster in eigenvalue_clusters(w, tol):
        u[:, cluster] = canonical_basis(u[:, cluster], tol)
    return w, white.T @ u + 0.0  # + 0.0 turns -0.0 into 0.0


@functools.cache
def pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays ``(first, second)`` of the pairs ``first < second < n``
    in colex order (by ``second``, then ``first``), cached and read-only."""
    second, first = np.nonzero(np.tri(n, k=-1, dtype=bool))
    first.flags.writeable = second.flags.writeable = False
    return first, second


def _real(what: str, a) -> np.ndarray:
    """``a`` as a float array, refused by name if it is complex, even with no
    imaginary part (not cut to its real part with a ComplexWarning)."""
    a = np.asarray(a)
    if np.iscomplexobj(a):
        raise ValueError(f"{what} has complex entries ({a.dtype}), not real "
                         f"numbers")
    return np.asarray(a, dtype=float)


def _refuse_non_finite(what: str, a: np.ndarray):
    """ValueError naming the first entry of ``a`` that is not finite, if any."""
    finite = np.isfinite(a)
    if not finite.all():
        bad = np.argwhere(~finite)[0].tolist()
        raise ValueError(f"{what} entry {bad} is {a[tuple(bad)]}, "
                         f"not a finite number")


def _coordinates(what: str, x, n: int, of: str, ndim: int = 1) -> np.ndarray:
    """``x`` as floats, refused by name unless it is finite real numbers in
    1 to ``ndim`` axes, the first of ``n``, the dimension of the ``of``."""
    x = _real(what, x)
    if not 0 < x.ndim <= ndim or len(x) != n:
        raise ValueError(f"{what} has shape {x.shape}, the {of} dimension is "
                         f"{n}")
    _refuse_non_finite(what, x)
    return x


# ---------------------------------------------------------------------------
# core types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Subspace:
    """A linear subspace of R^ambient_dim spanned by the columns of ``basis``.

    The basis is required to have full column rank, decided by its
    singular values alone (:func:`numerical_rank`); :meth:`onb` takes the
    thin SVD's U factor when it is first read.  Use
    :meth:`Subspace.from_spanning` to build a subspace from a possibly
    redundant spanning set, and :meth:`Subspace.kernel_of` for a null
    space; these two have orthonormal bases, which serve as :meth:`onb`.
    ``==`` and ``hash`` go by identity; compare subspaces with
    :meth:`equals`.
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        b = np.atleast_2d(_real("basis", self.basis))
        if b.shape[0] != self.ambient_dim:
            raise ValueError(
                f"basis rows ({b.shape[0]}) do not match ambient_dim "
                f"({self.ambient_dim})"
            )
        object.__setattr__(self, "basis", b)
        _refuse_non_finite("basis", b)  # before an SVD that nan or inf breaks
        rank = numerical_rank(b)
        if rank < b.shape[1]:
            raise ValueError(
                f"basis of shape {b.shape} is rank deficient (rank {rank})")

    @functools.cached_property
    def _onb(self) -> np.ndarray:
        u = stacked_spans(self.basis)[0]
        u.flags.writeable = False
        return u

    @classmethod
    def _orthonormal(cls, ambient_dim: int, q: np.ndarray) -> "Subspace":
        # q, orthonormal float columns, is its own onb and has full rank; a
        # row count that does not match is left for __post_init__ to report
        if q.shape[0] != ambient_dim:
            return cls(ambient_dim, q)
        sub = cls.__new__(cls)
        q.flags.writeable = False
        sub.__dict__.update(ambient_dim=ambient_dim, basis=q, _onb=q)
        return sub

    @classmethod
    def from_spanning(cls, ambient_dim: int, vectors: np.ndarray,
                      tol: float = DEFAULT_TOL) -> "Subspace":
        """Subspace spanned by the columns of ``vectors`` (may be dependent)."""
        vectors = np.atleast_2d(_real("spanning set", vectors))
        if vectors.size == 0:
            return cls.zero(ambient_dim)
        _refuse_non_finite("spanning set", vectors)
        u, rank, _ = stacked_spans(vectors, tol)
        return cls._orthonormal(ambient_dim, u[:, :rank])

    @classmethod
    def kernel_of(cls, a: np.ndarray, tol: float = DEFAULT_TOL) -> "Subspace":
        """Null space of the matrix ``a``, a subspace of R^(columns of a)."""
        a = np.atleast_2d(_real("kernel matrix", a))
        return cls._orthonormal(a.shape[1], numerical_kernel(a, tol))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls._orthonormal(ambient_dim, np.zeros((ambient_dim, 0)))

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def onb(self) -> np.ndarray:
        """Orthonormal basis (formed when first read, read-only)."""
        return self._onb

    def contains_columns(self, vecs: np.ndarray) -> np.ndarray:
        """Whether each vector of ``vecs`` lies in the subspace up to
        relative residual :data:`CHECK_TOL`, all in one projection.

        The first axis of ``vecs``, finite real numbers, holds the
        coordinates; the result has the shape of the remaining axes.
        """
        vecs = _coordinates("vecs", vecs, self.ambient_dim, "ambient",
                            np.ndim(vecs))
        return stacked_contains(self.onb(), vecs)[0].reshape(vecs.shape[1:])

    def contains(self, vec: np.ndarray) -> bool:
        """Whether ``vec`` lies in the subspace (see :meth:`contains_columns`)."""
        return bool(self.contains_columns(vec))

    def equals(self, other: "Subspace") -> bool:
        """Subspace equality (same dimension and mutual containment)."""
        return bool(self.dim == other.dim
                    and self.contains_columns(other.basis).all()
                    and other.contains_columns(self.basis).all())


@dataclass(frozen=True, eq=False)
class BilinearForm:
    """A symmetric bilinear form given by its Gram matrix, of any
    signature; a space decides whether its metric is positive definite."""

    gram: np.ndarray

    def __post_init__(self):
        g = np.atleast_2d(_real("gram matrix", self.gram))
        if g.shape[0] != g.shape[1]:
            raise ValueError(f"gram matrix must be square, got {g.shape}")
        _refuse_non_finite("gram matrix", g)
        half = 0.5 * g  # no sum or difference of two halves overflows
        asym = 2.0 * float(np.max(np.abs(half - half.T))) if g.size else 0.0
        if asym > DEFAULT_TOL * max(1.0, float(np.max(np.abs(g))) if g.size else 1.0):
            raise ValueError(f"gram matrix is not symmetric (residual {asym:.3e})")
        object.__setattr__(self, "gram", half + half.T)

    @property
    def dim(self) -> int:
        return self.gram.shape[0]


@dataclass(frozen=True, eq=False)
class LieAlgebra:
    """A finite-dimensional real Lie algebra with fixed basis.

    Attributes
    ----------
    dim : int
        Dimension.
    basis_labels : tuple of str
        Human-readable names of the basis vectors.
    structure : ndarray, shape (dim, dim, dim)
        ``bracket(e_i, e_j) = sum_k structure[i, j, k] e_k`` in the Killing
        field convention (see module docstring).

    Antisymmetry and the Jacobi identity are validated at construction
    with absolute residual tolerance :data:`DEFAULT_TOL`, the latter by the
    exact sum of :meth:`jacobi_residual` over the triples i < j < k, about
    dim^5 / 2 multiply-adds in the tensor and the byte budget
    ``_STACK_BYTES``, unless a certified bound on it is that small.
    Only :func:`matrix_algebra` certifies, and a certified tensor is
    read-only; this constructor and copies run the sum, and keep it as the
    bound.  Facts that depend on the algebra alone, its ad stack, its
    reference forms and its norm, are computed once per instance and shared
    by every space built on it.
    """

    dim: int
    basis_labels: tuple
    structure: np.ndarray

    #: Bound on the norm of [e_i, [e_j, e_k]] + cyclic for all i, j, k, set
    #: by _certified or the constructor; inf unless exactly antisymmetric
    _jacobi_bound = None

    @classmethod
    def _certified(cls, labels: tuple, structure: np.ndarray,
                   bound: float) -> "LieAlgebra":
        # ``bound`` bounds the exact Jacobi sum of ``structure``, which is
        # made read-only; __post_init__ sees the bound before it validates
        alg = cls.__new__(cls)
        structure.flags.writeable = False
        alg.__dict__["_jacobi_bound"] = bound
        alg.__init__(len(labels), labels, structure)
        return alg

    def __post_init__(self):
        c = _real("structure tensor", self.structure)
        n = self.dim
        if c.shape != (n, n, n):
            raise ValueError(f"structure tensor shape {c.shape} != {(n, n, n)}")
        labels = tuple(str(x) for x in self.basis_labels)
        if len(labels) != n:
            raise ValueError(f"{len(labels)} labels for dimension {n}")
        object.__setattr__(self, "structure", c)
        object.__setattr__(self, "basis_labels", labels)
        with np.errstate(over="ignore", invalid="ignore"):  # inf, nan kept
            self.__dict__["_norm"] = float(np.linalg.norm(c))  # >= |ad_x| / |x|
        with np.errstate(over="ignore"):  # an infinite residual is refused
            asym = c + c.transpose(1, 0, 2)
        asym = float(np.max(np.abs(asym, out=asym))) if n else 0.0
        if not asym <= DEFAULT_TOL:  # nan where an entry is not finite
            _refuse_non_finite("structure tensor", c)
            raise ValueError(f"structure tensor is not antisymmetric "
                             f"(residual {asym:.3e})")
        if self._jacobi_bound is None or not self._jacobi_bound <= DEFAULT_TOL:
            jac = self.jacobi_residual()
            if not jac <= DEFAULT_TOL:
                raise ValueError(
                    f"structure tensor violates the Jacobi identity (residual "
                    f"{jac:.3e})" if math.isfinite(jac) else "the Jacobi sum "
                    "of the structure tensor overflows; rescale the tensor")
            # an entry of the sum rounds by at most 3 (n + 2) u n max|c|^2
            big = float(c.max(initial=0.0))  # max |c| where c is antisymmetric
            self.__dict__["_jacobi_bound"] = math.sqrt(n) * (
                jac + 1.5 * (n + 2) * n * math.ulp(1.0) * big * big)
        if asym:  # the sum was of the antisymmetric part
            self.__dict__["_jacobi_bound"] = math.inf

    @np.errstate(over="ignore", invalid="ignore")  # inf or nan returned
    def jacobi_residual(self) -> float:
        """Max-norm of ``[[e_i, e_j], e_k] + cyclic`` over i < j < k for the
        antisymmetric part a = (c - c.transpose(1, 0, 2)) / 2 of the tensor
        c.  The constructor's antisymmetry check runs first and bounds c - a
        by DEFAULT_TOL; a is c on every catalog, matrix-built and emitted
        algebra.  The sum is Q[ij, k] + Q[jk, i] + Q[ki, j], where Q[pq, z]
        = [[e_p, e_q], e_z] comes from BLAS products of views of 2a: about
        dim^5 / 2 multiply-adds, and past 2a at most ``_STACK_BYTES`` for a
        block of middle indices j and of k cut by :func:`_chunks` (one j and
        one k at least); overflow gives inf or nan.  A block of several j,
        on small algebras, takes the box i < j1 - 1, j0 < k of them, which
        also holds other orders of some triples: the sum alternates, so its
        max is the same up to rounding."""
        n = self.dim
        a = self.structure - self.structure.transpose(1, 0, 2)  # 2a
        flat = a.reshape(n, n * n)  # a[p, q] @ flat[:, zn:zn + n] is 4 Q[pq, z]
        worst = 0.0
        # a j is charged 3 n^3 floats, more than any box of all its k takes,
        # which keeps the boxes of small algebras small
        for js in _chunks(max(n - 2, 0), 3 * n ** 3):  # j0 <= j < j1
            j0, j1 = js.start + 1, js.stop + 1
            i1, nj = j1 - 1, j1 - j0
            for ks in _chunks(n - j0 - 1, 2 * nj * i1 * n):  # k0 <= k < k1
                k0, k1 = ks.start + j0 + 1, ks.stop + j0 + 1
                jac = (a[k0:k1, :i1] @ flat[:, j0 * n:j1 * n]).reshape(
                    k1 - k0, i1, nj, n)  # 4 Q[ki, j] at [k, i, j]
                jac += (a[j0:j1, k0:k1] @ flat[:, :i1 * n]).reshape(
                    nj, k1 - k0, i1, n).transpose(1, 2, 0, 3)  # 4 Q[jk, i]
                jac -= (a[j0:j1, :i1] @ flat[:, k0 * n:k1 * n]).reshape(
                    nj, i1, k1 - k0, n).transpose(2, 1, 0, 3)  # 4 Q[ji, k]
                worst = np.maximum(worst, np.abs(jac, out=jac).max())
        return float(worst) / 4  # the sum is quadratic in 2a

    @functools.cached_property
    def ad_stack(self) -> np.ndarray:
        """``adjoints(self, eye(dim))``: slice ``[i]`` is the ad matrix of
        basis vector ``i``.  It is ``structure.swapaxes(1, 2)``, a read-only
        view that shares the tensor's memory and copies nothing."""
        ads = self.structure.swapaxes(1, 2)
        ads.flags.writeable = False
        return ads


# ---------------------------------------------------------------------------
# algebra operations
# ---------------------------------------------------------------------------

def bracket(alg: LieAlgebra, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bracket of two coefficient vectors, or column by column of two
    (dim, k) arrays."""
    return np.einsum("i...,j...,ijk->k...", np.asarray(x, float),
                     np.asarray(y, float), alg.structure)


def brackets(alg: LieAlgebra, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All pairwise brackets of the columns of ``a`` and ``b``.

    Returns an array of shape (dim, ka, kb) whose slice ``[:, p, q]`` is
    ``bracket(alg, a[:, p], b[:, q])`` up to rounding, from two matrix
    products; leading (stack) axes of ``a`` and ``b`` lead the result.
    """
    b = np.asarray(b, float)
    return (adjoints(alg, a) @ b[..., None, :, :]).swapaxes(-2, -3)


def adjoints(alg: LieAlgebra, gens: np.ndarray) -> np.ndarray:
    """Shape (k, dim, dim): slice ``[p]`` is the matrix of
    ``ad_x = bracket(x, .)`` for ``x = gens[:, p]``, acting on coefficient
    vectors (one matrix product for all columns); leading (stack) axes of
    ``gens`` lead the result."""
    gens = np.asarray(gens, float)
    n = len(alg.structure)
    left = gens.swapaxes(-1, -2) @ alg.structure.reshape(n, n * n)
    return left.reshape(*left.shape[:-1], n, n).swapaxes(-1, -2)


def killing_form_positive(alg: LieAlgebra) -> BilinearForm:
    """The sign-flipped Killing form B(x, y) = -trace(ad_x ad_y).

    Positive definite exactly when the algebra is of compact type; in the
    quaternion model of spin(3) this gives B(i, i) = 8.
    """
    c, n = alg.structure, alg.dim
    # sum over (m, k) of c[i, m, k] c[j, k, m], as one matrix product
    return BilinearForm(-(c.reshape(n, n * n)
                          @ c.swapaxes(1, 2).reshape(n, n * n).T))


def derived_subalgebra(alg: LieAlgebra, tol: float = DEFAULT_TOL) -> Subspace:
    """Span of all brackets of basis vectors."""
    cols = alg.structure.reshape(alg.dim * alg.dim, alg.dim).T
    return Subspace.from_spanning(alg.dim, cols, tol)


def reference_form(alg: LieAlgebra, tol: float = DEFAULT_TOL) -> BilinearForm:
    """An ad-invariant positive form: B extended on the kernel of B.

    For compact-type algebras the kernel of B is the center.  The extension
    takes Euclidean coordinates along the kernel in the splitting
    ``g = ker(B) + [g, g]``; ad-images lie in the derived part and carry no
    kernel component, which keeps the extension ad-invariant.  Raises if
    the two pieces do not span (the algebra is then not of the compact plus
    abelian kind this package handles, such as the Heisenberg algebra).
    ``homspace.symmetry_ideals`` reads it only to split a proper symmetry
    ideal off the algebra, so such an algebra is refused there alone, and
    :func:`orthogonal_complement` reads it for a space given no complement.

    Computed once per algebra and ``tol``; the Gram matrix is read-only.
    """
    forms = vars(alg).setdefault("_reference_forms", {})
    if tol in forms:
        return forms[tol]
    form = killing_form_positive(alg)
    z = Subspace.kernel_of(form.gram, tol)
    if z.dim:
        t = np.hstack([z.basis, derived_subalgebra(alg, tol).basis])
        if t.shape[1] != alg.dim or numerical_rank(t, tol) != alg.dim:
            raise ValueError("kernel of B and derived subalgebra do not split the algebra")
        proj_z = np.linalg.inv(t)[: z.dim, :]
        form = BilinearForm(form.gram + proj_z.T @ proj_z)
    form.gram.flags.writeable = False
    forms[tol] = form
    return form


def orthogonal_complement(alg: LieAlgebra, sub: Subspace,
                          tol: float = DEFAULT_TOL) -> Subspace:
    """Complement, of dimension n - dim ``sub``, of ``sub`` orthogonal for
    the nondegenerate ad-invariant :func:`reference_form`."""
    v = stacked_kernels(sub.basis.T @ reference_form(alg, tol).gram)[0]
    return Subspace._orthonormal(alg.dim, v[:, sub.dim:])


def direct_sum(a: LieAlgebra, b: LieAlgebra) -> LieAlgebra:
    """Direct sum of two algebras; labels get ``@0`` / ``@1`` suffixes."""
    n, m = a.dim, b.dim
    c = np.zeros((n + m, n + m, n + m))
    c[:n, :n, :n] = a.structure
    c[n:, n:, n:] = b.structure
    labels = tuple(f"{lab}@0" for lab in a.basis_labels) + tuple(
        f"{lab}@1" for lab in b.basis_labels)
    return LieAlgebra(n + m, labels, c)


def _flatten_real(mats: np.ndarray) -> np.ndarray:
    """Each matrix flattened to a real row vector (complex parts stacked)."""
    flat = mats.reshape(mats.shape[0], mats.shape[1] * mats.shape[2])
    if np.iscomplexobj(flat):
        return np.hstack([flat.real, flat.imag])
    return np.asarray(flat, dtype=float)


def matrix_algebra(matrices, labels=None, tol: float = DEFAULT_TOL):
    """Structure constants of the algebra spanned by ``matrices``.

    The returned structure tensor is in the Killing field convention,
    i.e. computed from minus the matrix commutator.  The matrices
    themselves are returned unchanged as the representation, so flows of
    Killing fields exponentiate through them directly.

    Parameters
    ----------
    matrices : sequence of (d, d) arrays
        Linearly independent generators, real or complex.
    labels : sequence of str, optional
        Basis labels, default ``m0 .. m{n-1}``.
    tol : float
        Relative tolerance for independence and closure decisions.

    Returns
    -------
    (LieAlgebra, ndarray)
        The algebra, certified by :func:`_fit_jacobi_bound` and read-only,
        and the stacked representation matrices.

    Raises
    ------
    ValueError
        If there are more than :data:`MAX_ALGEBRA_DIM` matrices or they are
        dependent, or if some commutator leaves the span or overflows; the
        error names the first such pair (colex order) and residual.
    """
    mats = np.asarray(matrices)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {mats.shape}")
    n = checked_dim(mats.shape[0])  # before the SVD and the n^3 tensor
    if n == 0:  # no generators span the zero algebra
        return abelian(0)[0], mats
    if labels is None:
        labels = tuple(f"m{k}" for k in range(n))
    _refuse_non_finite("generator", mats)  # else the SVD fails or hangs
    flat = _flatten_real(mats)
    # one thin SVD gives the rank decision of numerical_rank, the sigma_min
    # of the certificate and the least-squares fit by (flat^T)^+ = u s^-1 vt
    u, sv, vt = np.linalg.svd(flat, full_matrices=False)
    if np.sum(sv > _sv_cutoff(sv, tol)) < n:
        raise ValueError("generating matrices are linearly dependent")
    scale = max(1.0, float(np.max(np.abs(flat))))
    # The fit runs in units of 4^e >= scale^2, a power of two, so that no
    # square of a commutator's norm overflows; the unit changes no bit.
    unit = 0.25 ** math.frexp(scale)[1]
    first, second = pair_indices(n)
    coeffs, u = np.empty((n, len(first))), u / sv
    resids, ceiling = np.empty((2, len(first)))
    # by blocks of pairs: the commutators, a copy if complex, their fit
    for part in _chunks(len(first), 3 * flat.shape[1] + n):
        rhs = _flatten_real(_killing_commutators(mats, part)).T
        rhs *= unit
        fit = flat.T @ np.matmul(u, vt @ rhs, out=coeffs[:, part])
        fit -= rhs  # residuals of the coefficients as stored
        fit *= fit  # squared in place: np.linalg.norm's column sums, no copy
        rhs *= rhs
        resids[part] = np.sqrt(fit.sum(axis=0))
        ceiling[part] = tol * np.maximum(scale * unit, np.sqrt(rhs.sum(axis=0)))
        del rhs, fit  # the largest arrays, freed before the next block's
    bad = np.flatnonzero(~(resids <= ceiling))  # nan where a bracket overflows
    coeffs /= unit
    resids /= unit
    if bad.size:
        p = bad[0]
        pair = f"bracket of {labels[first[p]]} and {labels[second[p]]}"
        if not math.isfinite(resids[p]):
            raise ValueError(f"{pair} has residual {resids[p]}, not a finite "
                             f"number; rescale the generators")
        raise ValueError(f"{pair} leaves the span (residual {resids[p]:.3e}); "
                         f"not a Lie algebra basis")
    bound = _fit_jacobi_bound(flat, sv, coeffs, resids, first, second,
                              mats.shape[1])
    structure = np.zeros((n, n, n))
    structure[first, second] = coeffs.T
    structure[second, first] = 0.0 - coeffs.T  # no -0.0
    del coeffs  # freed before the constructor's antisymmetry check
    return LieAlgebra._certified(tuple(labels), structure, bound), mats


def _killing_commutators(mats, pairs: slice) -> np.ndarray:
    """Minus the commutators [M_i, M_j] of the colex pairs i < j of the
    slice ``pairs``, in place.  The pairs that end in j are contiguous, so
    one broadcast product per j forms them from views of ``mats``: no
    generator is gathered, and past the result only a stack of j products
    is allocated at a time, for the j of pairs ``lo`` to ``hi - 1`` only."""
    lo, hi = pairs.start, pairs.stop
    comms = np.empty((hi - lo, *mats.shape[1:]), dtype=mats.dtype)
    ends = [(1 + math.isqrt(8 * p + 1)) // 2 for p in (lo, hi - 1)]
    for j in range(ends[0], ends[1] + 1):
        t = j * (j - 1) // 2  # the pairs t <= p < t + j end in j
        p0, p1 = max(t, lo), min(t + j, hi)
        out = np.matmul(mats[p0 - t:p1 - t], mats[j],
                        out=comms[p0 - lo:p1 - lo])
        out -= mats[j] @ mats[p0 - t:p1 - t]
        np.negative(out, out=out)
    return comms


def _fit_jacobi_bound(flat, sv, coeffs, resids, first, second, d) -> float:
    """Upper bound on the Jacobi sum of the tensor that matrix_algebra
    fits to the d x d generators ``flat`` (singular values ``sv``), from
    its coefficients and computed residual norms per pair.

    With rho(x) = sum_a x_a M_a and exact residuals rho(c_ij) + [M_i, M_j]
    = R_ij, the Jacobi identity of commutators leaves rho(J_ijk) =
    sum_cyc ([M_k, R_ij] + sum_a c_ij^a R_ak), so |J_ijk| <= 3 r (2 m + c1)
    / sigma_min: r the largest ||R_ij||_F, m the largest ||M_k||_F, c1 the
    largest sum_a |c_ij^a|.  r adds to the computed residuals Higham's
    gamma_k = k u rounding bounds of the fit and commutator products, and
    sigma_min gives up the rounding of the SVD.
    """
    n, width = flat.shape
    u = np.finfo(float).eps / 2.0  # unit roundoff
    norms = np.linalg.norm(flat, axis=1)
    rounding = ((n + 2) * u * np.linalg.norm(flat)
                * np.linalg.norm(coeffs, axis=0)
                + (3 * d + 10) * u * norms[first] * norms[second])
    r = np.max(resids * (1.0 + (width + 2) * u) + rounding, initial=0.0)
    c1 = np.max(np.abs(coeffs).sum(axis=0), initial=0.0)
    sigma = sv[-1] - (n + width) * u * sv[0]
    if sigma <= 0.0:
        return math.inf
    return float(3.0 * r * (2.0 * norms.max() + c1) / sigma)


def largest_invariant_subspace(alg: LieAlgebra, generators: np.ndarray,
                               seed: Subspace, tol: float = DEFAULT_TOL) -> Subspace:
    """Largest subspace of ``seed`` invariant under ad of all ``generators``
    (columns in algebra coordinates); with ``eye(dim)`` as the generators
    it is the largest ideal inside ``seed``.  The one-seed case of
    :func:`invariant_subspaces`.
    """
    gens = np.atleast_2d(np.asarray(generators, dtype=float))
    if gens.shape[0] != alg.dim:
        raise ValueError("generators must be given as columns in algebra "
                         "coordinates")
    (_, w), = invariant_subspaces(adjoints(alg, gens), seed.onb()[None], tol)
    return Subspace._orthonormal(alg.dim, w[0])


def invariant_subspaces(ads: np.ndarray, seeds: np.ndarray,
                        tol: float) -> list:
    """For each orthonormal basis of the stack ``seeds`` (N, n, r), an
    orthonormal basis of the largest subspace of its span that every
    matrix of ``ads`` (K, n, n) maps into itself.

    Iterates ``W <- W K`` for an orthonormal basis K of the kernel of
    :func:`stacked_leaks`, ``{x in W : ad x in W for every ad}``, which
    keeps W orthonormal, until the dimension stops falling; each productive
    pass drops it, so a seed of dimension r takes at most r + 1 passes.
    Each pass takes one kernel call per group of equal dimension and
    re-splits the stack by the new dimension.  Returns ``(rows, bases)``
    pairs, one per group: the bases (len(rows), n, d) of ``seeds[rows]``.
    """
    work, out = [(np.arange(len(seeds)), seeds)], []
    while work:
        rows, w = work.pop()
        r = w.shape[-1]
        if r in (0, w.shape[-2]):  # zero and the whole space are invariant
            out.append((rows, w))
            continue
        v, nullity = stacked_kernels(
            stacked_leaks(ads, w).reshape(len(w), -1, r), tol)
        for k, sub in equal_groups(nullity):
            if k == r:
                out.append((rows[sub], w[sub]))
                continue
            work.append((rows[sub], w[sub] @ v[sub, :, r - k:]))
    return out


def stacked_leaks(ads: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``ad W - W (W^T ad W)`` for each matrix ad of ``ads`` (K, n, n) and
    each orthonormal basis W of ``w`` (N, n, r): what ad maps out of the
    span of W, shape (N, K, n, r)."""
    ad_w = ads @ w[:, None]
    ad_w -= w[:, None] @ (w[:, None].swapaxes(-1, -2) @ ad_w)
    return ad_w


def bi_invariant_directions(alg: LieAlgebra, form, tol: float = DEFAULT_TOL) -> Subspace:
    """Directions x with ad_x skew for the given inner product on the algebra.

    These are exactly the left-invariant fields that are Killing for the
    metric whose Gram matrix (in algebra coordinates) is ``form``.

    Parameters
    ----------
    alg : LieAlgebra
    form : BilinearForm or ndarray
        Positive inner product on the algebra, in basis coordinates.
    """
    g = form.gram if isinstance(form, BilinearForm) else np.asarray(form, dtype=float)
    g = np.ldexp(g, -np.frexp(np.abs(g).max(initial=0.0))[1])  # the kernel is linear in g
    c = alg.structure
    # rows indexed by pairs (b, c), unknowns indexed by a:
    #   g(bracket(e_a, e_b), e_c) + g(e_b, bracket(e_a, e_c)) = 0
    m = (np.einsum("abk,kc->bca", c, g) + np.einsum("ack,bk->bca", c, g))
    m = m.reshape(alg.dim * alg.dim, alg.dim)
    return Subspace.kernel_of(m, tol)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

@functools.cache
def so_elementary(n: int):
    """so(n) on the elementary skew basis E_ab = e_a e_b^T - e_b e_a^T, a < b.

    Returns (LieAlgebra, representation).  Labels are ``E{a}{b}`` with
    1-based indices in lexicographic order.  Built once per n and process;
    the structure tensor and the representation are read-only.  The cache
    keeps the tensor, 8 dim^3 bytes for dim = n(n-1)/2, of every n built:
    0.73 MB for so(10), 20 MB for so(17).
    """
    if n < 2:
        raise ValueError("so(n) needs n >= 2")
    checked_dim(n * (n - 1) // 2)  # before the generators are built
    first, second = np.triu_indices(n, 1)
    mats = np.zeros((len(first), n, n))
    mats[np.arange(len(first)), first, second] = 1.0
    labels = tuple(f"E{a}{b}" for a, b in zip(first + 1, second + 1))
    alg, rep = matrix_algebra(mats - mats.swapaxes(1, 2), labels)
    rep.flags.writeable = False
    return alg, rep


# product table of unit quaternions: _QUAT_MUL[a][b] = (sign, index of a*b)
_QUAT_MUL = {
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
    (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
    (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
}


def quaternion_left_multiplication(idx: int) -> np.ndarray:
    """4x4 matrix of left multiplication by the basis quaternion ``idx``."""
    m = np.zeros((4, 4))
    for b in range(4):
        sign, out = _QUAT_MUL[(idx, b)]
        m[out, b] = sign
    return m


def quaternion_right_multiplication(idx: int) -> np.ndarray:
    """4x4 matrix of right multiplication by the basis quaternion ``idx``."""
    m = np.zeros((4, 4))
    for b in range(4):
        sign, out = _QUAT_MUL[(b, idx)]
        m[out, b] = sign
    return m


@functools.cache
def spin3_quaternion():
    """spin(3) = Im(H) with basis (i, j, k) acting by left multiplication.

    The Killing convention makes ``bracket(j, i) = 2k`` (the flow of the
    Killing field of j is left translation by exp(tj), and such fields
    bracket to minus the quaternion commutator).  Built once per process;
    the structure tensor and the representation are read-only.
    """
    mats = np.array([quaternion_left_multiplication(q) for q in (1, 2, 3)])
    alg, rep = matrix_algebra(mats, ("i", "j", "k"))
    rep.flags.writeable = False
    return alg, rep


@functools.cache
def su3():
    """su(3) on the anti-Hermitian Gell-Mann basis i*lambda_1 .. i*lambda_8.

    Built once per process (4 KiB retained); the structure tensor and the
    complex representation are read-only."""
    s3 = 1.0 / np.sqrt(3.0)
    lam = [
        [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
        [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]],
        [[1, 0, 0], [0, -1, 0], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
        [[0, 0, -1j], [0, 0, 0], [1j, 0, 0]],
        [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
        [[0, 0, 0], [0, 0, -1j], [0, 1j, 0]],
        [[s3, 0, 0], [0, s3, 0], [0, 0, -2 * s3]],
    ]
    mats = 1j * np.array(lam, dtype=complex)
    alg, rep = matrix_algebra(mats, tuple(f"u{k}" for k in range(1, 9)))
    rep.flags.writeable = False
    return alg, rep


def abelian(n: int):
    """The abelian algebra R^n (zero structure tensor, no representation),
    0 <= n <= MAX_ALGEBRA_DIM."""
    labels = tuple(f"a{k + 1}" for k in range(checked_dim(n)))
    return LieAlgebra(n, labels, np.zeros((n, n, n))), None


def preset(name: str):
    """Named algebra presets.

    ``so3``, ``so4`` (elementary skew bases), ``spin3_quat`` (quaternion
    model), ``su3``, and ``abelian:<n>`` for 0 <= n <= MAX_ALGEBRA_DIM.
    Returns (LieAlgebra, representation or None); an unknown or malformed
    name raises ``ValueError``.  All but ``abelian:<n>``, which is built on
    each call, are built once per process and shared read-only.
    """
    if name == "so3":
        return so_elementary(3)
    if name == "so4":
        return so_elementary(4)
    if name == "spin3_quat":
        return spin3_quaternion()
    if name == "su3":
        return su3()
    if name.startswith("abelian:"):
        try:
            n = int(name.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"malformed abelian preset {name!r}") from None
        return abelian(n)
    raise ValueError(f"unknown algebra preset {name!r}")

