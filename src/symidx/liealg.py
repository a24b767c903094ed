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
geodesic spray and of curvature terms, so every :class:`LieAlgebra`
carries a ``convention_note`` and :func:`matrix_algebra` applies the
flip itself.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

#: Default relative tolerance for every rank / kernel / residual decision.
#: The algebras handled here have dimension up to about 100 and structure
#: constants of order one; genuine zeros stay near 1e-13 even at that size,
#: so 1e-9 leaves several orders of headroom between them and genuine
#: nonzeros (~1).
DEFAULT_TOL = 1e-9

#: Residual ceiling for derived statements (containment, involutivity,
#: self-adjointness, geodesic preconditions); looser than DEFAULT_TOL because
#: these residuals accumulate a few matrix products.
CHECK_TOL = 1e-8

#: Entries per chunk of the Jacobi residual (see LieAlgebra.jacobi_residual).
_JACOBI_CHUNK = 2 ** 18

KILLING_CONVENTION = (
    "structure tensor stores brackets of Killing (right-invariant) fields; "
    "equal to minus the matrix commutator of any generating representation"
)


# ---------------------------------------------------------------------------
# rank / kernel primitives
# ---------------------------------------------------------------------------

def _sv_cutoff(s: np.ndarray, tol: float) -> float:
    # Relative cutoff with a unit floor: matrices in this package have O(1)
    # entries when they are nonzero at all, so the floor only engages for
    # matrices that are zero up to roundoff (where a purely relative cutoff
    # would misread noise singular values as full rank).
    top = float(s[0]) if s.size else 0.0
    return tol * max(top, 1.0)


def numerical_rank(a: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    """Rank of ``a`` by singular values above a relative cutoff."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if min(a.shape) == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.sum(s > _sv_cutoff(s, tol)))


def numerical_kernel(a: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the null space of ``a``.

    Parameters
    ----------
    a : ndarray, shape (m, n)
        Matrix whose kernel is wanted.  An empty or all-zero matrix has
        the full space as kernel.
    tol : float
        Relative singular value cutoff.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    m, n = a.shape
    if n == 0:
        return np.zeros((0, 0))
    if m == 0:
        return np.eye(n)
    # The thin SVD already holds all n rows of V when m >= n; a wide matrix
    # needs the full one, whose rows past m span the rest of the kernel.
    _, s, vt = np.linalg.svd(a, full_matrices=m < n)
    r = int(np.sum(s > _sv_cutoff(s, tol)))
    return vt[r:].T


def orthonormal_columns(a: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the column space of ``a``."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.shape[1] == 0:
        return np.zeros((a.shape[0], 0))
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    r = int(np.sum(s > _sv_cutoff(s, tol)))
    return u[:, :r]


def pair_indices(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays ``(first, second)`` of all pairs ``first < second < k``,
    in ``itertools.combinations`` order."""
    pairs = np.array(list(itertools.combinations(range(k), 2)), dtype=np.intp)
    return pairs.reshape(-1, 2).T


# ---------------------------------------------------------------------------
# core types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Subspace:
    """A linear subspace of R^ambient_dim spanned by the columns of ``basis``.

    The basis is required to have full column rank; use
    :meth:`Subspace.from_spanning` to build a subspace from a possibly
    redundant spanning set.  ``==`` and ``hash`` go by identity; compare
    subspaces with :meth:`equals`.
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        b = np.atleast_2d(np.asarray(self.basis, dtype=float))
        if b.shape[0] != self.ambient_dim:
            raise ValueError(
                f"basis rows ({b.shape[0]}) do not match ambient_dim "
                f"({self.ambient_dim})"
            )
        object.__setattr__(self, "basis", b)
        if b.shape[1] > 0 and numerical_rank(b) < b.shape[1]:
            raise ValueError(
                f"basis of shape {b.shape} is rank deficient "
                f"(rank {numerical_rank(b)})"
            )

    @classmethod
    def from_spanning(cls, ambient_dim: int, vectors: np.ndarray,
                      tol: float = DEFAULT_TOL) -> "Subspace":
        """Subspace spanned by the columns of ``vectors`` (may be dependent)."""
        vectors = np.asarray(vectors, dtype=float)
        if vectors.size == 0:
            return cls(ambient_dim, np.zeros((ambient_dim, 0)))
        return cls(ambient_dim, orthonormal_columns(vectors, tol))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, np.zeros((ambient_dim, 0)))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, np.eye(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @cached_property
    def _onb(self) -> np.ndarray:
        q = orthonormal_columns(self.basis)
        q.flags.writeable = False
        return q

    def onb(self) -> np.ndarray:
        """Orthonormal basis of the subspace (computed once, read-only)."""
        return self._onb

    def projector(self) -> np.ndarray:
        q = self.onb()
        return q @ q.T

    def contains_columns(self, vecs: np.ndarray, tol: float = CHECK_TOL) -> np.ndarray:
        """Whether each vector of ``vecs`` lies in the subspace up to
        relative residual ``tol``, all in one projection.

        The first axis of ``vecs`` holds the coordinates; the result has
        the shape of the remaining axes (one entry per vector).
        """
        vecs = np.asarray(vecs, dtype=float)
        flat = vecs.reshape(len(vecs), math.prod(vecs.shape[1:]))
        q = self.onb()
        resid = flat - q @ (q.T @ flat)
        # squared norms on both sides
        inside = ((resid * resid).sum(axis=0)
                  <= tol * tol * np.maximum(1.0, (flat * flat).sum(axis=0)))
        return inside.reshape(vecs.shape[1:])

    def contains(self, vec: np.ndarray, tol: float = CHECK_TOL) -> bool:
        """Whether ``vec`` lies in the subspace up to relative residual ``tol``."""
        return bool(self.contains_columns(vec, tol))

    def contains_subspace(self, other: "Subspace", tol: float = CHECK_TOL) -> bool:
        return bool(self.contains_columns(other.basis, tol).all())

    def equals(self, other: "Subspace", tol: float = CHECK_TOL) -> bool:
        """Subspace equality (same dimension and mutual containment)."""
        return (self.dim == other.dim
                and self.contains_subspace(other, tol)
                and other.contains_subspace(self, tol))


@dataclass(frozen=True, eq=False)
class BilinearForm:
    """A symmetric bilinear form given by its Gram matrix.

    Definiteness is reported by :meth:`is_positive_definite`, never assumed.
    """

    gram: np.ndarray

    def __post_init__(self):
        g = np.atleast_2d(np.asarray(self.gram, dtype=float))
        if g.shape[0] != g.shape[1]:
            raise ValueError(f"gram matrix must be square, got {g.shape}")
        asym = float(np.max(np.abs(g - g.T))) if g.size else 0.0
        if asym > DEFAULT_TOL * max(1.0, float(np.max(np.abs(g))) if g.size else 1.0):
            raise ValueError(f"gram matrix is not symmetric (residual {asym:.3e})")
        object.__setattr__(self, "gram", 0.5 * (g + g.T))

    @property
    def dim(self) -> int:
        return self.gram.shape[0]

    def is_positive_definite(self, tol: float = DEFAULT_TOL) -> bool:
        if self.dim == 0:
            return True
        w = np.linalg.eigvalsh(self.gram)
        return bool(w[0] > tol * max(1.0, float(w[-1])))

    def restricted_to(self, sub: Subspace) -> np.ndarray:
        """Gram matrix of the form restricted to ``sub`` (in its basis)."""
        return sub.basis.T @ self.gram @ sub.basis

    def kernel(self, tol: float = DEFAULT_TOL) -> Subspace:
        return Subspace(self.dim, numerical_kernel(self.gram, tol))


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
    convention_note : str
        Records the bracket convention; carried through serialization.

    Antisymmetry and the Jacobi identity are validated at construction
    with absolute residual tolerance 1e-9.
    """

    dim: int
    basis_labels: tuple
    structure: np.ndarray
    convention_note: str = KILLING_CONVENTION

    def __post_init__(self):
        c = np.asarray(self.structure, dtype=float)
        n = self.dim
        if c.shape != (n, n, n):
            raise ValueError(f"structure tensor shape {c.shape} != {(n, n, n)}")
        labels = tuple(str(x) for x in self.basis_labels)
        if len(labels) != n:
            raise ValueError(f"{len(labels)} labels for dimension {n}")
        object.__setattr__(self, "structure", c)
        object.__setattr__(self, "basis_labels", labels)
        asym = float(np.max(np.abs(c + c.transpose(1, 0, 2)))) if n else 0.0
        if asym > DEFAULT_TOL:
            raise ValueError(f"structure tensor is not antisymmetric "
                             f"(residual {asym:.3e})")
        jac = self.jacobi_residual()
        if jac > DEFAULT_TOL:
            raise ValueError(f"structure tensor violates the Jacobi identity "
                             f"(residual {jac:.3e})")

    def jacobi_residual(self) -> float:
        """Max-norm of the cyclic Jacobi sum over all basis triples.

        The sum ``[[e_j, e_k], e_i] + [[e_k, e_i], e_j] + [[e_i, e_j], e_k]``
        is formed by batched matmuls over chunks of the first index ``i``
        holding at most ``max(dim^3, 2^18)`` entries, so memory stays
        O(dim^3) (a few such chunks) instead of the dim^4 of the whole
        tensor, and small algebras take a single chunk.
        """
        c = self.structure
        n = self.dim
        flat = c.reshape(n * n, n)
        ct = c.transpose(1, 0, 2)
        step = max(1, _JACOBI_CHUNK // max(1, n ** 3))
        worst = 0.0
        for lo in range(0, n, step):
            ci = c[lo:lo + step]
            # each term indexed [i, j, k, b] with i in the chunk
            cyc = (flat @ ci).reshape(-1, n, n, n)          # sum_a c[j,k,a] c[i,a,b]
            cyc += ct[lo:lo + step, None] @ c               # sum_a c[k,i,a] c[j,a,b]
            cyc += (ci[:, None] @ c).transpose(0, 2, 1, 3)  # sum_a c[i,j,a] c[k,a,b]
            worst = max(worst, float(np.max(np.abs(cyc))))
        return worst


# ---------------------------------------------------------------------------
# algebra operations
# ---------------------------------------------------------------------------

def bracket(alg: LieAlgebra, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bracket of two coefficient vectors, or column by column of two
    (dim, k) arrays.

    Every column is summed in the same order, whatever ``k`` is, so a
    column's bracket is the same to the last bit alone or in a batch.
    """
    return np.einsum("i...,j...,ijk->k...", np.asarray(x, float),
                     np.asarray(y, float), alg.structure)


def brackets(alg: LieAlgebra, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All pairwise brackets of the columns of ``a`` and ``b``.

    Returns an array of shape (dim, ka, kb) whose slice ``[:, p, q]`` is
    ``bracket(alg, a[:, p], b[:, q])`` up to rounding: two matrix
    products, much faster than :func:`bracket` on many pairs, but summed
    in another order.
    """
    a, b = np.asarray(a, float), np.asarray(b, float)
    n = len(alg.structure)
    left = (a.T @ alg.structure.reshape(n, n * n)).reshape(a.shape[1], n, n)
    return (left.transpose(0, 2, 1) @ b).transpose(1, 0, 2)


def adjoint(alg: LieAlgebra, x: np.ndarray) -> np.ndarray:
    """Matrix of ad_x = bracket(x, .) acting on coefficient vectors."""
    return np.einsum("i,ijk->kj", np.asarray(x, float), alg.structure)


def adjoints(alg: LieAlgebra, gens: np.ndarray) -> np.ndarray:
    """Shape (k, dim, dim): slice ``[p]`` is ``adjoint(alg, gens[:, p])``
    up to rounding (one matrix product for all columns)."""
    return np.tensordot(np.asarray(gens, float), alg.structure,
                        axes=(0, 0)).transpose(0, 2, 1)


def killing_form_positive(alg: LieAlgebra) -> BilinearForm:
    """The sign-flipped Killing form B(x, y) = -trace(ad_x ad_y).

    Positive definite exactly when the algebra is of compact type; in the
    quaternion model of spin(3) this gives B(i, i) = 8.
    """
    c = alg.structure
    gram = -np.einsum("imk,jkm->ij", c, c) if alg.dim else np.zeros((0, 0))
    return BilinearForm(gram)


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
    abelian kind this package handles).
    """
    b = killing_form_positive(alg)
    z = b.kernel(tol)
    if z.dim == 0:
        return b
    d = derived_subalgebra(alg, tol)
    if z.dim + d.dim != alg.dim or numerical_rank(np.hstack([z.basis, d.basis]), tol) != alg.dim:
        raise ValueError("kernel of B and derived subalgebra do not split the algebra")
    t_inv = np.linalg.inv(np.hstack([z.basis, d.basis]))
    proj_z = t_inv[: z.dim, :]
    return BilinearForm(b.gram + proj_z.T @ proj_z)


def orthogonal_complement(alg: LieAlgebra, sub: Subspace,
                          tol: float = DEFAULT_TOL) -> Subspace:
    """Complement of ``sub`` orthogonal for the ad-invariant
    :func:`reference_form`; the zero subspace gives the whole algebra."""
    q = reference_form(alg, tol).gram
    return Subspace(alg.dim, numerical_kernel(sub.basis.T @ q, tol))


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
        The algebra and the stacked representation matrices.

    Raises
    ------
    ValueError
        If the matrices are dependent, or if some commutator leaves the
        span; the error names the offending pair and the residual.
    """
    mats = np.asarray(matrices)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {mats.shape}")
    n = mats.shape[0]
    if labels is None:
        labels = tuple(f"m{k}" for k in range(n))
    flat = _flatten_real(mats)
    if numerical_rank(flat, tol) < n:
        raise ValueError("generating matrices are linearly dependent")
    basis_t = flat.T  # columns are the flattened generators
    scale = max(1.0, float(np.max(np.abs(flat))))
    first, second = pair_indices(n)
    comms = -(mats[first] @ mats[second] - mats[second] @ mats[first])
    rhs = _flatten_real(comms).T
    coeffs, _, _, _ = np.linalg.lstsq(basis_t, rhs, rcond=None)
    resids = np.linalg.norm(basis_t @ coeffs - rhs, axis=0)
    ceiling = tol * np.maximum(scale, np.linalg.norm(rhs, axis=0))
    bad = np.flatnonzero(resids > ceiling)
    if bad.size:
        p = bad[0]
        raise ValueError(
            f"bracket of {labels[first[p]]} and {labels[second[p]]} leaves "
            f"the span (residual {resids[p]:.3e}); not a Lie algebra basis"
        )
    structure = np.zeros((n, n, n))
    structure[first, second] = coeffs.T
    structure[second, first] = -coeffs.T
    return LieAlgebra(n, tuple(labels), structure), mats


def largest_invariant_subspace(alg: LieAlgebra, generators: np.ndarray,
                               seed: Subspace, tol: float = DEFAULT_TOL) -> Subspace:
    """Largest subspace of ``seed`` invariant under ad of all ``generators``.

    Iterates ``W <- {x in W : ad_g x in W for all g}`` from ``W = seed``
    until the dimension stabilizes, re-orthonormalizing each pass.  The
    iteration is capped at ``seed.dim + 1`` passes, which suffices because
    each productive pass strictly drops the dimension.
    """
    gens = np.atleast_2d(np.asarray(generators, dtype=float))
    if gens.shape[0] != alg.dim:
        raise ValueError("generators must be given as columns in algebra coordinates")
    ads = adjoints(alg, gens)
    w = seed.onb()
    for _ in range(seed.dim + 1):
        if w.shape[1] == 0:
            break
        p_out = np.eye(alg.dim) - w @ w.T
        constraint = (p_out @ ads @ w).reshape(-1, w.shape[1])
        keep = numerical_kernel(constraint, tol)
        if keep.shape[1] == w.shape[1]:
            break
        w = orthonormal_columns(w @ keep, tol)
    return Subspace(alg.dim, w)


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
    c = alg.structure
    # rows indexed by pairs (b, c), unknowns indexed by a:
    #   g(bracket(e_a, e_b), e_c) + g(e_b, bracket(e_a, e_c)) = 0
    m = (np.einsum("abk,kc->bca", c, g) + np.einsum("ack,bk->bca", c, g))
    m = m.reshape(alg.dim * alg.dim, alg.dim)
    return Subspace(alg.dim, numerical_kernel(m, tol))


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def so_elementary(n: int):
    """so(n) on the elementary skew basis E_ab = e_a e_b^T - e_b e_a^T, a < b.

    Returns (LieAlgebra, representation).  Labels are ``E{a}{b}`` with
    1-based indices in lexicographic order.
    """
    if n < 2:
        raise ValueError("so(n) needs n >= 2")
    mats, labels = [], []
    for a, b in itertools.combinations(range(n), 2):
        m = np.zeros((n, n))
        m[a, b] = 1.0
        m[b, a] = -1.0
        mats.append(m)
        labels.append(f"E{a + 1}{b + 1}")
    return matrix_algebra(np.array(mats), tuple(labels))


_QUAT_BASIS = ("1", "i", "j", "k")
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


def spin3_quaternion():
    """spin(3) = Im(H) with basis (i, j, k) acting by left multiplication.

    The Killing convention makes ``bracket(j, i) = 2k`` (the flow of the
    Killing field of j is left translation by exp(tj), and such fields
    bracket to minus the quaternion commutator).
    """
    mats = np.array([quaternion_left_multiplication(q) for q in (1, 2, 3)])
    return matrix_algebra(mats, ("i", "j", "k"))


def su3():
    """su(3) on the anti-Hermitian Gell-Mann basis i*lambda_1 .. i*lambda_8."""
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
    return matrix_algebra(mats, tuple(f"u{k}" for k in range(1, 9)))


def abelian(n: int):
    """The abelian algebra R^n (zero structure tensor, no representation)."""
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    alg = LieAlgebra(n, tuple(f"a{k + 1}" for k in range(n)), np.zeros((n, n, n)),
                     convention_note="abelian; all brackets vanish")
    return alg, None


def preset(name: str):
    """Named algebra presets.

    ``so3``, ``so4`` (elementary skew bases), ``spin3_quat`` (quaternion
    model), ``su3``, and ``abelian:<n>``.  Returns (LieAlgebra,
    representation or None).
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


# ---------------------------------------------------------------------------
# JSON layout
# ---------------------------------------------------------------------------

def algebra_to_dict(alg: LieAlgebra) -> dict:
    """Plain-JSON layout: {"dim", "labels", "structure"}."""
    return {
        "dim": alg.dim,
        "labels": list(alg.basis_labels),
        "structure": alg.structure.tolist(),
    }


def algebra_from_dict(d: dict) -> LieAlgebra:
    """Inverse of :func:`algebra_to_dict`; revalidates all invariants."""
    return LieAlgebra(int(d["dim"]), tuple(d["labels"]),
                      np.asarray(d["structure"], dtype=float))
