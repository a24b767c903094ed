"""Compact homogeneous spaces presented by reductive pairs.

A space is given by a Lie algebra ``g`` of Killing fields, an isotropy
subalgebra ``h``, a reductive complement ``m`` identified with the tangent
space at a base point, and an inner product on ``m``.  Everything downstream
(covariant derivatives at the base point, the space of Killing fields with
vanishing derivative there, curvature operators along homogeneous geodesics)
is computed from the structure tensor alone, relative to the supplied
algebra: if ``g`` is smaller than the full isometry algebra the derived
invariants are relative to ``g``, and the reports say so.

The covariant derivative at the base point comes from the Koszul identity
specialized to Killing fields X, Y, Z (each a one-parameter flow through
the base point):

    2 <nabla_U X, V> = <[xi_U, X], V> + <[xi_U, xi_V], X> + <[X, xi_V], U>

where brackets are evaluated at the base point and ``xi_U`` is any Killing
field through U there.  The result is independent of the chosen lifts
exactly when the isotropy acts by skew operators, which the constructor
validates; the finite difference checks in :mod:`symidx.numcheck` confirm
the same derivative through coordinate Christoffel symbols.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg

from .liealg import (
    CHECK_TOL,
    DEFAULT_TOL,
    BilinearForm,
    LieAlgebra,
    Subspace,
    adjoint,
    adjoints,
    bi_invariant_directions,
    bracket,
    brackets,
    largest_invariant_subspace,
    numerical_kernel,
    orthogonal_complement,
    pair_indices,
)

#: Largest denominator accepted for the ratio of two orbit frequencies.
#: Any real lies within about 1/q^2 of a fraction with denominator q, so an
#: unbounded search would call every ratio commensurable.  The orbits of
#: the catalog have ratios 1 and 3/2; 64 leaves room for far finer
#: windings and still rejects ratios such as sqrt(2), whose nearest
#: fraction with denominator at most 64 (41/29) is 4e-4 away.
MAX_WINDING_DENOMINATOR = 64


class HomogeneousSpace:
    """A reductive homogeneous space with an invariant metric.

    Parameters
    ----------
    algebra : LieAlgebra
        Killing fields of the space, in the right-invariant convention.
    isotropy : Subspace
        Subalgebra of fields vanishing at the base point.
    complement : Subspace or None
        Reductive complement identified with the tangent space.  When
        omitted it is the orthogonal complement of the isotropy for the
        ad-invariant reference form of the algebra.
    metric : BilinearForm
        Inner product on the tangent space, in complement coordinates.
    label : str
        Display name used in reports.
    check_effective : bool
        Reject pairs where the algebra has a nonzero ideal inside the
        isotropy (fields that act trivially).

    Raises
    ------
    ValueError
        If the isotropy is not a subalgebra, the complement is not
        reductive or does not complete the isotropy to the whole algebra,
        the metric is not positive definite, or the isotropy fails to act
        by metric-skew operators on the complement.
    """

    def __init__(self, algebra: LieAlgebra, isotropy: Subspace,
                 metric: BilinearForm, complement: Subspace | None = None,
                 label: str = "", check_effective: bool = True,
                 tol: float = DEFAULT_TOL):
        self.algebra = algebra
        self.isotropy = isotropy
        self.label = label
        self.tol = float(tol)
        n = algebra.dim
        if isotropy.ambient_dim != n:
            raise ValueError("isotropy lives in the wrong ambient dimension")

        h = isotropy.basis
        first, second = pair_indices(isotropy.dim)
        hh = brackets(algebra, h, h)[:, first, second]
        leaks = np.flatnonzero(~isotropy.contains_columns(hh, CHECK_TOL))
        if leaks.size:
            raise ValueError(
                f"isotropy is not a subalgebra: bracket of basis vectors "
                f"{first[leaks[0]]} and {second[leaks[0]]} leaves it")

        if complement is None:
            complement = orthogonal_complement(algebra, isotropy, tol)
        if complement.ambient_dim != n:
            raise ValueError("complement lives in the wrong ambient dimension")
        if isotropy.dim + complement.dim != n:
            raise ValueError(
                f"isotropy ({isotropy.dim}) and complement ({complement.dim}) "
                f"do not add up to the algebra dimension ({n})")
        self.complement = complement

        t = np.hstack([isotropy.basis, complement.basis])
        if np.linalg.matrix_rank(t) < n:
            raise ValueError("isotropy and complement overlap")
        t_inv = np.linalg.inv(t)
        self.h_basis = isotropy.basis
        self.m_basis = complement.basis
        self.h_coords = t_inv[: isotropy.dim, :]
        #: Value of a Killing field at the base point, as a matrix:
        #: tangent coordinates of the field with algebra coefficients x
        #: are ``eval_matrix @ x``.
        self.eval_matrix = t_inv[isotropy.dim:, :]

        if metric.dim != complement.dim:
            raise ValueError(
                f"metric dimension {metric.dim} does not match the "
                f"complement dimension {complement.dim}")
        if not metric.is_positive_definite(tol):
            raise ValueError("metric is not positive definite")
        self.metric = metric
        self._gram_inv = np.linalg.inv(metric.gram)

        # reductivity and skew isotropy action of every isotropy vector at
        # once; the first vector failing either is reported, reductivity first
        imgs = adjoints(algebra, h) @ self.m_basis
        reductive = np.abs(self.h_coords @ imgs).max(axis=(1, 2), initial=0.0)
        ops = metric.gram @ self.eval_matrix @ imgs
        skew = np.abs(ops + ops.transpose(0, 2, 1)).max(axis=(1, 2), initial=0.0)
        bad = np.flatnonzero((reductive > CHECK_TOL) | (skew > CHECK_TOL))
        if bad.size:
            a = bad[0]
            if reductive[a] > CHECK_TOL:
                raise ValueError(
                    f"complement is not reductive: isotropy vector {a} maps "
                    f"it outside itself (residual {reductive[a]:.3e})")
            raise ValueError(
                f"isotropy vector {a} does not act skew-symmetrically "
                f"for the metric (residual {skew[a]:.3e}); the metric "
                f"is not invariant")

        if check_effective and isotropy.dim > 0:
            ineffective = largest_invariant_subspace(
                algebra, np.eye(n), isotropy, tol)
            if ineffective.dim > 0:
                raise ValueError(
                    f"the pair is not effective: an ideal of dimension "
                    f"{ineffective.dim} lies inside the isotropy")

        # brackets of complement lifts, evaluated at the base point
        m = self.m_basis
        br = np.einsum("ia,jb,ijk->abk", m, m, algebra.structure)
        self._mm_eval = np.einsum("abk,ck->abc", br, self.eval_matrix)

    # -- basic geometry -----------------------------------------------------

    @property
    def dim(self) -> int:
        """Dimension of the space (= dimension of the complement)."""
        return self.complement.dim

    @property
    def dim_isotropy(self) -> int:
        return self.isotropy.dim

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Value at the base point of the Killing field with coefficients x."""
        return self.eval_matrix @ np.asarray(x, dtype=float)

    def lift(self, v: np.ndarray) -> np.ndarray:
        """The complement lift of a tangent vector (a canonical Killing field)."""
        return self.m_basis @ np.asarray(v, dtype=float)

    def tangent_norm(self, v: np.ndarray) -> float:
        v = np.asarray(v, dtype=float)
        return float(np.sqrt(v @ self.metric.gram @ v))

    def nabla_at_base(self, x: np.ndarray) -> np.ndarray:
        """Covariant derivative at the base point of the Killing field x.

        Returns the matrix N with ``N @ u = nabla_u X`` in tangent
        coordinates.  Comes from the Koszul identity in the module
        docstring; metric invariance under the isotropy (validated at
        construction) makes the three lift-dependent terms cancel.
        """
        x = np.asarray(x, dtype=float)
        g = self.metric.gram
        ad_x = adjoint(self.algebra, x)
        v = self.eval_matrix @ ad_x @ self.m_basis
        term1 = -(g @ v).T
        term2 = self._mm_eval @ (g @ self.evaluate(x))
        term3 = g @ v
        rhs = 0.5 * (term1 + term2 + term3)
        return self._gram_inv @ rhs.T

    def nabla_operator(self) -> np.ndarray:
        """All base point derivatives at once: shape (dim^2, algebra dim).

        Column i is ``nabla_at_base(e_i)`` flattened; the kernel of this
        matrix is the space of Killing fields parallel at the base point.
        """
        cols = [self.nabla_at_base(e).reshape(-1)
                for e in np.eye(self.algebra.dim)]
        return np.array(cols).T


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class TransvectionReport:
    """Killing fields parallel at the base point and what they generate.

    ``p_space`` collects the fields with vanishing covariant derivative at
    the base point, ``k_space`` the span of their pairwise brackets, and
    ``s_space`` the tangent subspace of their values.  ``index`` is the
    dimension of ``s_space`` and ``coindex`` its tangent codimension.  All
    of it is relative to the supplied algebra of Killing fields.
    """

    p_space: Subspace
    k_space: Subspace
    s_space: Subspace
    index: int
    coindex: int
    dim_transvection: int
    involutive_ok: bool
    relative_to_supplied_algebra: bool = True


@dataclass(eq=False)
class BoundReport:
    """Dimension bound for the complementary factor of the symmetry ideal.

    ``gD`` is the largest ideal of the algebra containing only fields
    tangent to the distinguished foliation (isotropy plus lifted
    ``s_space``), ``g_prime`` its orthogonal ideal complement for the
    ad-invariant reference form.  The report compares
    ``lhs = 2 dim(g_prime)`` against ``rhs = k (k + 1)`` for the coindex
    ``k``; ``equality`` flags the extremal case.
    """

    gD: Subspace
    g_prime: Subspace
    k: int
    lhs: int
    rhs: int
    equality: bool


@dataclass(eq=False)
class JacobiSpectrum:
    """Spectrum of the curvature operator along a homogeneous geodesic.

    ``eigenvalues`` are ascending, ``eigenvectors`` hold matching columns
    orthonormal for the metric, ``operator`` is the full matrix in tangent
    coordinates, and ``psd_ok`` records positive semidefiniteness up to
    roundoff.  The generating field is normalized to unit speed at the
    base point and returned in ``direction``.
    """

    direction: np.ndarray
    operator: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    psd_ok: bool
    selfadjoint_residual: float


# ---------------------------------------------------------------------------
# parallel Killing fields and the symmetry index
# ---------------------------------------------------------------------------

def transvection_space(sp: HomogeneousSpace,
                       tol: float = DEFAULT_TOL) -> TransvectionReport:
    """Compute the parallel-at-base Killing fields and the symmetry index.

    The kernel of the stacked derivative operator gives ``p_space``; its
    values at the base point give ``s_space`` whose dimension is the index
    of symmetry (relative to the supplied algebra).  The pair
    ``k_space + p_space`` is checked for the expected bracket relations
    ``[k, k] in k`` and ``[k, p] in p``.
    """
    alg = sp.algebra
    p = Subspace(alg.dim, numerical_kernel(sp.nabla_operator(), tol))
    s = Subspace.from_spanning(sp.dim, sp.eval_matrix @ p.basis, tol)

    # k's basis is reported, so its spanning set comes from bracket, whose
    # rounding does not depend on how many pairs are batched
    first, second = pair_indices(p.dim)
    k_arr = bracket(alg, p.basis[:, first], p.basis[:, second])
    k = Subspace.from_spanning(alg.dim, k_arr, tol)

    involutive = bool(
        k.contains_columns(brackets(alg, k.basis, k.basis), CHECK_TOL).all()
        and p.contains_columns(brackets(alg, k.basis, p.basis), CHECK_TOL).all())

    joint = Subspace.from_spanning(alg.dim, np.hstack([k.basis, p.basis]), tol)
    return TransvectionReport(
        p_space=p, k_space=k, s_space=s,
        index=s.dim, coindex=sp.dim - s.dim,
        dim_transvection=joint.dim, involutive_ok=involutive,
    )


def symmetry_ideal(sp: HomogeneousSpace, report: TransvectionReport | None = None,
                   tol: float = DEFAULT_TOL) -> BoundReport:
    """Split off the ideal responsible for the parallel directions.

    Seeds the largest-ideal iteration with isotropy plus the lifted
    ``s_space``; the orthogonal complement for the ad-invariant reference
    form is again an ideal (internal error if the numerics disagree) and
    its dimension enters the bound ``2 dim(g_prime) <= k (k + 1)``.
    """
    if report is None:
        report = transvection_space(sp, tol)
    alg = sp.algebra
    n = alg.dim
    seed = Subspace.from_spanning(
        n, np.hstack([sp.h_basis, sp.m_basis @ report.s_space.basis]), tol)
    g_d = largest_invariant_subspace(alg, np.eye(n), seed, tol)

    g_prime = orthogonal_complement(alg, g_d, tol)
    if g_d.dim + g_prime.dim != n:
        raise RuntimeError("internal: orthogonal split of the symmetry ideal "
                           "has the wrong dimension")
    if g_prime.dim:
        leak = np.abs((np.eye(n) - g_prime.projector())
                      @ adjoints(alg, np.eye(n)) @ g_prime.basis)
        worst = leak.max(axis=(1, 2))
        bad = np.flatnonzero(worst > CHECK_TOL)
        if bad.size:
            raise RuntimeError(
                f"internal: complement of the symmetry ideal is not an ideal "
                f"(residual {worst[bad[0]]:.3e})")

    k = report.coindex
    lhs = 2 * g_prime.dim
    rhs = k * (k + 1)
    return BoundReport(gD=g_d, g_prime=g_prime, k=k,
                       lhs=lhs, rhs=rhs, equality=lhs == rhs)


def perpendicular_killing_space(sp: HomogeneousSpace,
                                report: TransvectionReport | None = None,
                                tol: float = DEFAULT_TOL) -> Subspace:
    """Largest bracket-stable space of fields orthogonal to ``s_space``.

    Starts from all Killing fields whose base point value is orthogonal to
    the parallel directions and shrinks to the largest subspace invariant
    under ``k_space`` and ``p_space``.
    """
    if report is None:
        report = transvection_space(sp, tol)
    rows = report.s_space.basis.T @ sp.metric.gram @ sp.eval_matrix
    seed = Subspace(sp.algebra.dim, numerical_kernel(rows, tol))
    gens = np.hstack([report.k_space.basis, report.p_space.basis])
    if gens.shape[1] == 0:
        return seed
    return largest_invariant_subspace(sp.algebra, gens, seed, tol)


# ---------------------------------------------------------------------------
# curvature along homogeneous geodesics
# ---------------------------------------------------------------------------

def _unit_geodesic_field(sp: HomogeneousSpace, x: np.ndarray,
                         tol: float) -> tuple[np.ndarray, float]:
    """``(x / speed, speed)``, speed being the length of the value of ``x``
    at the base point; raises unless it is nonzero with a geodesic orbit."""
    x = np.asarray(x, dtype=float)
    speed = sp.tangent_norm(sp.evaluate(x))
    if speed <= tol:
        raise ValueError("field evaluates to zero at the base point; "
                         "it generates no geodesic direction")
    xn = x / speed
    drift = float(np.linalg.norm(sp.nabla_at_base(xn) @ sp.evaluate(xn)))
    if drift > tol:
        raise ValueError(
            f"orbit of the field is not a geodesic at the base point "
            f"(covariant derivative along itself has norm {drift:.3e})")
    return xn, speed


def jacobi_operator(sp: HomogeneousSpace, x: np.ndarray,
                    tol: float = CHECK_TOL) -> JacobiSpectrum:
    """Curvature operator R(., c')c' along the orbit geodesic of a field.

    Parameters
    ----------
    sp : HomogeneousSpace
    x : ndarray
        Algebra coefficients of a Killing field whose one-parameter orbit
        through the base point is a geodesic.  The field is rescaled to
        unit speed at the base point, so the eigenvalues are sectional
        curvatures of the planes spanned by the direction and the
        eigenvectors.
    tol : float
        Ceiling for the geodesic precondition and the self-adjointness
        and lift-independence residuals.

    Raises
    ------
    ValueError
        If the field vanishes at the base point, or its orbit is not a
        geodesic there (nonzero covariant derivative in its own
        direction), or the double bracket depends on the isotropy part of
        lifts, which would make the operator ill-defined.
    """
    xn, _ = _unit_geodesic_field(sp, x, tol)
    ad_x = adjoint(sp.algebra, xn)
    if sp.dim_isotropy:
        lift_resid = float(np.max(np.abs(
            sp.eval_matrix @ ad_x @ ad_x @ sp.h_basis)))
        if lift_resid > tol:
            raise ValueError(
                f"curvature operator depends on the lift "
                f"(isotropy residual {lift_resid:.3e})")
    op = -sp.eval_matrix @ ad_x @ ad_x @ sp.m_basis

    g = sp.metric.gram
    go = g @ op
    selfadjoint_resid = float(np.max(np.abs(go - go.T)))
    if selfadjoint_resid > tol:
        raise ValueError(
            f"curvature operator is not self-adjoint for the metric "
            f"(residual {selfadjoint_resid:.3e})")
    w, vecs = scipy.linalg.eigh(0.5 * (go + go.T), g)
    return JacobiSpectrum(
        direction=xn, operator=op, eigenvalues=w, eigenvectors=vecs,
        psd_ok=bool(w[0] >= -tol), selfadjoint_residual=selfadjoint_resid,
    )


def _cos_sin_like(kappa: float, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The solutions of ``f'' + kappa f = 0`` with ``(f, f')(0)`` equal to
    (1, 0) and to (0, 1)."""
    r = np.sqrt(abs(kappa))
    if kappa > 1e-12:
        return np.cos(r * t), np.sin(r * t) / r
    if kappa < -1e-12:
        return np.cosh(r * t), np.sinh(r * t) / r
    return np.ones_like(t), np.asarray(t, dtype=float)


def jacobi_field(sp: HomogeneousSpace, spectrum: JacobiSpectrum,
                 v0: np.ndarray, w0: np.ndarray, t) -> np.ndarray:
    """Closed-form Jacobi field along the geodesic of ``spectrum``.

    The field with initial value ``v0`` and initial derivative ``w0`` is
    expanded in the metric-orthonormal eigenbasis; each coefficient
    evolves by the circular, linear, or hyperbolic solution of
    ``f'' + kappa f = 0`` for its eigenvalue.  Valid in the parallel frame
    along the orbit, with ``t`` the arc length.

    Returns an array of tangent coordinates, one row per entry of ``t``
    (or a single vector for scalar ``t``).
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    g = sp.metric.gram
    cv = spectrum.eigenvectors.T @ g @ np.asarray(v0, dtype=float)
    cw = spectrum.eigenvectors.T @ g @ np.asarray(w0, dtype=float)
    out = np.zeros((t_arr.size, sp.dim))
    for i, kappa in enumerate(spectrum.eigenvalues):
        cos_like, sin_like = _cos_sin_like(kappa, t_arr)
        coeff = cv[i] * cos_like + cw[i] * sin_like
        out += np.outer(coeff, spectrum.eigenvectors[:, i])
    if np.isscalar(t) or np.asarray(t).ndim == 0:
        return out[0]
    return out


# ---------------------------------------------------------------------------
# augmentation by invariant fields from the other side
# ---------------------------------------------------------------------------

def augment_left_invariant(sp: HomogeneousSpace,
                           tol: float = DEFAULT_TOL) -> HomogeneousSpace:
    """Enlarge the Killing algebra of a group manifold by bi-invariant
    directions acting from the other side.

    Only applies to spaces with trivial isotropy (the algebra itself is
    the tangent space).  Directions whose adjoint is metric-skew generate
    flows by translation on the opposite side that are again isometries;
    they close under the opposite bracket and commute with the original
    fields.  The enlarged algebra keeps the original metric and gains an
    isotropy identifying the two actions at the base point.  When no such
    direction exists the space is returned unchanged.
    """
    if sp.dim_isotropy != 0:
        raise ValueError("augmentation needs trivial isotropy "
                         "(a group manifold presentation)")
    alg = sp.algebra
    n = alg.dim
    form = sp.eval_matrix.T @ sp.metric.gram @ sp.eval_matrix
    a = bi_invariant_directions(alg, form, tol)
    q = a.dim
    if q == 0:
        return sp

    structure = np.zeros((n + q, n + q, n + q))
    structure[:n, :n, :n] = alg.structure
    first, second = pair_indices(q)
    w = -bracket(alg, a.basis[:, first], a.basis[:, second])
    coeffs, _, _, _ = np.linalg.lstsq(a.basis, w, rcond=None)
    resids = np.linalg.norm(a.basis @ coeffs - w, axis=0)
    bad = np.flatnonzero(resids > CHECK_TOL)
    if bad.size:
        raise RuntimeError("internal: bi-invariant directions do not close "
                           f"under the bracket (residual {resids[bad[0]]:.3e})")
    structure[n + first, n + second, n:] = coeffs.T
    structure[n + second, n + first, n:] = -coeffs.T
    labels = alg.basis_labels + tuple(f"op{r + 1}" for r in range(q))
    big = LieAlgebra(n + q, labels, structure,
                     convention_note=alg.convention_note
                     + "; opposite-side generators appended")

    iso = Subspace(n + q, np.vstack([a.basis, -np.eye(q)]))
    comp = Subspace(n + q, np.vstack([sp.m_basis, np.zeros((q, sp.dim))]))
    return HomogeneousSpace(big, iso, sp.metric, complement=comp,
                            label=(sp.label + " (augmented)") if sp.label
                            else "augmented", tol=sp.tol)


# ---------------------------------------------------------------------------
# closed orbit geodesics
# ---------------------------------------------------------------------------

def closed_geodesic_length(sp: HomogeneousSpace, representation: np.ndarray,
                           x: np.ndarray, tol: float = CHECK_TOL) -> float:
    """Length of the closed orbit geodesic generated by the field x.

    The period is that of the one-parameter group ``exp(t X)`` in the
    supplied matrix representation, found from the purely imaginary
    eigenvalue frequencies; the length is the period times the speed at
    the base point.  If the representation is a cover or quotient of the
    isometry group the period, and hence the length, refers to that group.

    Raises
    ------
    ValueError
        If the orbit is not a geodesic at the base point, the generator
        has eigenvalues off the imaginary axis (no periodic flow), the
        ratio of some frequency to the smallest one is not within relative
        ``tol`` of a fraction with denominator at most
        :data:`MAX_WINDING_DENOMINATOR` (incommensurable, or winding too
        finely to resolve), or the field is in the kernel of the
        representation.
    """
    x = np.asarray(x, dtype=float)
    _, speed = _unit_geodesic_field(sp, x, tol)
    gen = np.einsum("i,ijk->jk", x, np.asarray(representation))
    scale = max(1.0, float(np.max(np.abs(gen))))
    eig = np.linalg.eigvals(gen)
    if float(np.max(np.abs(eig.real))) > tol * scale:
        raise ValueError("generator has eigenvalues off the imaginary axis; "
                         "the flow is not periodic")
    freqs = np.abs(eig.imag)
    freqs = freqs[freqs > tol * scale]
    if freqs.size == 0:
        raise ValueError("field is in the kernel of the representation; "
                         "no period is defined")
    freqs.sort()
    distinct = [freqs[0]]
    for f in freqs[1:]:
        if f - distinct[-1] > tol * scale:
            distinct.append(f)
    base = distinct[0]
    multiples = []
    for f in distinct:
        ratio = f / base
        frac = Fraction(ratio).limit_denominator(MAX_WINDING_DENOMINATOR)
        if abs(float(frac) - ratio) > tol * ratio:
            raise ValueError(
                f"frequencies {base:.6g} and {f:.6g} are incommensurable "
                f"(ratio {ratio:.12g} is {abs(float(frac) - ratio):.3e} from "
                f"{frac}, the nearest fraction with denominator at most "
                f"{MAX_WINDING_DENOMINATOR}); the orbit does not close")
        multiples.append(frac)
    steps = math.lcm(*[fr.denominator for fr in multiples])
    period = 2.0 * math.pi * steps / base
    return period * speed
