"""Compact homogeneous spaces presented by reductive pairs.

A space is given by a Lie algebra ``g`` of Killing fields, an isotropy
subalgebra ``h``, a reductive complement ``m`` identified with the tangent
space at a base point, and an inner product on ``m``.  Everything downstream
(covariant derivatives at the base point, the space of Killing fields with
vanishing derivative there, curvature operators along homogeneous geodesics)
is computed from the structure tensor alone, relative to the supplied
algebra: if ``g`` is smaller than the full isometry algebra the derived
invariants are relative to ``g``.

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
from functools import cached_property

import numpy as np

from .liealg import (
    CHECK_TOL,
    DEFAULT_TOL,
    BilinearForm,
    LieAlgebra,
    Subspace,
    _coordinates,
    _real,
    _refuse_non_finite,
    adjoints,
    bi_invariant_directions,
    brackets,
    checked_tol,
    eigenvalue_clusters,
    equal_groups,
    invariant_subspaces,
    largest_invariant_subspace,
    numerical_rank,
    orthogonal_complement,
    pair_indices,
    pencil_eigh,
    reference_form,
    stacked_contains,
    stacked_frames,
    stacked_kernels,
    stacked_leaks,
    stacked_spans,
)

#: Largest denominator accepted for the ratio of two orbit frequencies.
#: Any real lies within about 1/q^2 of a fraction with denominator q, so an
#: unbounded search would call every ratio commensurable.  The orbits of
#: the catalog have ratios 1 and 3/2; 64 leaves room for far finer
#: windings and still rejects ratios such as sqrt(2), whose nearest
#: fraction with denominator at most 64 (41/29) is 4e-4 away.
MAX_WINDING_DENOMINATOR = 64


class Presentation:
    """A reductive pair without a metric: what every invariant metric on it
    shares, validated once.

    Parameters
    ----------
    algebra : LieAlgebra
        Killing fields of the space, in the right-invariant convention.
    isotropy : Subspace
        Subalgebra of fields vanishing at the base point.
    complement : Subspace, sequence of Subspace, or None
        Reductive complement identified with the tangent space.  When
        omitted it is the orthogonal complement of the isotropy for the
        ad-invariant reference form.  A sequence of one shape is a stack,
        one per metric of :func:`transvection_stack`: its arrays get a
        leading axis, ``complement`` keeps the sequence, and a failing
        member is refused alone, as it raises.
    tol : float
        Cutoff of every rank decision about the space, fixed here: the
        validation below and, read as ``sp.tol``, the parallel fields of
        :func:`transvection_space`, the ideals of :func:`symmetry_ideal`
        and :func:`perpendicular_killing_space`, and the bi-invariant
        directions of :func:`augment_left_invariant`.

    Raises
    ------
    ValueError
        If ``tol`` is not a number in [MIN_TOL, 1), the isotropy is not a
        subalgebra (named by its first leaking pair of basis vectors in
        colex order; a bracket whose part off the isotropy, through the
        orthogonal complement of one complete QR, exceeds CHECK_TOL is then
        decided by :meth:`~symidx.liealg.Subspace.contains_columns`,
        relative to its length), a stack is empty, the complement does not
        complete the isotropy to the whole algebra or is not reductive, or
        the pair is not effective: a nonzero ideal of the algebra lies in
        the isotropy.
        As ``[h, m]`` lies in ``m``, the x in ``h`` with ``[x, m]`` in ``h``
        have ``[x, m] = 0`` and, by the Jacobi identity, form the largest
        such ideal, of dimension the nullity at ``tol`` of x -> tangent part
        of ``[x, m]`` on the first member that passes the complement checks.
        A stack with no such member is built and refuses each metric.
    """

    def __init__(self, algebra: LieAlgebra, isotropy: Subspace,
                 complement=None, tol: float = DEFAULT_TOL):
        self.algebra = algebra
        self.isotropy = isotropy
        self.tol = tol = checked_tol(tol)
        n, r = algebra.dim, isotropy.dim
        if isotropy.ambient_dim != n:
            raise ValueError("isotropy lives in the wrong ambient dimension")

        h = isotropy.basis
        ad_h = adjoints(algebra, h)
        first, second = pair_indices(r)
        leaks = first[:0]  # no pairs below r = 2
        if r > 1:  # the part of each bracket out of h, through h-perp
            perp = np.linalg.qr(h, mode="complete")[0][:, r:]
            out = ((perp.T @ ad_h) @ h)[first, :, second]
            leaks = np.flatnonzero(np.linalg.norm(out, axis=-1) > CHECK_TOL)
            if leaks.size:  # the relative floor decides these
                hh = (ad_h[first[leaks]] @ h.T[second[leaks], :, None])[..., 0]
                leaks = leaks[~isotropy.contains_columns(hh.T)]
        if leaks.size:
            raise ValueError(
                f"isotropy is not a subalgebra: bracket of basis vectors "
                f"{first[leaks[0]]} and {second[leaks[0]]} leaves it")

        if complement is None:
            complement = orthogonal_complement(algebra, isotropy, tol)
        stacked = not isinstance(complement, Subspace)
        comps = list(complement) if stacked else [complement]
        if not comps:
            raise ValueError("an empty stack of complements has no member")
        if comps[0].ambient_dim != n:  # a stack's members share its shape
            raise ValueError("complement lives in the wrong ambient dimension")
        if r + comps[0].dim != n:
            raise ValueError(
                f"isotropy ({r}) and complement ({comps[0].dim}) do not add "
                f"up to the algebra dimension ({n})")

        # the complement checks, stacked: a single complement is a stack of 1
        m = np.array([comp.basis for comp in comps])
        t = np.concatenate([h[None].repeat(len(m), axis=0), m], axis=-1)
        overlap = numerical_rank(t, tol) < n
        t[overlap] = np.eye(n)  # keeps the inverses of refused members finite
        t_inv = np.linalg.inv(t)
        imgs = ad_h @ m[:, None]
        reductive = np.abs(t_inv[:, None, :r] @ imgs).max(axis=(-2, -1),
                                                           initial=0.0)
        refusals = [
            "isotropy and complement overlap" if lap else
            f"complement is not reductive: isotropy vector {bad.argmax()} "
            f"maps it outside itself (residual {res[bad.argmax()]:.3e})"
            if bad.any() else None
            for lap, res, bad in zip(overlap, reductive, reductive > CHECK_TOL)]
        e_ad_h_m = t_inv[:, None, r:] @ imgs
        if None in refusals:  # effectiveness, from the first passing member
            action = e_ad_h_m[refusals.index(None)].reshape(r, (n - r) ** 2)
            ideal = stacked_kernels(action.T, tol)[1]
            if ideal:
                raise ValueError(
                    f"the pair is not effective: an ideal of dimension "
                    f"{ideal} lies inside the isotropy")
        if not stacked:
            if refusals[0]:
                raise ValueError(refusals[0])
            m, t_inv, e_ad_h_m = complement.basis, t_inv[0], e_ad_h_m[0]
        self.complement = complement
        #: Per member, its refusal or None; one None broadcasts to any stack.
        self._refusals = np.array(refusals, dtype=object)

        self.h_basis = h
        self.m_basis = m
        #: Value of a Killing field at the base point, as a matrix:
        #: tangent coordinates of the field with algebra coefficients x
        #: are ``eval_matrix @ x``.
        self.eval_matrix = t_inv[..., r:, :]
        #: Tangent part of ad(h) m, the metric-free factor of the skew check.
        self._e_ad_h_m = e_ad_h_m

    def _members(self, rows) -> "Presentation":
        """The stack of members ``rows``; one complement serves every row."""
        if self.m_basis.ndim == 2:
            return self
        part = Presentation.__new__(Presentation)
        vars(part).update(vars(self))
        for name in ("_refusals", "m_basis", "eval_matrix", "_e_ad_h_m"):
            setattr(part, name, getattr(self, name)[rows])
        return part

    @property
    def dim(self) -> int:
        """Dimension of the space (= dimension of the complement)."""
        return self.m_basis.shape[-1]

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Value at the base point of the field x, or of each column of x."""
        return self.eval_matrix @ _coordinates("field", x, self.algebra.dim,
                                               "algebra", 2)

    def lift(self, v: np.ndarray) -> np.ndarray:
        """The complement lift of a tangent vector, or of each column."""
        return self.m_basis @ _coordinates("tangent vector", v, self.dim,
                                           "space", 2)

    def space(self, metric: BilinearForm, label: str = "") -> "HomogeneousSpace":
        """This presentation with ``metric``, by the metric checks alone."""
        sp = HomogeneousSpace.__new__(HomogeneousSpace)
        vars(sp).update(vars(self))
        sp._set_metric(metric, label)
        return sp


class HomogeneousSpace(Presentation):
    """A :class:`Presentation` with an invariant ``metric`` (a
    :class:`~symidx.liealg.BilinearForm` on the tangent space, in complement
    coordinates) and a display ``label``.  After the presentation's checks,
    raises ``ValueError`` if the metric is not positive definite or the
    isotropy fails to act by metric-skew operators on the complement.
    """

    def __init__(self, algebra: LieAlgebra, isotropy: Subspace,
                 metric: BilinearForm, complement: Subspace | None = None,
                 label: str = "", tol: float = DEFAULT_TOL):
        super().__init__(algebra, isotropy, complement, tol)
        self._set_metric(metric, label)

    def _set_metric(self, metric: BilinearForm, label: str) -> None:
        if self.m_basis.ndim == 3:
            raise ValueError(f"a stack of size {len(self.m_basis)} is no space")
        if metric.dim != self.dim:
            raise ValueError(
                f"metric dimension {metric.dim} does not match the "
                f"complement dimension {self.dim}")
        refusal = _metric_refusals(self, metric.gram[None])[0]
        if refusal:
            raise ValueError(refusal)
        self.metric = metric
        self.label = label
        vars(self).pop("_nabla_basis", None)  # one copied by space()

    def nabla_at_base(self, x: np.ndarray) -> np.ndarray:
        """Covariant derivative at the base point of the Killing field x.

        Returns the matrix N with ``N @ u = nabla_u X`` in tangent
        coordinates (one per column of a matrix x, stacked first).  Comes
        from the Koszul identity in the module
        docstring; metric invariance under the isotropy (validated at
        construction) makes the three lift-dependent terms cancel.
        """
        x = _coordinates("field", x, self.algebra.dim, "algebra", 2)
        return np.tensordot(x, self._nabla_basis, axes=(0, 0))

    def nabla_operator(self) -> np.ndarray:
        """All base point derivatives at once: shape (dim^2, algebra dim).

        Column i is ``nabla_at_base(e_i)`` flattened; the kernel of this
        matrix is the space of Killing fields parallel at the base point.
        """
        return self._nabla_basis.reshape(self.algebra.dim, self.dim ** 2).T

    @cached_property
    def _nabla_basis(self) -> np.ndarray:
        """Slice ``[i]`` is :meth:`nabla_at_base` of basis vector i; the
        derivative is linear in the field, so contracting this stack with
        coefficients gives any field's (computed once, read-only)."""
        nablas = _nablas(self, self.metric.gram[None])[0]
        nablas.flags.writeable = False
        return nablas


def _metric_refusals(pres: Presentation, grams: np.ndarray) -> list:
    """Why :class:`HomogeneousSpace` refuses each metric of ``grams``
    (N, dim, dim) on ``pres``, or None where it takes it: the one metric
    rule of a space and a sweep.  A metric must be positive definite, its
    smallest eigenvalue over the largest or 1 exceeding ``pres.tol``, and
    each isotropy vector must act skew-symmetrically, the largest entry of
    ``G A + (G A)^T`` for its action A at most
    :data:`~symidx.liealg.CHECK_TOL`; per member of a stack, after its own."""
    if pres.m_basis.ndim == 3 and len(grams) != len(pres.m_basis):
        raise ValueError(f"a stack of size {len(pres.m_basis)} takes one "
                         f"metric per member, got {len(grams)}")
    w = np.linalg.eigvalsh(grams) if pres.dim else np.ones((len(grams), 1))
    ops = grams[:, None] @ pres._e_ad_h_m
    skew = np.abs(ops + ops.swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
    definite = w[:, 0] / np.maximum(1.0, w[:, -1]) > pres.tol
    not_skew = skew > CHECK_TOL
    refusals = list(np.broadcast_to(pres._refusals, len(grams)))
    for i in np.flatnonzero(~definite | not_skew.any(axis=1)).tolist():
        if refusals[i]:  # the presentation's checks come first
            continue
        if not definite[i]:
            refusals[i] = "metric is not positive definite"
            continue
        a = int(not_skew[i].argmax())
        refusals[i] = (
            f"isotropy vector {a} does not act skew-symmetrically for the "
            f"metric (residual {skew[i, a]:.3e}); the metric is not invariant")
    return refusals


def _nablas(pres: Presentation, grams: np.ndarray) -> np.ndarray:
    """Shape (N, algebra dim, dim, dim): :attr:`HomogeneousSpace._nabla_basis`
    for each metric of ``grams``, by the Koszul identity."""
    alg, e, m = pres.algebra, pres.eval_matrix, pres.m_basis
    ge = (grams @ e)[:, None]
    gv = ge @ alg.ad_stack @ m[..., None, :, :]
    # brackets of complement lifts, evaluated at the base point
    mm = np.einsum("...kab,...ck->...abc", brackets(alg, m, m), e)
    term2 = np.moveaxis(mm @ ge, -1, 1)
    rhs = 0.5 * (gv - gv.swapaxes(-1, -2) + term2)
    return np.linalg.inv(grams)[:, None] @ rhs.swapaxes(-1, -2)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class TransvectionReport:
    """Killing fields parallel at the base point and what they generate.

    ``p_space`` collects the fields with vanishing covariant derivative at the
    base point, ``k_space`` the span of their pairwise brackets, and
    ``s_space`` the tangent subspace of their values.  A Killing field is fixed
    by its value and derivative there, and :class:`Presentation` validates that
    the pair is effective, so evaluation is injective on ``p_space``: ``index``
    is the dimension of both, ``coindex`` the tangent codimension.  ``[X, Y]``
    of X, Y in ``p_space`` has value ``nabla_X Y - nabla_Y X = 0``, so
    ``k_space`` lies in the isotropy and ``dim_transvection = dim k + dim p``.
    ``involutive_ok`` is ``[k, p] in p`` and ``[k, k] in k``, certified or
    checked with the same decision (:func:`_transvections`).
    All of it is relative to the supplied algebra of Killing fields.
    """

    p_space: Subspace
    k_space: Subspace
    s_space: Subspace
    index: int
    coindex: int
    dim_transvection: int
    involutive_ok: bool


@dataclass(eq=False)
class BoundReport:
    """Dimension bound for the complementary factor of the symmetry ideal.

    ``gD`` is the largest ideal of the algebra containing only fields
    tangent to the distinguished foliation (isotropy plus ``p_space``, or
    plus the lifted ``s_space``), ``g_prime`` its orthogonal ideal
    complement for the ad-invariant reference form.  The report compares
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
    orthonormal for the metric (canonical within each cluster of equal
    eigenvalues, see :func:`~symidx.liealg.pencil_eigh`), ``operator`` is
    the full matrix in tangent coordinates, and ``psd_ok`` and
    ``selfadjoint_residual`` record positive semidefiniteness and, from the
    tensor R, symmetry of G R up to roundoff.  The generating field is
    normalized to unit speed at the base point and returned in ``direction``.
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

def transvection_space(sp: HomogeneousSpace) -> TransvectionReport:
    """Compute the parallel-at-base Killing fields and the symmetry index.

    The kernel of the stacked derivative operator gives ``p_space``, whose
    dimension is the index of symmetry (relative to the supplied algebra),
    and its values at the base point ``s_space``.  The pair
    ``k_space + p_space`` is tested for the expected bracket relations
    ``[k, k] in k`` and ``[k, p] in p``, certified or checked with the same
    decision.  This is the one-metric case of :func:`transvection_stack`.
    """
    return _transvections(sp, sp._nabla_basis[None])[0][0]


#: Most metrics of one stacked call: all 190 of a sweep's grid at once add
#: 3 MiB to its peak memory, chunks of 32 under one.
_STACK_ROWS = 32


def transvection_stack(pres: Presentation, grams: np.ndarray) -> tuple:
    """:func:`transvection_space` and the sign of the curvature for each
    metric of ``grams`` (N, dim, dim) on ``pres``, in stacked calls: one
    for the metric checks, then per chunk of at most ``_STACK_ROWS`` metrics
    one each for the derivatives and the parallel fields, and one per group
    with parallel fields of one dimension for the spans and the curvature
    operators, with the one-metric cutoffs.

    Returns ``(reports, psd_ok, refused)``.  ``reports[i]`` is None where
    :class:`HomogeneousSpace` refuses the metric.  Of the curvature
    candidates, the tangent basis directions and the parallel fields,
    ``refused[i]`` counts those :func:`jacobi_operator` raises on, and
    ``psd_ok[i]`` holds when the others' operators are all psd by
    :func:`_stacked_psd`.
    """
    grams = np.asarray(grams, dtype=float).reshape(-1, pres.dim, pres.dim)
    kept = np.flatnonzero([r is None for r in _metric_refusals(pres, grams)])
    reports = [None] * len(grams)
    psd_ok, refused = np.zeros(len(grams), bool), np.zeros(len(grams), int)
    for lo in range(0, len(kept), _STACK_ROWS):
        rows = kept[lo:lo + _STACK_ROWS]
        part = pres._members(rows)
        nablas = _nablas(part, grams[rows])
        found, groups = _transvections(part, nablas)
        for group, p in groups:
            sub, gs = part._members(group), grams[rows[group]]
            ms = sub.m_basis * np.ones((len(group), 1, 1))
            # each candidate's first failing precondition and lowered operator
            first, go = _curvature(sub, gs, nablas[group],
                                   np.concatenate([ms, p], axis=-1))[2::2]
            out = first >= 0
            psd_ok[rows[group]] = np.all(_stacked_psd(gs, go) | out, axis=1)
            refused[rows[group]] = out.sum(axis=1)
            del go  # else alive at the next chunk's peak memory
        for i, report in zip(rows.tolist(), found):
            reports[i] = report
    return reports, psd_ok, refused


def _transvections(pres: Presentation, nablas: np.ndarray) -> tuple:
    """The reports of :func:`transvection_stack` for metrics that pass the
    metric checks, given their :func:`_nablas`, in stacked calls per group
    of equal ``p_space``, then ``k_space``, dimension.  These two rank
    decisions make a report; the rest follows by the theorems of
    :class:`TransvectionReport`.  ``involutive_ok`` is ``[k, p] in p``,
    checked, and ``[k, k] in k``, which follows from it in exact arithmetic:
    checked only where :func:`_kk_certificate` exceeds CHECK_TOL / 2, as a
    smaller certificate means the check would pass.

    The certificate bounds |[v, w] - K K^T [v, w]| for columns v, w = K e_j
    of K, the first r columns of U in B = U S V^T, B (n, m) the brackets
    [p_a, p_b], a < b, of the parallel fields P (n, k).  u is the unit
    roundoff, A = |structure|_F, so |[x, y]| <= A |x| |y|, and eta =
    (n + m) u s_1 + 2 n sqrt(m) u A bounds the rounding of B and its SVD
    (orthonormality taken to first order in u).  So w = B c + d with
    c = V_r S_r^-1 e_j, |c| <= 1 / s_r and |d| <= eta / s_r.  Let C be upper
    triangular with entries c, C' = C - C^T, X(M) = sum_ij M_ij [e_i, e_j],
    and ad_v P = P beta + L with beta = P^T ad_v P, |beta| <= A, and L the
    [k, p] leak of v.  The Leibniz rule with the defect D(v, x, y) =
    [v, [x, y]] - [[v, x], y] - [x, [v, y]] gives
        [v, B c] = B g + X(L C P^T) + X(P C L^T) + D(v, P C P^T),
    g the upper entries of beta C' + C' beta^T, |g| <= 2 A |c|.  Out of K,
    B g leaks at most (s_{r+1} + eta) |g|; the X terms are at most
    2 A |L|_F |c|; D is at most n^{3/2} J |c|, as |D(e_i, e_j, e_k)| <= J
    (inf unless the tensor is antisymmetric, as B g needs [p_a, p_a] = 0);
    and [v, d] at most A |d|.  So
        leak <= (A (2 s_{r+1} + 2 |L|_F + 3 eta) + n^{3/2} J) / s_r,
    over a group with its largest s_1, s_{r+1} and |L|_F, the last the
    [k, p] check's plus 2 sqrt(k) (n + k) u A of rounding, and its least
    s_r; (n + r)^2 u A more covers the rounding of the check itself.

    Returns ``(reports, groups)``: per ``p_space`` dimension, ``groups``
    holds the positions of its metrics and their stacked ``p_space`` bases."""
    alg, tol, n = pres.algebra, pres.tol, pres.algebra.dim
    v, nullity = stacked_kernels(
        nablas.reshape(len(nablas), n, pres.dim ** 2).swapaxes(-1, -2), tol)
    reports, groups = [None] * len(nablas), []
    for k, group in equal_groups(nullity):
        p = v[group, :, n - k:]
        groups.append((group, p))
        s = stacked_frames(pres._members(group).eval_matrix @ p)
        first, second = pair_indices(k)
        kb, k_rank, sv = stacked_spans(
            brackets(alg, p, p)[..., first, second], tol)
        for r, sub in equal_groups(k_rank):
            kk, pp = kb[sub, :, :r], p[sub]
            # [p, k] = -[k, p], from the adjoints of the thin p, not of kk
            inside, leaks = stacked_contains(pp, brackets(alg, pp, kk))
            involutive = inside.all(axis=-1)
            if r and involutive.any() and not _kk_certificate(
                    alg, sv[sub], r, k, leaks) <= CHECK_TOL / 2:  # or nan
                kc = kk[involutive]  # [k, k] in k, checked
                involutive[involutive] = stacked_contains(
                    kc, brackets(alg, kc, kc))[0].all(axis=-1)
            for j, g in enumerate(sub.tolist()):
                reports[group[g]] = TransvectionReport(
                    p_space=Subspace._orthonormal(n, p[g]),
                    k_space=Subspace._orthonormal(n, kk[j]),
                    s_space=Subspace._orthonormal(pres.dim, s[g]),
                    index=k, coindex=pres.dim - k, dim_transvection=k + r,
                    involutive_ok=bool(involutive[j]))
    return reports, groups


def _kk_certificate(alg: LieAlgebra, sv: np.ndarray, r: int, k: int,
                    leaks: np.ndarray) -> float:
    """:func:`_transvections`' bound on the [k, k] leak of a group of
    metrics, from its [p, p] singular values (N, .), r >= 1, and squared
    [k, p] leaks; the k of one column of K sum to at most k times the most."""
    n, m, u, a = alg.dim, k * (k - 1) // 2, 0.5 * math.ulp(1.0), alg._norm
    eta = ((n + m) * float(sv[:, 0].max()) + 2 * n * math.sqrt(m) * a) * u
    tail = float(sv[:, r].max()) if r < sv.shape[1] else 0.0
    ell = math.sqrt(k * float(leaks.max())) + 2 * math.sqrt(k) * (n + k) * u * a
    return ((a * (2 * (tail + ell) + 3 * eta) + n ** 1.5 * alg._jacobi_bound)
            / float(sv[:, r - 1].min()) + (n + r) ** 2 * u * a)


def symmetry_ideal(sp: Presentation,
                   report: TransvectionReport | None = None) -> BoundReport:
    """Split off the ideal responsible for the parallel directions: the
    one-report case of :func:`symmetry_ideals`.  Only the presentation of
    ``sp`` is read; ``report`` defaults to :func:`transvection_space`'s.
    """
    if report is None:
        report = transvection_space(sp)
    return symmetry_ideals(sp, [report])[0]


def symmetry_ideals(pres: Presentation, reports: list) -> list:
    """The :class:`BoundReport` of each transvection report of ``reports``
    on ``pres`` (of member i of a stack), in stacked calls per group of
    equal index; a None report, a refused metric, gives None.

    Seeds the largest-ideal iteration of :func:`invariant_subspaces` with
    the isotropy plus ``p_space``, of full rank (:class:`TransvectionReport`)
    and the span of the isotropy plus the lifted ``s_space``, as each field
    is its isotropy part plus the lift of its value.  Its complement for
    the nondegenerate ad-invariant form, of dimension n - dim gD, is again
    an ideal (internal error if the numerics disagree) and enters the
    bound ``2 dim(g_prime) <= k (k + 1)``.  A seed of n columns, coindex 0,
    is the whole algebra by that full rank: gD is the identity and
    ``g_prime`` empty, with no factorization.
    """
    alg, tol, n = pres.algebra, pres.tol, pres.algebra.dim
    ideals = []  # (rows of reports, stacked bases of their gD)
    kept = [i for i, report in enumerate(reports) if report is not None]
    for _, group in equal_groups([reports[i].index for i in kept]):
        group = np.array(kept)[group]
        p = np.array([reports[i].p_space.basis for i in group.tolist()])
        seeds = np.concatenate([pres.h_basis[None].repeat(len(p), 0), p], -1)
        if seeds.shape[-1] == n:  # of full rank: gD = g, by theorem
            ideals.append((group, np.eye(n)[None].repeat(len(p), 0)))
            continue
        ideals += [(group[rows], g_d) for rows, g_d in invariant_subspaces(
            alg.ad_stack, stacked_frames(seeds), tol)]

    q = reference_form(alg, tol).gram
    out = [None] * len(reports)
    for rows, g_d in ideals:
        d = g_d.shape[-1]
        g_prime = (stacked_kernels(g_d.swapaxes(-1, -2) @ q)[0][:, :, d:]
                   if d < n else g_d[..., :0])
        # the complement of 0 or of the whole algebra is an ideal exactly
        worst = (np.abs(stacked_leaks(alg.ad_stack, g_prime)).max(
            axis=(-2, -1)) if 0 < d < n else np.zeros(1))
        if worst.max() > CHECK_TOL:
            raise RuntimeError(
                f"internal: complement of the symmetry ideal is not an ideal "
                f"(residual {worst[worst > CHECK_TOL][0]:.3e})")
        for j, i in enumerate(rows.tolist()):
            k = reports[i].coindex
            lhs, rhs = 2 * (n - d), k * (k + 1)
            out[i] = BoundReport(
                gD=Subspace._orthonormal(n, g_d[j]),
                g_prime=Subspace._orthonormal(n, g_prime[j]),
                k=k, lhs=lhs, rhs=rhs, equality=lhs == rhs)
    return out


def perpendicular_killing_space(sp: HomogeneousSpace,
                                report: TransvectionReport | None = None
                                ) -> Subspace:
    """Largest bracket-stable space of fields orthogonal to ``s_space``.

    Starts from the fields whose value at the base point is orthogonal to
    ``s_space``, n - index of them as evaluation is onto, and shrinks to
    the largest subspace invariant under ``k_space`` and ``p_space``.
    """
    if report is None:
        report = transvection_space(sp)
    rows = report.s_space.basis.T @ sp.metric.gram @ sp.eval_matrix
    seed = Subspace._orthonormal(
        sp.algebra.dim, stacked_kernels(rows)[0][:, report.index:])
    gens = np.hstack([report.k_space.basis, report.p_space.basis])
    return largest_invariant_subspace(sp.algebra, gens, seed, sp.tol)


# ---------------------------------------------------------------------------
# curvature along homogeneous geodesics
# ---------------------------------------------------------------------------

#: Why a field has no curvature operator, by the precondition it fails
#: first; each message takes the failing residual of :func:`_unit_fields`.
_CURVATURE_REFUSALS = (
    "field evaluates to zero at the base point; it generates no geodesic "
    "direction",
    "orbit of the field is not a geodesic at the base point (covariant "
    "derivative along itself has norm {:.3e})",
)


def _unit_fields(pres: Presentation, grams: np.ndarray, nablas: np.ndarray,
                 xs: np.ndarray) -> tuple:
    """The preconditions of :func:`_curvature` on its arguments, and the
    products they read: ``(x, c, n_c, along, residuals, first)`` by metric
    and column, the field at unit speed (where its speed, the length of its
    value at the base point, exceeds ``CHECK_TOL``), its value c', N_C,
    N_C c', that speed and the length of N_C c' on a last axis, and the
    index into :data:`_CURVATURE_REFUSALS` of the first to fail, or -1."""
    (rows, n, dim, _), k = nablas.shape, xs.shape[-1]
    # candidates as contiguous columns on a stack axis: bits independent of K
    x = np.ascontiguousarray(xs.swapaxes(-1, -2))[..., None]
    vals = pres.eval_matrix[..., None, :, :] @ x
    speed = np.sqrt(((grams[:, None] @ vals) * vals).sum(axis=(-2, -1)))
    scale = np.where(speed > CHECK_TOL, speed, 1.0)[..., None, None]
    x, c = x / scale, vals / scale
    n_c = (x.swapaxes(-1, -2) @ nablas.reshape(rows, 1, n, dim * dim)
           ).reshape(rows, k, dim, dim)
    along = n_c @ c
    residuals = np.stack([speed, np.linalg.norm(along[..., 0], axis=-1)], -1)
    failed = (residuals > CHECK_TOL) != [True, False]
    first = np.where(failed.any(axis=-1), failed.argmax(axis=-1), -1)
    return x, c, n_c, along, residuals, first


def _curvature(pres: Presentation, grams: np.ndarray, nablas: np.ndarray,
               xs: np.ndarray) -> tuple:
    """The curvature operators R(., c')c' along the orbit geodesics of the
    fields ``xs`` (N, algebra dim, K), and whether each is defined, for
    metrics ``grams`` (N, dim, dim) with their :func:`_nablas`, all at once,
    by Kostant's identity for Killing fields: R(u, v) = [N_U, N_V] + N_[U,V]
    at the base point, N_X = ``nabla_at_base(X)``.  So column a is
    N_U (N_C c') - N_C (N_U c') + N_[U,C] c', U the lift of tangent basis
    vector a and C the field at unit speed, of value c'.

    Returns ``(fields, residuals, first, ops, lowered)``, indexed by metric
    and column: the field at unit speed, ``residuals`` and ``first`` of
    :func:`_unit_fields`, R(., c')c', and the metric times it.
    """
    x, c, n_c, along, residuals, first = _unit_fields(pres, grams, nablas, xs)
    (rows, n, dim, _), k = nablas.shape, xs.shape[-1]
    # rows (w, b), columns i: (N_{e_i} w)_b for w = N_C c' and c'; then
    # N_[C,U] c' and N_U w
    q = (np.concatenate([along, c], axis=-1).swapaxes(-1, -2)
         @ np.ascontiguousarray(nablas.transpose(0, 3, 2, 1)).reshape(
             rows, 1, dim, dim * n)).reshape(rows, k, 2 * dim, n)
    m = pres.m_basis[..., None, :, :]
    n_bracket = q[..., dim:, :] @ (adjoints(pres.algebra, x)[..., 0, :, :] @ m)
    n_u = q @ m
    del q  # before the last products, for the peak memory of a stack
    op = n_u[..., :dim, :] - n_c @ n_u[..., dim:, :] - n_bracket
    return x[..., 0], residuals, first, op, grams[:, None] @ op


def _refuse_curvature(first: int, residuals: np.ndarray) -> None:
    """Raise refusal ``first`` of a field of :func:`_curvature`, unless -1."""
    if first >= 0:
        raise ValueError(_CURVATURE_REFUSALS[first].format(residuals[first]))


def _stacked_psd(grams: np.ndarray, lowered: np.ndarray) -> np.ndarray:
    """Whether each operator ``lowered`` (N, K, dim, dim) of :func:`_curvature`
    for the metrics ``grams`` (N, dim, dim) is psd by :func:`jacobi_operator`'s
    rule, smallest eigenvalue at least ``-CHECK_TOL``: one ``eigvalsh`` of
    the operators whitened by the Cholesky factors of the metrics."""
    white = np.linalg.inv(np.linalg.cholesky(grams))[:, None]
    w = np.linalg.eigvalsh(white @ (0.5 * (lowered + lowered.swapaxes(-1, -2)))
                           @ white.swapaxes(-1, -2))
    return np.all(w >= -CHECK_TOL, axis=-1)


def jacobi_operator(sp: HomogeneousSpace, x: np.ndarray) -> JacobiSpectrum:
    """Curvature operator R(., c')c' along the orbit geodesic of the field
    with algebra coefficients ``x``, by :func:`_curvature`.  The field is
    rescaled to unit speed at the base point, so the eigenvalues are
    sectional curvatures of the planes of the direction and eigenvectors;
    ``psd_ok`` allows a smallest eigenvalue down to ``-CHECK_TOL``.

    Raises
    ------
    ValueError
        If the field is not ``algebra.dim`` finite real coefficients, its
        speed at the base point is at most :data:`~symidx.liealg.CHECK_TOL`,
        or its covariant derivative along itself has norm above
        ``CHECK_TOL``: its orbit is not a geodesic.
    """
    x = _coordinates("field", x, sp.algebra.dim, "algebra")
    xn, residuals, first, op, go = (v[0, 0] for v in _curvature(
        sp, sp.metric.gram[None], sp._nabla_basis[None], x[None, :, None]))
    _refuse_curvature(first, residuals)
    w, vecs = pencil_eigh(0.5 * (go + go.T), sp.metric.gram, CHECK_TOL)
    return JacobiSpectrum(
        direction=xn, operator=op, eigenvalues=w, eigenvectors=vecs,
        psd_ok=bool(w[0] >= -CHECK_TOL),
        selfadjoint_residual=float(np.abs(go - go.T).max(initial=0.0)),
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
    along the orbit, with ``t`` the arc length, where the operator is
    constant: the field of ``direction`` must be parallel at the base point.

    Returns an array of tangent coordinates, one row per entry of ``t``
    (or a single vector for scalar ``t``).  Raises ``ValueError`` unless
    ``v0``, ``w0`` (``dim`` each) and ``t`` are finite real numbers and no
    entry of the derivative of that field exceeds ``CHECK_TOL``.
    """
    v0 = _coordinates("v0", v0, sp.dim, "space")
    w0 = _coordinates("w0", w0, sp.dim, "space")
    t_arr = np.atleast_1d(_real("t", t))
    _refuse_non_finite("t", t_arr)
    drift = np.abs(sp.nabla_at_base(spectrum.direction)).max(initial=0.0)
    if drift > CHECK_TOL:
        raise ValueError(f"direction of the spectrum is not parallel at the "
                         f"base point (derivative {drift:.3e})")
    g = sp.metric.gram
    cv = spectrum.eigenvectors.T @ g @ v0
    cw = spectrum.eigenvectors.T @ g @ w0
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

def augment_left_invariant(sp: HomogeneousSpace) -> HomogeneousSpace:
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
    if sp.isotropy.dim != 0:
        raise ValueError("augmentation needs trivial isotropy "
                         "(a group manifold presentation)")
    alg = sp.algebra
    n = alg.dim
    form = sp.eval_matrix.T @ sp.metric.gram @ sp.eval_matrix
    a = bi_invariant_directions(alg, form, sp.tol)
    q = a.dim
    if q == 0:
        return sp

    structure = np.zeros((n + q, n + q, n + q))
    structure[:n, :n, :n] = alg.structure
    first, second = pair_indices(q)
    w = -brackets(alg, a.basis, a.basis)[:, first, second]
    coeffs = a.basis.T @ w  # the basis of a kernel is orthonormal
    resids = np.linalg.norm(a.basis @ coeffs - w, axis=0)
    bad = np.flatnonzero(resids > CHECK_TOL)
    if bad.size:
        raise RuntimeError("internal: bi-invariant directions do not close "
                           f"under the bracket (residual {resids[bad[0]]:.3e})")
    structure[n + first, n + second, n:] = coeffs.T
    structure[n + second, n + first, n:] = -coeffs.T
    labels = alg.basis_labels + tuple(f"op{r + 1}" for r in range(q))
    big = LieAlgebra(n + q, labels, structure)

    iso = Subspace(n + q, np.vstack([a.basis, -np.eye(q)]))
    comp = Subspace(n + q, np.vstack([sp.m_basis, np.zeros((q, sp.dim))]))
    return HomogeneousSpace(big, iso, sp.metric, complement=comp,
                            label=(sp.label + " (augmented)") if sp.label
                            else "augmented", tol=sp.tol)


# ---------------------------------------------------------------------------
# closed orbit geodesics
# ---------------------------------------------------------------------------

def closed_geodesic_length(sp: HomogeneousSpace, representation: np.ndarray,
                           x: np.ndarray) -> float:
    """Length of the closed orbit geodesic generated by the field x.

    The period is that of the one-parameter group ``exp(t X)`` in the
    supplied matrix representation, found from the purely imaginary
    eigenvalue frequencies; the length is the period times the speed at
    the base point.  If the representation is a cover or quotient of the
    isometry group the period, and hence the length, refers to that group.

    Raises
    ------
    ValueError
        If the field is not ``algebra.dim`` finite real coefficients, the
        representation not one finite square matrix per field, the orbit
        not a geodesic at the base point, the generator has eigenvalues off
        the imaginary axis (no periodic flow), the ratio of some frequency to
        the smallest one is not within relative
        :data:`~symidx.liealg.CHECK_TOL` of a fraction with denominator at
        most :data:`MAX_WINDING_DENOMINATOR` (incommensurable, or winding too
        finely to resolve), or the field is in the kernel of the
        representation.
    """
    x = _coordinates("field", x, sp.algebra.dim, "algebra")
    rep = np.asarray(representation)
    if rep.ndim != 3 or rep.shape[::2] != (sp.algebra.dim, rep.shape[1]):
        raise ValueError(f"representation has shape {rep.shape}, not one "
                         f"square matrix for each of {sp.algebra.dim} fields")
    _refuse_non_finite("representation", rep)
    residuals, first = (v[0, 0] for v in _unit_fields(
        sp, sp.metric.gram[None], sp._nabla_basis[None], x[None, :, None])[4:])
    _refuse_curvature(first, residuals)
    gen = np.einsum("i,ijk->jk", x, rep)
    cutoff = CHECK_TOL * max(1.0, float(np.max(np.abs(gen))))
    eig = np.linalg.eigvals(gen)
    if float(np.max(np.abs(eig.real))) > cutoff:
        raise ValueError("generator has eigenvalues off the imaginary axis; "
                         "the flow is not periodic")
    freqs = np.abs(eig.imag)
    freqs = freqs[freqs > cutoff]
    if freqs.size == 0:
        raise ValueError("field is in the kernel of the representation; "
                         "no period is defined")
    freqs.sort()
    base = freqs[0]
    multiples = []
    for f in (freqs[c.start] for c in eigenvalue_clusters(freqs, cutoff)):
        ratio = f / base
        frac = Fraction(ratio).limit_denominator(MAX_WINDING_DENOMINATOR)
        if abs(float(frac) - ratio) > CHECK_TOL * ratio:
            raise ValueError(
                f"frequencies {base:.6g} and {f:.6g} are incommensurable "
                f"(ratio {ratio:.12g} is {abs(float(frac) - ratio):.3e} from "
                f"{frac}, the nearest fraction with denominator at most "
                f"{MAX_WINDING_DENOMINATOR}); the orbit does not close")
        multiples.append(frac)
    steps = math.lcm(*[fr.denominator for fr in multiples])
    period = 2.0 * math.pi * steps / base
    return float(period * residuals[0])
