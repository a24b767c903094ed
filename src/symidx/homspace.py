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
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property

import numpy as np

from .liealg import (
    CHECK_TOL,
    DEFAULT_TOL,
    BilinearForm,
    LieAlgebra,
    Subspace,
    _chunks,
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
        ad-invariant reference form.  Only a single complement takes a
        metric.  A sequence is a stack, kept as a tuple, one position per
        metric of :func:`transvection_stack`, read through ``_members``:
        each distinct object in it is one member, validated once and
        refused alone.
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
        relative to its length), a stack is empty or has a member of another
        shape, the complement does not complete the isotropy to the whole
        algebra or is not reductive, the isotropy's brackets or its action
        on a complement overflow (named so, where they decide a check), the
        brackets of a complement overflow (named so), or the pair is not
        effective: a nonzero ideal of the algebra lies in the isotropy.
        As ``[h, m]`` lies in ``m``, the x in ``h`` with ``[x, m]`` in ``h``
        have ``[x, m] = 0`` and, by the Jacobi identity, form the largest
        such ideal, of dimension the nullity at ``tol`` of x -> tangent part
        of ``[x, m]`` on the first member that passes the complement checks.
        A stack with no such member is built and refuses each metric.
    """

    @np.errstate(over="ignore", invalid="ignore")  # overflows refused below
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
            leaks = np.flatnonzero(~(np.linalg.norm(out, axis=-1)
                                     <= CHECK_TOL))  # nan too
            if leaks.size:  # the relative floor decides these
                if not np.isfinite(out[leaks]).all():
                    raise ValueError("the brackets of the isotropy overflow; "
                                     "rescale its basis")
                hh = (ad_h[first[leaks]] @ h.T[second[leaks], :, None])[..., 0]
                leaks = leaks[~isotropy.contains_columns(hh.T)]
        if leaks.size:
            raise ValueError(
                f"isotropy is not a subalgebra: bracket of basis vectors "
                f"{first[leaks[0]]} and {second[leaks[0]]} leaves it")

        if complement is None:
            complement = orthogonal_complement(algebra, isotropy, tol)
        comps, self._place = [complement], None  # _place: position -> member
        if not isinstance(complement, Subspace):  # == and hash: identity
            complement = tuple(complement)
            ix = {c: i for i, c in enumerate(dict.fromkeys(complement))}
            comps, self._place = list(ix), np.array([ix[c] for c in complement])
        if not comps:
            raise ValueError("an empty stack of complements has no member")
        if comps[0].ambient_dim != n:
            raise ValueError("complement lives in the wrong ambient dimension")
        if r + comps[0].dim != n:
            raise ValueError(
                f"isotropy ({r}) and complement ({comps[0].dim}) do not add "
                f"up to the algebra dimension ({n})")
        for comp in comps:  # a stack's members share its shape
            if comp.basis.shape != (n, n - r):
                raise ValueError(f"complement {complement.index(comp)} of the "
                                 f"stack has shape {comp.basis.shape}, not "
                                 f"({n}, {n - r})")

        # the complement checks, stacked: a single complement is a stack of 1
        m = np.array([comp.basis for comp in comps])
        t = np.concatenate([h[None].repeat(len(m), axis=0), m], axis=-1)
        overlap = numerical_rank(t, tol) < n
        t[overlap] = np.eye(n)  # keeps the inverses of refused members finite
        t_inv = np.linalg.inv(t)
        imgs = ad_h @ m[:, None]
        reductive = np.abs(t_inv[:, None, :r] @ imgs).max(axis=(-2, -1),
                                                           initial=0.0)
        e_ad_h_m = t_inv[:, None, r:] @ imgs
        del t, imgs  # not alive beside the Koszul term
        lift = np.einsum("...kab,...ck->...abc", brackets(algebra, m, m),
                         t_inv[:, r:])
        refusals = [
            "isotropy and complement overlap" if lap else
            None if not bad.any() and np.isfinite(term).all() else
            "the brackets of the complement overflow; rescale its basis"
            if not bad.any() else
            "the action of the isotropy on the complement overflows; "
            "rescale the bases" if not np.isfinite(res).all() else
            f"complement is not reductive: isotropy vector {bad.argmax()} "
            f"maps it outside itself (residual {res[bad.argmax()]:.3e})"
            for lap, res, bad, term in zip(overlap, reductive, ~(
                reductive <= CHECK_TOL), lift)]  # nan too
        if None in refusals:  # effectiveness, from the first passing member
            action = e_ad_h_m[refusals.index(None)].reshape(r, (n - r) ** 2)
            ideal = r - numerical_rank(action.T, tol)
            if ideal:
                raise ValueError(
                    f"the pair is not effective: an ideal of dimension "
                    f"{ideal} lies inside the isotropy")
        if self._place is None:  # 2-D: only a single complement takes a metric
            if refusals[0]:
                raise ValueError(refusals[0])
            m, t_inv, e_ad_h_m, lift = m[0], t_inv[0], e_ad_h_m[0], lift[0]
        self.complement = complement
        self._refusals = np.array(refusals, dtype=object)  # per member

        self.h_basis = h
        self.m_basis = m  # a stack's: per member, read by position in _members
        #: Value of a Killing field at the base point, as a matrix:
        #: tangent coordinates of the field with algebra coefficients x
        #: are ``eval_matrix @ x``.
        self.eval_matrix = t_inv[..., r:, :]
        #: Tangent part of ad(h) m, the metric-free factor of the skew check.
        self._e_ad_h_m = e_ad_h_m
        #: Per member, the Koszul term: [a, b, c], coordinate c of [m_a, m_b].
        self._lift_brackets = lift

    _member = slice(None)  # of a part: its positions' members, see _members

    @property
    def _size(self) -> int | None:
        """Positions of a stack or of a part read by an index array; None
        for the 2-D arrays of one complement, which take a metric."""
        return (None if self.m_basis.ndim == 2 else
                len(self.m_basis if self._place is None else self._place))

    def _members(self, rows) -> "Presentation":
        """The positions ``rows``, each its own member and complement, as a
        stack, or self; a part reads :attr:`_lift_brackets` at ``_member``.
        An int position gives a one-member part, with the 2-D arrays of a
        single complement, which :class:`~symidx.numcheck.ExponentialChart`
        accepts and which takes a metric by :meth:`space`."""
        if self._size is None:
            return self
        at = rows if self._place is None else self._place[rows]
        own = np.arange(self._size)[rows].tolist()  # the part's positions
        part = Presentation.__new__(Presentation)
        vars(part).update(vars(self), _place=None, _member=(
            self._member[at] if self._place is None else at), complement=(
            self.complement[own] if isinstance(own, int) else
            tuple(map(self.complement.__getitem__, own))))
        for name in ("_refusals", "m_basis", "eval_matrix", "_e_ad_h_m"):
            setattr(part, name, getattr(self, name)[at])
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
        if self._size is not None:
            raise ValueError(f"a stack of size {self._size} is no space")
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
    :data:`~symidx.liealg.CHECK_TOL`, a check that overflows refused as
    such; per position, after its member's.  ``pres`` is a space or a
    part of :meth:`~Presentation._members`: one entry per position."""
    w = np.linalg.eigvalsh(grams) if pres.dim else np.ones((len(grams), 1))
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        ops = grams[:, None] @ pres._e_ad_h_m
        skew = np.abs(ops + ops.swapaxes(-1, -2)).max(axis=(-2, -1),
                                                      initial=0.0)
    definite = w[:, 0] / np.maximum(1.0, w[:, -1]) > pres.tol
    not_skew = ~(skew <= CHECK_TOL)  # nan where a product overflows
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
            f"metric (residual {skew[i, a]:.3e}); the metric is not invariant"
            if np.isfinite(skew[i]).all() else
            "the skew check of the metric overflows; rescale the metric")
    return refusals


def _nablas(pres: Presentation, grams: np.ndarray) -> np.ndarray:
    """Shape (N, algebra dim, dim, dim): :attr:`HomogeneousSpace._nabla_basis`
    per metric of ``grams`` by the Koszul identity, on the brackets of the
    stack's members, :attr:`~Presentation._lift_brackets`, on a space or a
    part of :meth:`~Presentation._members`.  Homogeneous of degree 0 in the
    metric, it scales each Gram matrix by a power of two first, so that a
    metric near the largest float overflows no product."""
    alg, e, m = pres.algebra, pres.eval_matrix, pres.m_basis
    top = np.frexp(grams.max(axis=(-2, -1), initial=0.0))[1]
    grams = np.ldexp(grams, -top[:, None, None])
    ge = (grams @ e)[:, None]
    gv = ge @ alg.ad_stack @ m[..., None, :, :]
    mm = pres._lift_brackets[pres._member]
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
    checked with the same decision (:func:`_decide_groups`).
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
    plus the lifted ``s_space``), ``g_prime`` its ideal complement: the
    whole algebra where gD is 0, empty where gD is the whole algebra, and
    else the orthogonal complement for the ad-invariant reference form,
    the one case that reads the form and so the one where an algebra not
    of the compact plus abelian kind is refused.  The report compares
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
    return _unstack(TransvectionReport, _decide_groups(
        sp, *_parallel_fields(sp, sp._nabla_basis[None])), sp)[0]


def _bases(groups: list, count: int) -> list:
    """Per metric of ``count``, its subspace in ``groups`` of ``(rows,
    bases)``, or None where no group holds it."""
    subs = [None] * count
    for rows, bases in groups:
        for i, q in zip(rows.tolist(), bases):
            subs[i] = Subspace._orthonormal(len(q), q)
    return subs


def _unstack(cls, stack: dict, pres: Presentation) -> list:
    """The ``cls`` report, :class:`TransvectionReport` or :class:`BoundReport`,
    of each metric of ``stack`` on ``pres``, or None where its index is -1:
    the one place where the arrays become objects and ``s_space`` is formed.
    Each field is read under its own name: a list of ``(rows, bases)``
    groups gives subspaces, an array its entries."""
    index = stack["index"].tolist()
    if cls is TransvectionReport:  # the values of the parallel fields
        stack = dict(stack, s_space=[
            (rows, stacked_frames(pres._members(rows).eval_matrix @ p))
            for rows, p in stack["p_space"]])
    columns = [_bases(v, len(index)) if isinstance(v, list) else v.tolist()
               for v in (stack[f.name] for f in fields(cls))]
    return [cls(*f) if i >= 0 else None for i, f in zip(index, zip(*columns))]


def transvection_stack(pres: Presentation, grams: np.ndarray) -> dict:
    """:func:`transvection_space` and the sign of the curvature of each
    metric of ``grams`` (N, dim, dim) on ``pres`` (at position i of a stack),
    by stacked calls with the one-metric cutoffs per chunk of :func:`_chunks`
    (by the bytes of the derivatives or the curvature): the metric checks,
    then :func:`_nablas` (brackets per member), :func:`_parallel_fields` and
    per index the curvature of those kept; then :func:`_decide_groups`.

    Returns one stacked result, a dict and no report object, whose keys
    are the fields of :class:`TransvectionReport` but ``s_space``, which
    the report forms from ``p_space``, and ``psd_ok`` and ``refused``: per
    metric an array (``index`` -1 where :class:`HomogeneousSpace` refuses
    the metric), per group the ``(rows, bases)`` lists ``p_space`` (one
    group per index) and ``k_space`` of the metrics ``rows``.
    Of the curvature candidates, the tangent basis directions and the
    parallel fields, ``refused`` counts those :func:`jacobi_operator` raises
    on, and ``psd_ok`` holds when the pivots of :func:`_stacked_psd` find
    the others' operators psd.  Other shapes of ``grams`` raise ``ValueError``.
    """
    d, grams = pres.dim, np.asarray(grams, dtype=float)
    if grams.ndim and pres._size not in (None, len(grams)):
        raise ValueError(f"a stack of size {pres._size} takes one metric per "
                         f"member, got {len(grams)}")
    if grams.ndim != 3 or grams.shape[1:] != (d, d):
        raise ValueError(f"metrics of shape {grams.shape}, not (N, {d}, {d})")
    count, n = len(grams), pres.algebra.dim
    index, fields = np.full(count, -1), {}  # fields: per index, chunk groups
    psd_ok, refused = np.zeros(count, bool), np.zeros(count, int)
    # the derivatives, and the curvature of at most 2 d candidates, which
    # takes more than the Koszul products before it
    floats = n * d * d + 2 * d * (n * n + 3 * d * n + 3 * d * d)
    for chunk in _chunks(count, floats):
        refusals = _metric_refusals(pres._members(chunk), grams[chunk])
        rows = np.arange(count)[chunk][[r is None for r in refusals]]
        part, chunk_grams = pres._members(rows), grams[rows]
        nablas = _nablas(part, chunk_grams)
        index[rows], found = _parallel_fields(part, nablas)
        for group, p in found:
            if len(p) == len(rows):  # the whole chunk: views, not copies
                group = slice(None)
            fields.setdefault(p.shape[-1], []).append((rows[group], p))
            sub, gs = part._members(group), chunk_grams[group]
            ms = sub.m_basis * np.ones((len(p), 1, 1))
            # each candidate's first failing precondition and lowered operator
            first, go = _curvature(sub, gs, nablas[group],
                                   np.concatenate([ms, p], axis=-1))[2::2]
            out = first >= 0
            psd_ok[rows[group]] = np.all(_stacked_psd(gs, go) | out, axis=1)
            refused[rows[group]] = out.sum(axis=1)
            del go  # else alive at the next chunk's peak memory
    groups = [tuple(map(np.concatenate, zip(*fields[k])))
              for k in sorted(fields)]
    return dict(_decide_groups(pres, index, groups), psd_ok=psd_ok,
                refused=refused)


def _parallel_fields(pres: Presentation, nablas: np.ndarray) -> tuple:
    """``(index, groups)``: the index of each metric, the nullity of its
    :func:`_nablas` as a map, and per index the ``(rows, bases)`` of its
    kernel: the first rank decision, the one that reads the derivatives."""
    n = pres.algebra.dim
    v, index = stacked_kernels(
        nablas.reshape(len(nablas), n, pres.dim ** 2).swapaxes(-1, -2),
        pres.tol)
    return index, [(group, v[group, :, n - k:])
                   for k, group in equal_groups(index)]


def _decide_groups(pres: Presentation, index: np.ndarray,
                   groups: list) -> dict:
    """The stacked result of :func:`transvection_stack`, but for ``psd_ok``
    and ``refused``, for ``index`` (-1 where refused) and ``groups`` of
    :func:`_parallel_fields`: one pass per group of equal ``p_space``, then
    ``k_space``, dimension, in chunks of :func:`_chunks` by the bytes of the
    adjoints of p.  These two rank decisions decide a metric; the rest
    follows by the theorems of :class:`TransvectionReport`.
    ``involutive_ok`` is ``[k, p] in p``, checked, and ``[k, k] in k``,
    which follows from it in exact arithmetic: checked only where
    :func:`_kk_certificate` exceeds CHECK_TOL / 2, as a smaller certificate
    means the check would pass.

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
    s_r; (n + r)^2 u A more covers the rounding of the check itself."""
    alg, tol, n, count = pres.algebra, pres.tol, pres.algebra.dim, len(index)
    out = {"index": index, "coindex": np.zeros(count, int),
           "dim_transvection": np.zeros(count, int),
           "involutive_ok": np.zeros(count, bool),
           "p_space": groups, "k_space": []}
    for group, p in groups:
        k = p.shape[-1]
        first, second = pair_indices(k)
        out["coindex"][group] = pres.dim - k
        for chunk in _chunks(len(group), 3 * n * n * (k + 1)):
            rows, p_rows = group[chunk], p[chunk]
            kb, k_rank, sv = stacked_spans(
                brackets(alg, p_rows, p_rows)[..., first, second], tol)
            for r, sub in equal_groups(k_rank):
                kk, pp = kb[sub, :, :r], p_rows[sub]
                # [p, k] = -[k, p], from the adjoints of the thin p, not of kk
                inside, leaks = stacked_contains(pp, brackets(alg, pp, kk))
                involutive = inside.all(axis=-1)
                if r and involutive.any() and not _kk_certificate(
                        alg, sv[sub], r, k, leaks) <= CHECK_TOL / 2:  # or nan
                    kc = kk[involutive]  # [k, k] in k, checked
                    involutive[involutive] = stacked_contains(
                        kc, brackets(alg, kc, kc))[0].all(axis=-1)
                at = rows[sub]
                out["k_space"].append((at, kk))
                out["dim_transvection"][at] = k + r
                out["involutive_ok"][at] = involutive
    return out


def _kk_certificate(alg: LieAlgebra, sv: np.ndarray, r: int, k: int,
                    leaks: np.ndarray) -> float:
    """:func:`_decide_groups`' bound on the [k, k] leak of a group of
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
    stack = {"index": np.array([report.index]),
             "coindex": np.array([report.coindex]),
             "p_space": [(np.arange(1), report.p_space.basis[None])]}
    return _unstack(BoundReport, symmetry_ideals(sp, stack), sp)[0]


def symmetry_ideals(pres: Presentation, stack: dict) -> dict:
    """``stack``, a result of :func:`transvection_stack` on ``pres`` (at
    position i of a stack), with the :class:`BoundReport` of each metric but
    those of index -1, each field under its name: one pass per ``p_space``
    group (one per index), in chunks of :func:`_chunks` by the bytes of its
    leak stacks.

    Seeds the largest-ideal iteration of :func:`invariant_subspaces` with
    the isotropy plus ``p_space``, of full rank (:class:`TransvectionReport`)
    and the span of the isotropy plus the lifted ``s_space``, as each field
    is its isotropy part plus the lift of its value.  The complement
    ``g_prime``, of dimension n - dim gD, enters the bound
    ``2 dim(g_prime) <= k (k + 1)``.  Where gD is 0 it is the identity, and
    where gD is the whole algebra it is empty, on any algebra.  Only where
    0 < dim gD < n is it the complement for the nondegenerate ad-invariant
    :func:`~symidx.liealg.reference_form`, again an ideal (internal error
    if the numerics disagree), and only there is the form read: an algebra
    that it refuses, not of the compact plus abelian kind (the Heisenberg
    algebra), is refused there by its ``ValueError``.  A seed of n
    columns, coindex 0, is the whole algebra by that full rank: gD is the
    identity, with no factorization.
    """
    alg, tol, n = pres.algebra, pres.tol, pres.algebra.dim
    ideals = []  # (rows, stacked bases of gD)
    for group, p in stack["p_space"]:
        r = pres.h_basis.shape[-1] + p.shape[-1]
        if r == n:  # a seed of full rank: gD = g, by theorem
            ideals.append((group, np.eye(n)[None].repeat(len(p), 0)))
            continue
        # three copies of the seeds' leak stack (., n, n, r), or g_prime's
        for chunk in _chunks(len(group), n * n * max(3 * r, n)):
            rows = group[chunk]
            seeds = np.concatenate(
                [pres.h_basis[None].repeat(len(rows), 0), p[chunk]], -1)
            ideals += [(rows[sub], g_d) for sub, g_d in invariant_subspaces(
                alg.ad_stack, stacked_frames(seeds), tol)]

    dims, g_ds, g_primes = np.zeros(len(stack["index"]), int), [], []
    for rows, g_d in ideals:
        d = g_d.shape[-1]
        if d in (0, n):  # the complement of 0 or of g, an ideal exactly
            g_prime = (np.eye(n)[None].repeat(len(rows), 0) if d == 0
                       else g_d[..., :0])
        else:
            g_prime = stacked_kernels(g_d.swapaxes(-1, -2) @ reference_form(
                alg, tol).gram)[0][:, :, d:]
            worst = np.abs(stacked_leaks(alg.ad_stack, g_prime)).max(
                axis=(-2, -1))
            if worst.max() > CHECK_TOL:
                raise RuntimeError(
                    f"internal: complement of the symmetry ideal is not an "
                    f"ideal (residual {worst[worst > CHECK_TOL][0]:.3e})")
        dims[rows] = d
        g_ds.append((rows, g_d))
        g_primes.append((rows, g_prime))
    lhs, rhs = 2 * (n - dims), stack["coindex"] * (stack["coindex"] + 1)
    return dict(stack, gD=g_ds, g_prime=g_primes, k=stack["coindex"],
                lhs=lhs, rhs=rhs, equality=lhs == rhs)


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


@np.errstate(over="ignore", invalid="ignore")  # a non-finite R is refused
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
    rule, smallest eigenvalue at least ``-CHECK_TOL``: every pivot of an LDL^T
    without pivoting of A + CHECK_TOL G, A the symmetric part, is > 0.  With
    W = L^-1, G = L L^T: W A W^T + CHECK_TOL I = W (A + CHECK_TOL G) W^T, so
    by Sylvester's law of inertia the rules differ only at a smallest
    eigenvalue of -CHECK_TOL to within rounding, here not psd.  A pivot <= 0
    or nan ends its operator's elimination and raises nothing."""
    a = 0.5 * (lowered + lowered.swapaxes(-1, -2)) + CHECK_TOL * grams[:, None]
    psd = np.ones(a.shape[:-2], bool)
    for j in range(a.shape[-1]):
        psd &= a[..., j, j] > 0
        col = a[..., j + 1:, j] / np.where(psd, a[..., j, j], np.inf)[..., None]
        a[..., j + 1:, j + 1:] -= col[..., None] * a[..., j, None, j + 1:]
    return psd


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
        its covariant derivative along itself has norm above ``CHECK_TOL``
        (its orbit is not a geodesic), or the curvature overflows.
    """
    x = _coordinates("field", x, sp.algebra.dim, "algebra")
    xn, residuals, first, op, go = (v[0, 0] for v in _curvature(
        sp, sp.metric.gram[None], sp._nabla_basis[None], x[None, :, None]))
    _refuse_curvature(first, residuals)
    if not np.isfinite(go).all():
        raise ValueError("the curvature along the field overflows; rescale "
                         "the algebra")
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
