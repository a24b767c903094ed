"""Named example spaces with known symmetry behaviour.

Each named builder returns ``(space, info)``, where ``info`` holds the
family name under ``"family"``, the parameters and construction data:
where available, a matrix representation of the Killing algebra (for
orbit period computations), the embedding or stabilizer the space is
built from, and closed-form metric parameters.  Shapes and expected
values are not part of ``info``: ``symidx verify`` derives them from
the space and checks them.  :func:`orbit_space`, the generic
constructor, returns the space alone.  Parameter ranges are
validated and out-of-range values raise ``ValueError``, which the sweep
command relies on to skip degenerate grid points.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .homspace import HomogeneousSpace, Presentation
from .liealg import (
    DEFAULT_TOL,
    BilinearForm,
    Subspace,
    _flatten_real,
    checked_dim,
    direct_sum,
    matrix_algebra,
    orthogonal_complement,
    quaternion_left_multiplication,
    quaternion_right_multiplication,
    so_elementary,
    spin3_quaternion,
)


# ---------------------------------------------------------------------------
# round spheres
# ---------------------------------------------------------------------------

#: Largest sphere dimension built: so(17), of dimension 136, a little above
#: the algebras of about 100 dimensions this package is meant for.
MAX_SPHERE_DIM = 16


def round_sphere(n: int, tol: float = DEFAULT_TOL):
    """The unit sphere S^n, 1 <= n <= MAX_SPHERE_DIM, as a rotation group
    orbit.

    The Killing algebra is so(n+1) on the elementary skew basis; the
    isotropy fixes the first coordinate axis and the complement consists
    of the rotations moving it.  The metric is the identity Gram matrix,
    which pins the radius to one: every tangent basis direction generates
    a great circle of length 2 pi and the curvature operator along it has
    one zero eigenvalue and n-1 eigenvalues equal to one.  ``tol`` is the
    space's tolerance (see :class:`~symidx.homspace.Presentation`).
    """
    if n < 1:
        raise ValueError(f"sphere dimension {n} must be at least 1")
    if n > MAX_SPHERE_DIM:  # before so(n+1) asks for its arrays
        raise ValueError(f"sphere dimension must be at most MAX_SPHERE_DIM "
                         f"= {MAX_SPHERE_DIM}")
    alg, rep = so_elementary(n + 1)
    moves = rep[:, 0].any(axis=1)  # the generators E_1b, which move e_1
    eye = np.eye(alg.dim)
    sp = HomogeneousSpace(alg, Subspace(alg.dim, eye[:, ~moves]),
                          BilinearForm(np.eye(n)),
                          complement=Subspace(alg.dim, eye[:, moves]),
                          label=f"round sphere S^{n}", tol=tol)
    return sp, {"family": "round-sphere", "n": n, "representation": rep}


# ---------------------------------------------------------------------------
# the five-dimensional quotient family
# ---------------------------------------------------------------------------

@functools.cache
def _spin4():
    """spin(3) + spin(3) and its circle R(e0 + e3), built once per process;
    both are read-only, as every space of the quotient and product families
    shares them."""
    alg = direct_sum(spin3_quaternion()[0], spin3_quaternion()[0])
    circle = Subspace(6, np.array([[1.0, 0.0, 0.0, 1.0, 0.0, 0.0]]).T)
    alg.structure.flags.writeable = circle.basis.flags.writeable = False
    return alg, circle


def so4_so2_complement(lam: float) -> Subspace:
    """The complement of :func:`so4_so2` at slope ``lam``, columns in the
    order (diagonal j, diagonal k, weighted i, weighted j, weighted k)."""
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"slope parameter {lam} outside (0, 1]")
    cp = 1.0 / math.sqrt(8.0 * (1.0 + lam))
    ce = 1.0 / math.sqrt(8.0 * (1.0 + 1.0 / lam))
    i0, j0, k0, i1, j1, k1 = range(6)
    m = np.zeros((6, 5))
    m[j0, 0] = m[j1, 0] = cp
    m[k0, 1] = m[k1, 1] = cp
    m[i0, 2], m[i1, 2] = ce, -ce / lam
    m[j0, 3], m[j1, 3] = ce, -ce / lam
    m[k0, 4], m[k1, 4] = ce, -ce / lam
    return Subspace(6, m)


def spin4_quotient(complement, tol: float) -> Presentation:
    """Spin(4) over the circle R(e0 + e3) with a complement of
    :func:`so4_so2_complement` or a stack of them, one per metric."""
    return Presentation(*_spin4(), complement, tol)


def so4_so2_gram(s: float, t: float) -> np.ndarray:
    """The Gram matrix diag(2, 2, s, t, t) of :func:`so4_so2`."""
    if not 0.0 < s < 2.0:
        raise ValueError(f"metric parameter s={s} outside (0, 2)")
    if t <= 0.0:
        raise ValueError(f"metric parameter t={t} must be positive")
    return np.diag([2.0, 2.0, s, t, t])


def so4_so2(lam: float, s: float, t: float | None = None,
            tol: float = DEFAULT_TOL):
    """Circle quotients of Spin(4) with a two-parameter invariant metric.

    The circle winds through both factors with slope ``lam``; the metric
    assigns 2 to the two diagonal directions, ``s`` to the weighted
    i-direction and ``t`` to the remaining two.  The default ``t = 2 - s``
    is the coupled stratum where two independent Killing fields become
    parallel at the base point.  ``tol`` is the space's tolerance (see
    :class:`~symidx.homspace.Presentation`).
    """
    if t is None:
        t = 2.0 - s
    sp = spin4_quotient(so4_so2_complement(lam), tol).space(
        BilinearForm(so4_so2_gram(s, t)),
        label=f"Spin(4)/S1 lam={lam:g} s={s:g} t={t:g}")
    return sp, {"family": "so4-so2", "lam": lam, "s": s, "t": t}


# ---------------------------------------------------------------------------
# metrics on the three-sphere group
# ---------------------------------------------------------------------------

def spin3_presentation(tol: float) -> Presentation:
    """Spin(3) with tangent basis order (j, k, i), without a metric."""
    m = np.zeros((3, 3))
    m[1, 0] = m[2, 1] = m[0, 2] = 1.0  # j, k, i
    return Presentation(spin3_quaternion()[0], Subspace.zero(3), Subspace(3, m),
                        tol)


def spin3_metric(a1: float, a2: float, a3: float, tol: float = DEFAULT_TOL):
    """The group of unit quaternions with a diagonal left metric.

    Tangent basis order is (j, k, i) and the Gram matrix diag(a1, a2, a3)
    is expressed in units of one eighth of the Killing form, so (1, 1, 1)
    is the round sphere of radius one, of curvature 1, and (t, t, 2) the
    classical squashed family with distinguished i-direction.  ``tol`` is
    the space's tolerance.
    """
    for name, val in (("a1", a1), ("a2", a2), ("a3", a3)):
        if val <= 0.0:
            raise ValueError(f"metric coefficient {name}={val} must be positive")
    sp = spin3_presentation(tol).space(
        BilinearForm(np.diag([a1, a2, a3])),
        label=f"Spin(3) metric ({a1:g}, {a2:g}, {a3:g})")
    info = {"family": "spin3", "a": (a1, a2, a3),
            "representation": spin3_quaternion()[1]}
    return sp, info


def spin3_line(s: float) -> tuple:
    """The metric coefficients (s, 2-s, 2) of :func:`spin3_one_parameter`."""
    if not 0.0 < s < 1.0:
        raise ValueError(f"parameter s={s} outside (0, 1)")
    return s, 2.0 - s, 2.0


def spin3_squashed(t: float) -> tuple:
    """The metric coefficients (t, t, 2) of :func:`spin3_berger`."""
    if t <= 0.0:
        raise ValueError(f"parameter t={t} must be positive")
    if abs(t - 2.0) <= 1e-12:
        raise ValueError("t=2 is the round sphere, not a squashed metric")
    return t, t, 2.0


def spin3_one_parameter(s: float, tol: float = DEFAULT_TOL):
    """The line of metrics (s, 2-s, 2) whose i-direction stays parallel."""
    sp, info = spin3_metric(*spin3_line(s), tol)
    return sp, dict(info, family="spin3-line", s=s)


def spin3_berger(t: float, tol: float = DEFAULT_TOL):
    """The squashed metrics (t, t, 2); t = 2 (the round case) is excluded."""
    sp, info = spin3_metric(*spin3_squashed(t), tol)
    return sp, dict(info, family="spin3-berger", t=t)


# ---------------------------------------------------------------------------
# product of a small and a unit sphere
# ---------------------------------------------------------------------------

@functools.cache
def _product_representation() -> np.ndarray:
    """The fields of :func:`product_of_spheres` as matrices on R^3 x R^4
    (6 x 7 x 7), built once per process and read-only."""
    rep = np.zeros((6, 7, 7))
    for a in range(3):
        left = quaternion_left_multiplication(a + 1)
        right = quaternion_right_multiplication(a + 1)
        rep[a, :3, :3] = (left - right)[1:, 1:]  # commutator action on Im(H)
        rep[a, 3:, 3:] = left
        rep[a + 3, 3:, 3:] = -right
    rep.flags.writeable = False
    return rep


def _product_embedding(rho: float) -> np.ndarray:
    """The values of the fields of :func:`product_of_spheres` (7 x 6): their
    orbit velocities at the base point (rho i, i)."""
    if rho <= 0.0:
        raise ValueError(f"radius rho={rho} must be positive")
    if 2.0 * rho * rho == math.inf:  # the slope 1 / (1 + 2 rho^2) is 0
        raise ValueError(f"radius rho={rho} is too large: 2 rho^2 overflows")
    return (_product_representation() @ (rho, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0)).T


def product_of_spheres_metric(rho: float) -> tuple:
    """The complement of :func:`product_of_spheres` at radius ``rho``, the
    Gram matrix that the ambient metric induces on it, and the embedding
    that induces it."""
    embed = _product_embedding(rho)
    complement = so4_so2_complement(1.0 / (1.0 + 2.0 * rho * rho))
    values = embed @ complement.basis
    return complement, values.T @ values, embed


def product_of_spheres(rho: float, tol: float = DEFAULT_TOL):
    """S^2 of radius rho times the unit S^3, as one orbit of Spin(3)xSpin(3).

    The first factor acts by conjugation on imaginary quaternions, the
    second pair by left and right translation on unit quaternions; the
    base point is (rho i, i).  The metric is induced from the flat
    ambient R^3 x R^4.  Only the complement moves with rho: the isotropy,
    the kernel of the embedding, is the circle R(e0 + e3) of
    :func:`so4_so2`, and the complement, chosen to diagonalize the metric,
    is that of :func:`so4_so2` at slope 1/(1+2 rho^2); the Gram matrix is
    the coupled two-parameter metric scaled by the homothety in the info
    dictionary.  ``tol`` is the space's tolerance.
    """
    complement, gram, embed = product_of_spheres_metric(rho)
    sp = spin4_quotient(complement, tol).space(BilinearForm(gram),
                                               label=f"S^2({rho:g}) x S^3")
    info = {
        "family": "product-spheres",
        "rho": rho,
        "lam": 1.0 / (1.0 + 2.0 * rho * rho),
        "s": 2.0 * (1.0 + rho * rho) / (1.0 + 2.0 * rho * rho),
        "t": 2.0 * rho * rho / (1.0 + 2.0 * rho * rho),
        "homothety": (1.0 + 2.0 * rho * rho) / 8.0,
        "embedding": embed,
        "representation": _product_representation(),
    }
    return sp, info


# ---------------------------------------------------------------------------
# group orbits in a matrix space
# ---------------------------------------------------------------------------

def _orbit_tangents(rep: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Orbit velocities at ``point``: slice ``[a]`` is ``[rep[a], point]``."""
    return rep @ point - point @ rep


def orbit_space(algebra, representation, point, inner, label: str = "",
                tol: float = DEFAULT_TOL) -> HomogeneousSpace:
    """Orbit of a conjugation action through ``point`` as a homogeneous space.

    The representation acts on matrices by commutator; the isotropy is
    the kernel of ``X -> [rep(X), point]`` and the metric is the ambient
    ``inner`` restricted to tangent values.  A degenerate induced metric
    is refused as :class:`~symidx.homspace.HomogeneousSpace` refuses any
    metric that is not positive definite, after the checks of the pair.
    ``ValueError`` names a representation that is not one square matrix per
    algebra dimension and a point not of their shape; a point no generator
    moves makes a pair that is not effective.
    """
    rep, point = np.asarray(representation), np.asarray(point)
    if rep.ndim != 3 or rep.shape[1] != rep.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape "
                         f"{rep.shape}")
    if checked_dim(len(rep)) != algebra.dim:
        raise ValueError(f"{len(rep)} generators for an algebra of "
                         f"dimension {algebra.dim}")
    if point.shape != rep.shape[1:]:
        raise ValueError(f"point of shape {point.shape}, not that of the "
                         f"generators {rep.shape[1:]}")
    tangents = _orbit_tangents(rep, point)
    iso = Subspace.kernel_of(_flatten_real(tangents).T, tol)
    comp = orthogonal_complement(algebra, iso, tol)
    lifted = np.einsum("na,nij->aij", comp.basis, tangents)
    metric = BilinearForm(np.reshape(  # (k, k), k = 0 included
        [[inner(a, b) for b in lifted] for a in lifted], (comp.dim,) * 2))
    return HomogeneousSpace(algebra, iso, metric, complement=comp, label=label,
                            tol=tol)


def cp2_centriole(tol: float = DEFAULT_TOL):
    """Distance sphere around a projective line in the projective plane.

    The stabilizer of the line (one unitary block plus a phase) acts on
    rank-one projectors; the orbit through the symmetric point between
    the line and its pole is a three-sphere, fibred in circles over the
    line.  The plane is normalized to holomorphic curvature 4 by the
    half-trace inner product, and the induced metric on the orbit is a
    squashed three-sphere.  ``info`` holds its construction data:
    ``pole_stabilizer``, the fields fixing the foot point, where the
    geodesic from the pole through the base point meets the line; the
    ``cp2-centriole-shape`` check of ``symidx verify`` derives the shape
    from it.  ``tol`` is the space's tolerance and that of its stabilizer.
    """
    t1 = np.diag([2j, -1j, -1j])
    t2 = np.diag([0.0, 1j, -1j])
    t3 = np.zeros((3, 3), dtype=complex)
    t3[1, 2], t3[2, 1] = 1.0, -1.0
    t4 = np.zeros((3, 3), dtype=complex)
    t4[1, 2] = t4[2, 1] = 1j
    alg, rep = matrix_algebra(np.array([t1, t2, t3, t4]),
                              ("T1", "T2", "T3", "T4"), tol)

    p = 0.5 * np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]],
                       dtype=complex)
    foot = np.diag([0.0, 1.0, 0.0]).astype(complex)

    def inner(a, b):
        return 0.5 * float(np.real(np.trace(a @ b)))

    sp = orbit_space(alg, rep, p, inner,
                     label="distance sphere around a line in CP^2", tol=tol)
    stabilizer = Subspace.kernel_of(
        _flatten_real(_orbit_tangents(rep, foot)).T, tol)
    return sp, {"family": "cp2-centriole", "pole_stabilizer": stabilizer}


# ---------------------------------------------------------------------------
# name registry
# ---------------------------------------------------------------------------

CATALOG_TEMPLATES = (
    "round-sphere:<n>",
    "so4-so2:<lambda>,<s>[,<t>]",
    "spin3:<a1>,<a2>,<a3>",
    "product-spheres:<rho>",
    "cp2-centriole",
)


def _split_params(text: str, count_min: int, count_max: int, name: str):
    parts = text.split(",") if text else []
    if not count_min <= len(parts) <= count_max:
        wanted = str(count_min) if count_min == count_max \
            else f"{count_min} to {count_max}"
        raise ValueError(f"catalog name {name!r} needs {wanted} "
                         f"parameter(s), got {len(parts)}")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ValueError(f"catalog name {name!r} has a non-numeric "
                         f"parameter") from None
    if not all(map(math.isfinite, values)):
        raise ValueError(f"catalog name {name!r} has a non-finite parameter")
    return values


def from_name(name: str, tol: float = DEFAULT_TOL):
    """Build a catalog space from its colon-and-comma name, at the
    tolerance ``tol``.

    Accepted forms are listed in ``CATALOG_TEMPLATES``; parameters are
    floats except the sphere dimension.
    """
    head, _, tail = name.partition(":")
    if head == "round-sphere":
        params = _split_params(tail, 1, 1, name)
        n = int(params[0])
        if n != params[0]:
            raise ValueError(f"sphere dimension must be an integer, got {tail}")
        return round_sphere(n, tol)
    if head == "so4-so2":
        params = _split_params(tail, 2, 3, name)
        return so4_so2(*params, tol=tol)
    if head == "spin3":
        params = _split_params(tail, 3, 3, name)
        return spin3_metric(*params, tol=tol)
    if head == "product-spheres":
        params = _split_params(tail, 1, 1, name)
        return product_of_spheres(params[0], tol)
    if head == "cp2-centriole":
        if tail:
            raise ValueError("cp2-centriole takes no parameters")
        return cp2_centriole(tol)
    raise ValueError(f"unknown catalog name {name!r}; known forms: "
                     + ", ".join(CATALOG_TEMPLATES))


def default_spaces():
    """A representative list of (space, info) pairs across all families."""
    return [
        round_sphere(2),
        round_sphere(3),
        so4_so2(0.5, 0.5),
        so4_so2(0.5, 0.5, 1.0),
        spin3_one_parameter(0.5),
        spin3_berger(1.5),
        product_of_spheres(1.0),
        cp2_centriole(),
    ]
