"""Named example spaces with known symmetry behaviour.

Each constructor returns ``(space, info)`` where ``info`` records the
parameters and, where available, a matrix representation of the Killing
algebra (for orbit period computations) and closed-form metric data that
the test suite checks against independent computation.  Parameter ranges
are validated and out-of-range values raise ``ValueError``, which the
sweep command relies on to skip degenerate grid points.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .homspace import HomogeneousSpace, transvection_space
from .liealg import (
    DEFAULT_TOL,
    BilinearForm,
    Subspace,
    _flatten_real,
    derived_subalgebra,
    direct_sum,
    killing_form_positive,
    matrix_algebra,
    numerical_kernel,
    numerical_rank,
    orthogonal_complement,
    quaternion_left_multiplication,
    quaternion_right_multiplication,
    so_elementary,
    spin3_quaternion,
)


# ---------------------------------------------------------------------------
# round spheres
# ---------------------------------------------------------------------------

def round_sphere(n: int):
    """The unit sphere S^n as a rotation group orbit.

    The Killing algebra is so(n+1) on the elementary skew basis; the
    isotropy fixes the first coordinate axis and the complement consists
    of the rotations moving it.  The metric is the identity Gram matrix,
    which pins the radius to one: every tangent basis direction generates
    a great circle of length 2 pi and the curvature operator along it has
    one zero eigenvalue and n-1 eigenvalues equal to one.
    """
    if not 2 <= n <= 5:
        raise ValueError(f"sphere dimension {n} outside the supported range 2..5")
    alg, rep = so_elementary(n + 1)
    pairs = list(itertools.combinations(range(n + 1), 2))
    h_idx = [k for k, (a, _) in enumerate(pairs) if a > 0]
    m_idx = [k for k, (a, _) in enumerate(pairs) if a == 0]
    eye = np.eye(alg.dim)
    sp = HomogeneousSpace(
        alg,
        Subspace(alg.dim, eye[:, h_idx]),
        BilinearForm(np.eye(n)),
        complement=Subspace(alg.dim, eye[:, m_idx]),
        label=f"round sphere S^{n}",
    )
    info = {
        "family": "round-sphere",
        "n": n,
        "representation": rep,
        "index": n,
        "jacobi_eigenvalues": [0.0] + [1.0] * (n - 1),
        "great_circle_length": 2.0 * math.pi,
    }
    return sp, info


# ---------------------------------------------------------------------------
# the five-dimensional quotient family
# ---------------------------------------------------------------------------

def _spin4():
    a3, rep3 = spin3_quaternion()
    return direct_sum(a3, a3), rep3


def _spin4_m_basis(lam: float) -> np.ndarray:
    """Complement basis for the circle quotient of Spin(4), columns in the
    order (diagonal j, diagonal k, weighted i, weighted j, weighted k)."""
    cp = 1.0 / math.sqrt(8.0 * (1.0 + lam))
    ce = 1.0 / math.sqrt(8.0 * (1.0 + 1.0 / lam))
    i0, j0, k0, i1, j1, k1 = range(6)
    m = np.zeros((6, 5))
    m[j0, 0] = m[j1, 0] = cp
    m[k0, 1] = m[k1, 1] = cp
    m[i0, 2], m[i1, 2] = ce, -ce / lam
    m[j0, 3], m[j1, 3] = ce, -ce / lam
    m[k0, 4], m[k1, 4] = ce, -ce / lam
    return m


def so4_so2(lam: float, s: float, t: float | None = None):
    """Circle quotients of Spin(4) with a two-parameter invariant metric.

    The circle winds through both factors with slope ``lam``; the metric
    assigns 2 to the two diagonal directions, ``s`` to the weighted
    i-direction and ``t`` to the remaining two.  The default ``t = 2 - s``
    is the coupled stratum where two independent Killing fields become
    parallel at the base point.
    """
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"slope parameter {lam} outside (0, 1]")
    if not 0.0 < s < 2.0:
        raise ValueError(f"metric parameter s={s} outside (0, 2)")
    if t is None:
        t = 2.0 - s
    if t <= 0.0:
        raise ValueError(f"metric parameter t={t} must be positive")
    alg, _ = _spin4()
    iso = np.zeros((6, 1))
    iso[0, 0] = iso[3, 0] = 1.0
    sp = HomogeneousSpace(
        alg,
        Subspace(6, iso),
        BilinearForm(np.diag([2.0, 2.0, s, t, t])),
        complement=Subspace(6, _spin4_m_basis(lam)),
        label=f"Spin(4)/S1 lam={lam:g} s={s:g} t={t:g}",
    )
    info = {
        "family": "so4-so2",
        "lam": lam,
        "s": s,
        "t": t,
        "coupled": abs(t - (2.0 - s)) <= 1e-12,
    }
    return sp, info


# ---------------------------------------------------------------------------
# metrics on the three-sphere group
# ---------------------------------------------------------------------------

def spin3_metric(a1: float, a2: float, a3: float):
    """The group of unit quaternions with a diagonal left metric.

    Tangent basis order is (j, k, i) and the Gram matrix diag(a1, a2, a3)
    is expressed in units of one eighth of the Killing form, so
    (1, 1, 1) is the round sphere of radius one half and (t, t, 2) the
    classical squashed family with distinguished i-direction.
    """
    for name, val in (("a1", a1), ("a2", a2), ("a3", a3)):
        if val <= 0.0:
            raise ValueError(f"metric coefficient {name}={val} must be positive")
    alg, rep = spin3_quaternion()
    m = np.zeros((3, 3))
    m[1, 0] = 1.0  # j
    m[2, 1] = 1.0  # k
    m[0, 2] = 1.0  # i
    sp = HomogeneousSpace(
        alg,
        Subspace.zero(3),
        BilinearForm(np.diag([a1, a2, a3])),
        complement=Subspace(3, m),
        label=f"Spin(3) metric ({a1:g}, {a2:g}, {a3:g})",
    )
    info = {"family": "spin3", "a": (a1, a2, a3), "representation": rep}
    return sp, info


def spin3_one_parameter(s: float):
    """The line of metrics (s, 2-s, 2) whose i-direction stays parallel."""
    if not 0.0 < s < 1.0:
        raise ValueError(f"parameter s={s} outside (0, 1)")
    sp, info = spin3_metric(s, 2.0 - s, 2.0)
    info = dict(info, family="spin3-line", s=s)
    return sp, info


def spin3_berger(t: float):
    """The squashed metrics (t, t, 2); t = 2 (the round case) is excluded."""
    if t <= 0.0:
        raise ValueError(f"parameter t={t} must be positive")
    if abs(t - 2.0) <= 1e-12:
        raise ValueError("t=2 is the round sphere, not a squashed metric")
    sp, info = spin3_metric(t, t, 2.0)
    info = dict(info, family="spin3-berger", t=t)
    return sp, info


# ---------------------------------------------------------------------------
# product of a small and a unit sphere
# ---------------------------------------------------------------------------

def product_of_spheres(rho: float):
    """S^2 of radius rho times the unit S^3, as one orbit of Spin(3)xSpin(3).

    The first factor acts by conjugation on imaginary quaternions, the
    second pair by left and right translation on unit quaternions; the
    base point is (rho i, i).  The metric is induced from the flat
    ambient R^3 x R^4.  The complement is chosen to diagonalize it,
    reusing the circle-quotient basis at slope 1/(1+2 rho^2); the
    resulting Gram matrix is the coupled two-parameter metric scaled by
    the homothety recorded in the info dictionary.
    """
    if rho <= 0.0:
        raise ValueError(f"radius rho={rho} must be positive")
    alg, _ = _spin4()
    unit_i = np.array([0.0, 1.0, 0.0, 0.0])

    embed = np.zeros((7, 6))
    rep_blocks = np.zeros((6, 7, 7))
    for a in range(3):
        left = quaternion_left_multiplication(a + 1)
        right = quaternion_right_multiplication(a + 1)
        conj = (left - right)[1:, 1:]  # commutator action on Im(H)
        embed[:3, a] = rho * conj @ unit_i[1:]
        embed[3:, a] = left @ unit_i
        embed[3:, a + 3] = -right @ unit_i
        rep_blocks[a, :3, :3] = conj
        rep_blocks[a, 3:, 3:] = left
        rep_blocks[a + 3, 3:, 3:] = -right

    lam = 1.0 / (1.0 + 2.0 * rho * rho)
    m = _spin4_m_basis(lam)
    values = embed @ m
    sp = HomogeneousSpace(
        alg,
        Subspace(6, numerical_kernel(embed)),
        BilinearForm(values.T @ values),
        complement=Subspace(6, m),
        label=f"S^2({rho:g}) x S^3",
    )
    info = {
        "family": "product-spheres",
        "rho": rho,
        "lam": lam,
        "s": 2.0 * (1.0 + rho * rho) / (1.0 + 2.0 * rho * rho),
        "t": 2.0 * rho * rho / (1.0 + 2.0 * rho * rho),
        "homothety": (1.0 + 2.0 * rho * rho) / 8.0,
        "embedding": embed,
        "representation": rep_blocks,
    }
    return sp, info


# ---------------------------------------------------------------------------
# group orbits in a matrix space
# ---------------------------------------------------------------------------

def _orbit_tangents(rep: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Orbit velocities at ``point``: slice ``[a]`` is ``[rep[a], point]``."""
    return rep @ point - point @ rep


def _induced_gram(inner, tangents: np.ndarray, fields: np.ndarray) -> np.ndarray:
    """Gram matrix under ``inner`` of the orbit velocities of the fields
    whose algebra coefficients are the columns of ``fields``."""
    lifted = np.einsum("na,nij->aij", fields, tangents)
    return np.array([[inner(a, b) for b in lifted] for a in lifted])


def orbit_space(algebra, representation, point, inner, label: str = "",
                tol: float = DEFAULT_TOL) -> HomogeneousSpace:
    """Orbit of a conjugation action through ``point`` as a homogeneous space.

    The representation acts on matrices by commutator; the isotropy is
    the kernel of ``X -> [rep(X), point]`` and the metric is the ambient
    ``inner`` restricted to tangent values.  Raises if the induced metric
    is degenerate (the orbit is then too small for the chosen complement).
    """
    tangents = _orbit_tangents(np.asarray(representation), point)
    iso = Subspace(algebra.dim, numerical_kernel(_flatten_real(tangents).T, tol))
    comp = orthogonal_complement(algebra, iso, tol)
    metric = BilinearForm(_induced_gram(inner, tangents, comp.basis))
    if not metric.is_positive_definite(tol):
        raise ValueError("induced metric on the orbit is degenerate")
    return HomogeneousSpace(algebra, iso, metric, complement=comp, label=label)


@dataclass(eq=False)
class CentrioleReport:
    """Shape data for a distance sphere fibred over a projective line.

    ``dim_base`` is the dimension of the orbit of the pole, ``dim_fiber``
    that of the circle directions through the base point, and
    ``dim_sphere`` their sum.  ``berger_t`` expresses the induced metric
    as the squashed triple (t, t, 2) up to scale, with
    ``shape_multiplicities`` the eigenvalue multiplicities that justify
    it.  ``coindex_sphere`` is the tangent codimension of the parallel
    directions, relative to the acting algebra.
    """

    dim_base: int
    dim_fiber: int
    dim_sphere: int
    coindex_sphere: int
    berger_t: float
    shape_multiplicities: tuple
    fiber_tangent: Subspace


def cp2_centriole():
    """Distance sphere around a projective line in the projective plane.

    The stabilizer of the line (one unitary block plus a phase) acts on
    rank-one projectors; the orbit through the symmetric point between
    the line and its pole is a three-sphere, fibred in circles over the
    line.  The plane is normalized to holomorphic curvature 4 by the
    half-trace inner product, and the induced metric on the orbit is a
    squashed three-sphere whose squashing ratio the report records.
    """
    t1 = np.diag([2j, -1j, -1j])
    t2 = np.diag([0.0, 1j, -1j])
    t3 = np.zeros((3, 3), dtype=complex)
    t3[1, 2], t3[2, 1] = 1.0, -1.0
    t4 = np.zeros((3, 3), dtype=complex)
    t4[1, 2] = t4[2, 1] = 1j
    alg, rep = matrix_algebra(np.array([t1, t2, t3, t4]),
                              ("T1", "T2", "T3", "T4"))

    p = 0.5 * np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]],
                       dtype=complex)
    pole = np.diag([0.0, 1.0, 0.0]).astype(complex)

    def inner(a, b):
        return 0.5 * float(np.real(np.trace(a @ b)))

    sp = orbit_space(alg, rep, p, inner,
                     label="distance sphere around a line in CP^2")

    flat = _flatten_real(_orbit_tangents(rep, pole))
    dim_base = numerical_rank(flat)
    pole_stabilizer = Subspace(4, numerical_kernel(flat.T))
    fiber = Subspace.from_spanning(sp.dim, sp.evaluate(pole_stabilizer.basis))

    report_t = transvection_space(sp)

    der = derived_subalgebra(alg)
    gram_sub = _induced_gram(inner, _orbit_tangents(rep, p), der.basis)
    b_sub = killing_form_positive(alg).restricted_to(der)
    w, vecs = scipy.linalg.eigh(8.0 * gram_sub, b_sub)

    clusters: list[list[int]] = []
    for idx in range(len(w)):
        if clusters and abs(w[idx] - w[clusters[-1][-1]]) <= 1e-9:
            clusters[-1].append(idx)
        else:
            clusters.append([idx])
    multiplicities = tuple(sorted((len(c) for c in clusters), reverse=True))

    distinguished = None
    for idx in range(len(w)):
        value = sp.evaluate(der.basis @ vecs[:, idx])
        if fiber.contains(value):
            distinguished = w[idx]
            break
    if distinguished is None:
        raise RuntimeError("internal: no pencil eigenvector is tangent "
                           "to the fiber")
    others = [w[idx] for idx in range(len(w))
              if abs(w[idx] - distinguished) > 1e-9]
    berger_t = 2.0 * others[0] / distinguished if others else 2.0

    report = CentrioleReport(
        dim_base=dim_base,
        dim_fiber=fiber.dim,
        dim_sphere=sp.dim,
        coindex_sphere=report_t.coindex,
        berger_t=float(berger_t),
        shape_multiplicities=multiplicities,
        fiber_tangent=fiber,
    )
    return sp, report


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
        return [float(p) for p in parts]
    except ValueError:
        raise ValueError(f"catalog name {name!r} has a non-numeric "
                         f"parameter") from None


def from_name(name: str):
    """Build a catalog space from its colon-and-comma name.

    Accepted forms are listed in ``CATALOG_TEMPLATES``; parameters are
    floats except the sphere dimension.
    """
    head, _, tail = name.partition(":")
    if head == "round-sphere":
        params = _split_params(tail, 1, 1, name)
        n = int(params[0])
        if n != params[0]:
            raise ValueError(f"sphere dimension must be an integer, got {tail}")
        return round_sphere(n)
    if head == "so4-so2":
        params = _split_params(tail, 2, 3, name)
        return so4_so2(*params)
    if head == "spin3":
        params = _split_params(tail, 3, 3, name)
        return spin3_metric(*params)
    if head == "product-spheres":
        params = _split_params(tail, 1, 1, name)
        return product_of_spheres(params[0])
    if head == "cp2-centriole":
        if tail:
            raise ValueError("cp2-centriole takes no parameters")
        sp, report = cp2_centriole()
        return sp, {"family": "cp2-centriole", "report": report}
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
        from_name("cp2-centriole"),
    ]
