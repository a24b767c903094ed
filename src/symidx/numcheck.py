"""Independent numerical checks through an exponential coordinate chart.

Everything in :mod:`symidx.homspace` is algebraic: covariant derivatives
come from one Koszul evaluation and curvature from Kostant's identity.  This
module rebuilds the same quantities the pedestrian way, as an oracle:

* a coordinate chart ``x -> Exp(sum x_a xi_a) . base``, a presentation's
  alone, with metric components of one Gram matrix or of a whole stack,
* Christoffel symbols and curvature by high-order central differences of
  those components, the chart evaluated once per call on a whole stencil,
* covariant derivatives of Killing fields from their coordinate
  components plus the symbols,
* classical Runge-Kutta for the second order field equation along a
  geodesic, one product with powers of its step matrix per block of steps.

Agreement between the two routes is asserted in the test suite; neither
route reuses intermediate results of the other.
"""

from __future__ import annotations

import numpy as np

from .homspace import Presentation
from .liealg import _chunks, _coordinates, _real, _refuse_non_finite

#: Inner step for first derivatives of analytic chart quantities.  With the
#: fourth order stencil the truncation error is ~1e-16 and roundoff ~1e-12.
INNER_STEP = 1e-4

#: Outer step for derivatives of Christoffel symbols (themselves computed
#: by finite differences, so the inputs carry ~1e-12 noise; a larger step
#: keeps the noise amplification below the ~1e-8 truncation error).
OUTER_STEP = 1e-2

# offsets (in steps) and weights (over 12 steps) of the fourth order stencil
_OFFSETS = np.array([2.0, 1.0, -1.0, -2.0])
_WEIGHTS = np.array([-1.0, 8.0, -8.0, 1.0])
# most steps per block of integrate_field_equation, fewer where _chunks cuts
_RK4_BLOCK = 64


def _exp_and_differential(a: np.ndarray):
    """``(exp(a), (exp(a) - 1) / a)`` of a stack of matrices, from one walk
    over the powers ``a^k / k!``; raises ``RuntimeError`` if a term of any
    slice is still above 1e-18 after 40 terms (near the origin a dozen do)."""
    term = np.broadcast_to(np.eye(a.shape[-1]), a.shape).copy()
    exp, differential = term.copy(), term.copy()
    for k in range(1, 40):
        term = term @ a / k
        exp += term
        differential += term / (k + 1)
        if float(np.max(np.abs(term))) < 1e-18:
            return exp, differential
    raise RuntimeError(f"power series in a matrix of norm "
                       f"{np.max(np.linalg.norm(a, axis=(-2, -1))):.3e} has "
                       f"not converged after {k + 1} terms")


def _stencil(x0: np.ndarray, step: float) -> np.ndarray:
    """``x0`` (leading batch axes allowed), then ``x0 + o * step * e_a`` for
    every axis a and offset o: shape ``(1 + 4 n,) + x0.shape``."""
    shifts = step * _OFFSETS[:, None] * np.eye(x0.shape[-1])[:, None, :]
    points = x0 + shifts.reshape((-1,) + (1,) * (x0.ndim - 1) + x0.shape[-1:])
    return np.concatenate([x0[None], points])


def _derivatives(values: np.ndarray, step: float):
    """Centre value and derivatives (axis first) from :func:`_stencil`."""
    per_axis = values[1:].reshape((-1, 4) + values.shape[1:])
    return values[0], np.tensordot(_WEIGHTS, per_axis, (0, 1)) / (12 * step)


def _christoffel(metrics: np.ndarray) -> np.ndarray:
    """Symbols G[..., c, a, b] = Gamma^c_ab at the centre of the stencil
    whose metric components are ``metrics`` (from :func:`_stencil` at
    :data:`INNER_STEP`)."""
    g, dg = _derivatives(metrics, INNER_STEP)
    dg = np.moveaxis(dg, 0, -3)  # dg[..., a, b, d] = d_a g_bd
    # Gamma^c_ab = 1/2 g^cd (d_a g_bd + d_b g_ad - d_d g_ab)
    braces = dg + np.swapaxes(dg, -3, -2) - np.moveaxis(dg, -3, -1)
    return 0.5 * np.einsum("...cd,...abd->...cab", np.linalg.inv(g), braces)


class ExponentialChart:
    """Normal-style coordinates on a homogeneous space near the base point.

    The chart sends coordinates x to ``Exp(X) . base`` with ``X`` the
    complement lift of x.  Coordinate frame, metric components, and
    Killing field components all reduce to convergent series in the
    adjoint of ``X``:

    * the frame differential is ``sum_k ad_X^k / (k+1)!`` applied to the
      lifts and evaluated at the base point,
    * a Killing field pulled to the chart is ``exp(ad_X)`` applied to its
      generator, evaluated and re-expressed in the frame.

    The series read the presentation ``pres`` alone (a space is one).  Of
    ``grams``, one Gram matrix (d, d) or a stack (N, d, d), a stack gives
    each metric-dependent result an axis of length N after the batch axes
    of the points, ``(..., d)``.  Only used in a small neighbourhood of
    the origin (finite difference stencils), where the series are exact.
    """

    def __init__(self, pres: Presentation, grams: np.ndarray):
        grams, d = _real("metric", grams), pres.dim
        if pres._size is not None:
            shape = (pres._size, *pres.m_basis.shape[-2:])
            raise ValueError(f"a complement stack {shape} has no chart")
        if grams.shape[-2:] != (d, d) or not 2 <= grams.ndim <= 3:
            raise ValueError(f"metrics of shape {grams.shape}, not "
                             f"(N, {d}, {d}) or ({d}, {d})")
        self.pres, self.grams = pres, grams

    def _points(self, x) -> np.ndarray:
        """``x`` as real finite points (..., d), else refused by name."""
        x, d = _real("point", x), self.pres.dim
        if x.ndim == 0 or x.shape[-1] != d:
            raise ValueError(f"point has shape {x.shape}, the space dimension "
                             f"is {d}")
        _refuse_non_finite("point", x)
        return x

    def _series(self, x: np.ndarray):
        """``exp(ad_X)`` and the coordinate frame at the points x."""
        pres = self.pres
        exp, differential = _exp_and_differential(np.tensordot(
            self._points(x) @ pres.m_basis.T, pres.algebra.ad_stack, 1))
        return exp, pres.eval_matrix @ differential @ pres.m_basis

    def frame(self, x: np.ndarray) -> np.ndarray:
        """Coordinate frame at x: column a is the a-th coordinate vector
        expressed in the tangent coordinates of the base point fibre."""
        return self._series(x)[1]

    def _metric_in(self, frame: np.ndarray) -> np.ndarray:
        frame = np.expand_dims(frame, tuple(range(-self.grams.ndim, -2)))
        return np.swapaxes(frame, -1, -2) @ self.grams @ frame

    def _components_in(self, z: np.ndarray, exp: np.ndarray,
                       frame: np.ndarray) -> np.ndarray:
        z = _coordinates("generator", z, self.pres.algebra.dim, "algebra", 2)
        value = self.pres.eval_matrix @ exp @ z.reshape(len(z), -1)
        return np.linalg.solve(frame, value).reshape(
            frame.shape[:-1] + z.shape[1:])

    def metric(self, x: np.ndarray) -> np.ndarray:
        return self._metric_in(self.frame(x))

    def killing_components(self, z: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Coordinate components at x of the Killing field with generator z,
        or column by column of a ``(dim g, k)`` matrix of generators."""
        return self._components_in(z, *self._series(x))

    def christoffel(self, x: np.ndarray) -> np.ndarray:
        """Symbols G[..., c, a, b] = Gamma^c_ab at x, from metric derivatives
        at :data:`INNER_STEP`."""
        return _christoffel(self.metric(_stencil(self._points(x), INNER_STEP)))

    def curvature_at_origin(self) -> np.ndarray:
        """Curvature tensor R[..., d, c, a, b] = R^d_cab at the origin, from
        derivatives of :meth:`christoffel` at :data:`OUTER_STEP`."""
        points = _stencil(np.zeros(self.pres.dim), OUTER_STEP)
        gamma, dgamma = _derivatives(self.christoffel(points), OUTER_STEP)
        # R^d_cab = d_a Gamma^d_bc - d_b Gamma^d_ac
        #           + Gamma^d_ae Gamma^e_bc - Gamma^d_be Gamma^e_ac
        half = (np.einsum("a...dbc->...dcab", dgamma)
                + np.einsum("...dae,...ebc->...dcab", gamma, gamma))
        return half - np.swapaxes(half, -2, -1)

    def nabla_killing_fd(self, z: np.ndarray) -> np.ndarray:
        """Covariant derivative matrix of a Killing field at the origin.

        Column b is the derivative in the b-th coordinate direction, in
        base point tangent coordinates; directly comparable to
        :meth:`HomogeneousSpace.nabla_at_base`.  A ``(dim g, k)`` matrix of
        generators gives shape ``(n, n, k)``, all columns from one stencil
        at :data:`INNER_STEP`.
        """
        # one walk of the series gives the field components and the metric
        exp, frame = self._series(_stencil(np.zeros(self.pres.dim), INNER_STEP))
        z0, dz = _derivatives(self._components_in(z, exp, frame), INNER_STEP)
        gamma = _christoffel(self._metric_in(frame))
        gz = np.einsum("...cbe,ek->...cbk", gamma, z0.reshape(len(z0), -1))
        return np.swapaxes(dz, 0, 1) + gz.reshape(gamma.shape[:-3] + dz.shape)

    def jacobi_matrix_fd(self, u: np.ndarray) -> np.ndarray:
        """Matrix of J -> R(J, u)u at the origin, u normalized to unit length:
        the field equation's along the orbit of a lift of ``u`` that is
        parallel at the base point, as its flow realizes parallel transport.
        A zero direction raises ``ValueError``.
        """
        u = _coordinates("direction", u, self.pres.dim, "space")
        if not u.any():
            raise ValueError("direction is zero, which has no unit length")
        u = u / np.sqrt((u @ self.grams)[..., None, :] @ u)  # a dot per metric
        return np.einsum("...dcab,...b,...c->...da", self.curvature_at_origin(),
                         u, u)


def integrate_field_equation(k_matrix: np.ndarray, v0: np.ndarray,
                             w0: np.ndarray, t_end: float,
                             steps: int = 2000):
    """Integrate ``y'' = -K y`` by classical Runge-Kutta.

    Returns (times, values) with ``values[i]`` the solution at
    ``times[i]``; initial value ``v0``, initial derivative ``w0``.  For
    ``y' = A y``, ``A = [[0, I], [-K, 0]]``, the four stages of a step
    compose to ``P = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24``; a block
    of b states is ``P^1 ... P^b`` times the state before it.  ``steps``
    must be an integer of at least 1, ``K`` a square matrix, ``v0`` and
    ``w0`` vectors of its size and ``t_end`` a number, all real and finite.
    """
    if not isinstance(steps, (int, np.integer)) or steps < 1:
        raise ValueError(f"steps must be an integer of at least 1, "
                         f"got {steps!r}")
    k_matrix = _real("K", k_matrix)
    n = len(k_matrix) if k_matrix.ndim == 2 else -1
    if k_matrix.shape != (n, n):
        raise ValueError(f"K has shape {k_matrix.shape}, not a square one")
    _refuse_non_finite("K", k_matrix)
    _refuse_non_finite("t_end", _real("t_end", [t_end]))
    states = np.empty((steps + 1, 2 * n))
    states[0] = np.concatenate([_coordinates("v0", v0, n, "K"),
                                _coordinates("w0", w0, n, "K")])
    ha = (t_end / steps) * np.block([[np.zeros((n, n)), np.eye(n)],
                                     [-k_matrix, np.zeros((n, n))]])
    eye = np.eye(2 * n)
    block = min(steps, _chunks(_RK4_BLOCK, 4 * n * n)[0].stop)
    powers = np.empty((block, 2 * n, 2 * n))
    powers[0] = eye + ha @ (eye + ha @ (eye + ha @ (eye + ha / 4) / 3) / 2)
    done = 1
    while done < block:  # P^(done+1) ... P^(2 done) from P^done
        powers[done:2 * done] = powers[:block - done][:done] @ powers[done - 1]
        done *= 2
    for lo in range(0, steps, block):
        states[lo + 1:lo + 1 + block] = powers[:steps - lo] @ states[lo]
    return np.linspace(0.0, t_end, steps + 1), states[:, :n]
