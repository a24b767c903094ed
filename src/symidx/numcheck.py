"""Independent numerical checks through an exponential coordinate chart.

Everything in :mod:`symidx.homspace` is algebraic: covariant derivatives
come from one Koszul evaluation and curvature from a double bracket.  This
module rebuilds the same quantities the pedestrian way, as an oracle:

* a coordinate chart ``x -> Exp(sum x_a xi_a) . base`` whose metric
  components follow from the structure tensor alone,
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

from .homspace import HomogeneousSpace

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
# steps per block of integrate_field_equation, and entries its powers may hold
_RK4_BLOCK = 64
_RK4_ENTRIES = 2 ** 16


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

    Points may carry leading batch axes, ``(..., n)``.  Only used in a
    small neighbourhood of the origin (finite difference stencils), where
    the series are numerically exact.
    """

    def __init__(self, sp: HomogeneousSpace):
        self.sp = sp

    def _series(self, x: np.ndarray):
        """``exp(ad_X)`` and the coordinate frame at the points x."""
        sp = self.sp
        exp, differential = _exp_and_differential(np.tensordot(
            np.asarray(x, float) @ sp.m_basis.T, sp.algebra.ad_stack, 1))
        return exp, sp.eval_matrix @ differential @ sp.m_basis

    def frame(self, x: np.ndarray) -> np.ndarray:
        """Coordinate frame at x: column a is the a-th coordinate vector
        expressed in the tangent coordinates of the base point fibre."""
        return self._series(x)[1]

    def _metric_in(self, frame: np.ndarray) -> np.ndarray:
        return np.swapaxes(frame, -1, -2) @ self.sp.metric.gram @ frame

    def _components_in(self, z: np.ndarray, exp: np.ndarray,
                       frame: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        value = self.sp.eval_matrix @ exp @ z.reshape(len(z), -1)
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
        x = np.asarray(x, dtype=float)
        return _christoffel(self.metric(_stencil(x, INNER_STEP)))

    def curvature_at_origin(self) -> np.ndarray:
        """Curvature tensor R[d, c, a, b] = R^d_cab at the origin, from
        derivatives of :meth:`christoffel` at :data:`OUTER_STEP`."""
        points = _stencil(np.zeros(self.sp.dim), OUTER_STEP)
        gamma, dgamma = _derivatives(self.christoffel(points), OUTER_STEP)
        # R^d_cab = d_a Gamma^d_bc - d_b Gamma^d_ac
        #           + Gamma^d_ae Gamma^e_bc - Gamma^d_be Gamma^e_ac
        half = (np.einsum("adbc->dcab", dgamma)
                + np.einsum("dae,ebc->dcab", gamma, gamma))
        return half - np.swapaxes(half, 2, 3)

    def nabla_killing_fd(self, z: np.ndarray) -> np.ndarray:
        """Covariant derivative matrix of a Killing field at the origin.

        Column b is the derivative in the b-th coordinate direction, in
        base point tangent coordinates; directly comparable to
        :meth:`HomogeneousSpace.nabla_at_base`.  A ``(dim g, k)`` matrix of
        generators gives shape ``(n, n, k)``, all columns from one stencil
        at :data:`INNER_STEP`.
        """
        # one walk of the series gives the field components and the metric
        exp, frame = self._series(_stencil(np.zeros(self.sp.dim), INNER_STEP))
        z0, dz = _derivatives(self._components_in(z, exp, frame), INNER_STEP)
        gamma = _christoffel(self._metric_in(frame))
        return np.swapaxes(dz, 0, 1) + np.einsum("cbe,e...->cb...", gamma, z0)

    def jacobi_matrix_fd(self, u: np.ndarray) -> np.ndarray:
        """Matrix of J -> R(J, u)u at the origin, u normalized to unit length.

        Valid along the whole orbit geodesic of the lift of ``u`` whenever
        that lift is parallel at the base point: the orbit flow then
        realizes parallel transport, so the operator is constant in the
        parallel frame and its value at the origin determines the field
        equation everywhere.
        """
        u = np.asarray(u, dtype=float)
        u = u / np.sqrt(u @ self.sp.metric.gram @ u)
        return np.einsum("dcab,b,c->da", self.curvature_at_origin(), u, u)


def integrate_field_equation(k_matrix: np.ndarray, v0: np.ndarray,
                             w0: np.ndarray, t_end: float,
                             steps: int = 2000):
    """Integrate ``y'' = -K y`` by classical Runge-Kutta.

    Returns (times, values) with ``values[i]`` the solution at
    ``times[i]``; initial value ``v0``, initial derivative ``w0``.  For
    ``y' = A y``, ``A = [[0, I], [-K, 0]]``, the four stages of a step
    compose to ``P = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24``; a block
    of b states is ``P^1 ... P^b`` times the state before it.  ``steps``
    must be an integer of at least 1, else ``ValueError``.
    """
    if not isinstance(steps, (int, np.integer)) or steps < 1:
        raise ValueError(f"steps must be an integer of at least 1, "
                         f"got {steps!r}")
    n = len(k_matrix)
    ha = (t_end / steps) * np.block([[np.zeros((n, n)), np.eye(n)],
                                     [-np.asarray(k_matrix, float),
                                      np.zeros((n, n))]])
    eye = np.eye(2 * n)
    block = max(1, min(steps, _RK4_BLOCK, _RK4_ENTRIES // (4 * n * n)))
    powers = np.empty((block, 2 * n, 2 * n))
    powers[0] = eye + ha @ (eye + ha @ (eye + ha @ (eye + ha / 4) / 3) / 2)
    done = 1
    while done < block:  # P^(done+1) ... P^(2 done) from P^done
        powers[done:2 * done] = powers[:block - done][:done] @ powers[done - 1]
        done *= 2
    states = np.empty((steps + 1, 2 * n))
    states[0] = np.concatenate([np.asarray(v0, float), np.asarray(w0, float)])
    for lo in range(0, steps, block):
        states[lo + 1:lo + 1 + block] = powers[:steps - lo] @ states[lo]
    return np.linspace(0.0, t_end, steps + 1), states[:, :n]
