"""Independent numerical checks through an exponential coordinate chart.

Everything in :mod:`symidx.homspace` is algebraic: covariant derivatives
come from one Koszul evaluation and curvature from a double bracket.  This
module rebuilds the same quantities the pedestrian way, as an oracle:

* a coordinate chart ``x -> Exp(sum x_a xi_a) . base`` whose metric
  components follow from the structure tensor alone,
* Christoffel symbols and curvature by high-order central differences of
  those components,
* covariant derivatives of Killing fields from their coordinate
  components plus the symbols,
* a Runge-Kutta integrator for the second order field equation along a
  geodesic.

Agreement between the two routes is asserted in the test suite; neither
route reuses intermediate results of the other.
"""

from __future__ import annotations

import math

import numpy as np

from .homspace import HomogeneousSpace
from .liealg import adjoint

#: Inner step for first derivatives of analytic chart quantities.  With the
#: fourth order stencil the truncation error is ~1e-16 and roundoff ~1e-12.
INNER_STEP = 1e-4

#: Outer step for derivatives of Christoffel symbols (themselves computed
#: by finite differences, so the inputs carry ~1e-12 noise; a larger step
#: keeps the noise amplification below the ~1e-8 truncation error).
OUTER_STEP = 1e-2


def _power_series(a: np.ndarray, shift: int) -> np.ndarray:
    """``sum_k a^k / (k + shift)!``: ``exp(a)`` for shift 0 and the
    differential series ``(exp(a) - 1) / a`` for shift 1.  Within the
    chart's neighbourhood a dozen terms suffice; raises ``RuntimeError``
    if a term is still above 1e-18 after 40 terms."""
    term = np.eye(a.shape[0]) / math.factorial(shift)
    total = term.copy()
    for k in range(1, 40):
        term = term @ a / (k + shift)
        total += term
        if float(np.max(np.abs(term))) < 1e-18:
            return total
    raise RuntimeError(f"power series in a matrix of norm "
                       f"{np.linalg.norm(a):.3e} has not converged after "
                       f"{k + 1} terms")


def central_difference(f, x0: np.ndarray, axis: int, step: float) -> np.ndarray:
    """Fourth order central difference of an array-valued function."""
    e = np.zeros_like(x0)
    e[axis] = 1.0
    return (-f(x0 + 2 * step * e) + 8 * f(x0 + step * e)
            - 8 * f(x0 - step * e) + f(x0 - 2 * step * e)) / (12 * step)


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

    Only used in a small neighbourhood of the origin (finite difference
    stencils), where the series are numerically exact.
    """

    def __init__(self, sp: HomogeneousSpace):
        self.sp = sp

    def frame(self, x: np.ndarray) -> np.ndarray:
        """Coordinate frame at x: column a is the a-th coordinate vector
        expressed in the tangent coordinates of the base point fibre."""
        sp = self.sp
        ad_x = adjoint(sp.algebra, sp.lift(x))
        d = _power_series(ad_x, 1)
        return sp.eval_matrix @ d @ sp.m_basis

    def metric(self, x: np.ndarray) -> np.ndarray:
        f = self.frame(x)
        return f.T @ self.sp.metric.gram @ f

    def killing_components(self, z: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Coordinate components at x of the Killing field with generator z."""
        sp = self.sp
        ad_x = adjoint(sp.algebra, sp.lift(x))
        value = sp.eval_matrix @ _power_series(ad_x, 0) @ np.asarray(z, float)
        return np.linalg.solve(self.frame(x), value)

    def christoffel(self, x: np.ndarray, step: float = INNER_STEP) -> np.ndarray:
        """Symbols G[c, a, b] = Gamma^c_ab at x, from metric derivatives."""
        n = self.sp.dim
        x = np.asarray(x, dtype=float)
        dg = np.array([central_difference(self.metric, x, a, step)
                       for a in range(n)])
        g_inv = np.linalg.inv(self.metric(x))
        # Gamma^c_ab = 1/2 g^cd (d_a g_bd + d_b g_ad - d_d g_ab)
        braces = (np.einsum("abd->abd", dg)
                  + np.einsum("bad->abd", dg)
                  - np.einsum("dab->abd", dg))
        return 0.5 * np.einsum("cd,abd->cab", g_inv, braces)

    def curvature_at_origin(self, outer_step: float = OUTER_STEP,
                            inner_step: float = INNER_STEP) -> np.ndarray:
        """Curvature tensor R[d, c, a, b] = R^d_cab at the origin."""
        n = self.sp.dim
        x0 = np.zeros(n)
        gamma = self.christoffel(x0, inner_step)
        dgamma = np.array([
            central_difference(lambda y: self.christoffel(y, inner_step),
                               x0, a, outer_step)
            for a in range(n)])
        # R^d_cab = d_a Gamma^d_bc - d_b Gamma^d_ac
        #           + Gamma^d_ae Gamma^e_bc - Gamma^d_be Gamma^e_ac
        first = np.einsum("adbc->dcab", dgamma)
        second = np.einsum("bdac->dcab", dgamma)
        third = np.einsum("dae,ebc->dcab", gamma, gamma)
        fourth = np.einsum("dbe,eac->dcab", gamma, gamma)
        return first - second + third - fourth

    def nabla_killing_fd(self, z: np.ndarray,
                         step: float = INNER_STEP) -> np.ndarray:
        """Covariant derivative matrix of a Killing field at the origin.

        Column b is the derivative in the b-th coordinate direction, in
        base point tangent coordinates; directly comparable to
        :meth:`HomogeneousSpace.nabla_at_base`.
        """
        n = self.sp.dim
        x0 = np.zeros(n)
        z = np.asarray(z, dtype=float)
        dz = np.array([
            central_difference(lambda y: self.killing_components(z, y),
                               x0, b, step)
            for b in range(n)])
        z0 = self.killing_components(z, x0)
        gamma = self.christoffel(x0, step)
        return dz.T + np.einsum("cbe,e->cb", gamma, z0)

    def jacobi_matrix_fd(self, u: np.ndarray) -> np.ndarray:
        """Matrix of J -> R(J, u)u at the origin, u normalized to unit length.

        Valid along the whole orbit geodesic of the lift of ``u`` whenever
        that lift is parallel at the base point: the orbit flow then
        realizes parallel transport, so the operator is constant in the
        parallel frame and its value at the origin determines the field
        equation everywhere.
        """
        u = np.asarray(u, dtype=float)
        u = u / self.sp.tangent_norm(u)
        r = self.curvature_at_origin()
        return np.einsum("dcab,b,c->da", r, u, u)


def integrate_field_equation(k_matrix: np.ndarray, v0: np.ndarray,
                             w0: np.ndarray, t_end: float,
                             steps: int = 2000):
    """Integrate ``y'' = -K y`` by classical Runge-Kutta.

    Returns (times, values) with ``values[i]`` the solution at
    ``times[i]``; initial value ``v0``, initial derivative ``w0``.
    """
    k_matrix = np.asarray(k_matrix, dtype=float)
    y = np.concatenate([np.asarray(v0, float), np.asarray(w0, float)])
    n = k_matrix.shape[0]

    def rhs(state):
        return np.concatenate([state[n:], -k_matrix @ state[:n]])

    h = t_end / steps
    times = np.linspace(0.0, t_end, steps + 1)
    values = np.zeros((steps + 1, n))
    values[0] = y[:n]
    for i in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        values[i + 1] = y[:n]
    return times, values
