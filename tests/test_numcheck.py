"""Finite-difference cross-checks of the algebraic formulas.

These tests intentionally compare two independent routes: the closed
algebraic expressions at the base point against derivatives taken in an
exponential coordinate chart.  Tolerances reflect fourth-order central
differences with the default steps.

The batched chart is also compared with the per-point route it replaced,
kept below as the reference: one point, one field and one power series at
a time, and Runge-Kutta by its four explicit stages.  A chart of a stack of
metrics is compared, bit for bit, with one chart per metric and with the
one-metric formulas that have no metrics axis.
"""

import math
import re

import numpy as np
import pytest

from meaning import adjoint, same_bits
from symidx import verify
from symidx.catalog import (
    default_spaces,
    round_sphere,
    so4_so2,
    so4_so2_complement,
    so4_so2_gram,
    spin3_berger,
    spin3_line,
    spin3_presentation,
    spin4_quotient,
)
from symidx.homspace import jacobi_field, jacobi_operator
from symidx.liealg import _chunks
from symidx.numcheck import (
    INNER_STEP,
    OUTER_STEP,
    _RK4_BLOCK,
    ExponentialChart,
    _christoffel,
    _derivatives,
    _exp_and_differential,
    _stencil,
    integrate_field_equation,
)


def test_central_difference_order():
    """The oracles' stencil is fourth order: at step 1e-3 its error is
    below 1e-11 (a second order one would miss by 1e-7 or more)."""
    def f(x):
        return np.stack([np.sin(x[..., 0]), np.cos(2.0 * x[..., 0])], axis=-1)

    step = 1e-3
    _, d = _derivatives(f(_stencil(np.array([0.7]), step)), step)
    exact = np.array([np.cos(0.7), -2.0 * np.sin(1.4)])
    np.testing.assert_allclose(d[0], exact, atol=1e-11)


def test_frame_is_the_identity_at_the_origin():
    sp, _ = round_sphere(2)
    chart = ExponentialChart(sp, sp.metric.gram)
    np.testing.assert_allclose(chart.frame(np.zeros(2)), np.eye(2), atol=1e-14)


def test_round_sphere_chart_metric_closed_form():
    """In exponential coordinates the unit sphere metric is 1 radially
    and sin(r)^2 / r^2 transversally."""
    sp, _ = round_sphere(2)
    chart = ExponentialChart(sp, sp.metric.gram)
    for x in (np.array([0.3, -0.2]), np.array([0.0, 0.9])):
        r = np.linalg.norm(x)
        g = chart.metric(x)
        np.testing.assert_allclose(g @ x, x, atol=1e-10)  # radial eigenvalue 1
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(g)),
                                   [np.sin(r) ** 2 / r ** 2, 1.0], atol=1e-10)


def test_chart_is_normal_exactly_for_the_symmetric_case():
    sp, _ = round_sphere(2)
    gamma = ExponentialChart(sp, sp.metric.gram).christoffel(np.zeros(2))
    assert np.max(np.abs(gamma)) < 1e-10

    squashed, _ = spin3_berger(3.0)
    chart = ExponentialChart(squashed, squashed.metric.gram)
    gamma = chart.christoffel(np.zeros(3))
    assert np.max(np.abs(gamma)) > 0.1


def test_christoffel_is_symmetric_in_the_lower_indices():
    sp, _ = round_sphere(2)
    chart = ExponentialChart(sp, sp.metric.gram)
    gamma = chart.christoffel(np.array([0.3, -0.2]))
    np.testing.assert_allclose(gamma, np.swapaxes(gamma, 1, 2), atol=1e-8)


def test_killing_components_at_the_origin():
    sp, _ = round_sphere(3)
    chart = ExponentialChart(sp, sp.metric.gram)
    rng = np.random.default_rng(17)
    for _ in range(3):
        z = rng.standard_normal(sp.algebra.dim)
        np.testing.assert_allclose(chart.killing_components(z, np.zeros(3)),
                                   sp.evaluate(z), atol=1e-12)


def test_derivative_of_killing_fields_matches_the_base_formula():
    for sp in (so4_so2(0.5, 0.6)[0], spin3_berger(1.5)[0]):
        chart = ExponentialChart(sp, sp.metric.gram)
        rng = np.random.default_rng(23)
        for _ in range(3):
            z = rng.standard_normal(sp.algebra.dim)
            fd = chart.nabla_killing_fd(z)
            np.testing.assert_allclose(fd, sp.nabla_at_base(z), atol=1e-8)


def test_curvature_operator_matches_the_finite_difference_route():
    sp, _ = round_sphere(3)
    chart = ExponentialChart(sp, sp.metric.gram)
    u = np.eye(3)[:, 0]
    fd = chart.jacobi_matrix_fd(u)
    spec = jacobi_operator(sp, sp.lift(u))
    np.testing.assert_allclose(fd, spec.operator, atol=1e-6)


def test_kostant_curvature_matches_the_finite_differences_everywhere():
    """R(., c')c' by Kostant's identity equals the finite-difference
    curvature of the exponential chart to 1e-6 relative, along every
    tangent basis direction of every default space, parallel or not."""
    for sp, _ in default_spaces():
        chart = ExponentialChart(sp, sp.metric.gram)
        for u in np.eye(sp.dim):
            fd = chart.jacobi_matrix_fd(u)
            op = jacobi_operator(sp, sp.lift(u)).operator
            assert np.abs(op - fd).max() <= 1e-6 * max(1.0, np.abs(fd).max())


def test_integrated_field_equation_matches_the_closed_form():
    sp, _ = round_sphere(3)
    spec = jacobi_operator(sp, sp.lift(np.eye(3)[:, 0]))
    rng = np.random.default_rng(41)
    v0, w0 = rng.standard_normal((2, 3))
    t_end = 2.0
    times, values = integrate_field_equation(spec.operator, v0, w0, t_end)
    closed = jacobi_field(sp, spec, v0, w0, times)
    assert np.max(np.abs(values - closed)) < 1e-7


@pytest.mark.parametrize("steps,expect", [(250, 1e-5), (2000, 1e-7)])
def test_integrator_converges(steps, expect):
    k = np.array([[1.0]])
    times, values = integrate_field_equation(k, np.array([1.0]),
                                             np.array([0.0]), np.pi, steps)
    assert abs(values[-1, 0] - np.cos(np.pi)) < expect


@pytest.mark.parametrize("steps", [0, -1, 2.5, "10", None])
def test_integrator_refuses_a_step_count_that_is_not_a_positive_integer(
        steps):
    with pytest.raises(ValueError, match=rf"steps must be an integer of at "
                                         rf"least 1, got {steps!r}"):
        integrate_field_equation(np.array([[1.0]]), np.array([1.0]),
                                 np.array([0.0]), np.pi, steps)


def test_integrator_takes_a_numpy_integer_step_count():
    times, _ = integrate_field_equation(np.array([[1.0]]), np.array([1.0]),
                                        np.array([0.0]), 1.0, np.int64(3))
    np.testing.assert_allclose(times, [0.0, 1 / 3, 2 / 3, 1.0])


def test_power_series_gives_exp_and_its_differential():
    theta = 0.3
    a = np.array([[0.0, -theta], [theta, 0.0]])
    rotation = np.array([[np.cos(theta), -np.sin(theta)],
                         [np.sin(theta), np.cos(theta)]])
    exp, differential = _exp_and_differential(a)
    np.testing.assert_allclose(exp, rotation, atol=1e-15)
    # a (exp(a) - 1) / a = exp(a) - 1
    np.testing.assert_allclose(a @ differential, rotation - np.eye(2),
                               atol=1e-15)
    np.testing.assert_array_equal(_exp_and_differential(np.zeros((3, 3)))[1],
                                  np.eye(3))


def test_power_series_refuses_to_stop_before_converging():
    with pytest.raises(RuntimeError, match="has not converged after 40 terms"):
        _exp_and_differential(40.0 * np.eye(2))


def test_power_series_of_a_stack_refuses_for_one_large_slice():
    stack = np.zeros((3, 2, 2))
    stack[1] = 40.0 * np.eye(2)
    with pytest.raises(RuntimeError, match="has not converged after 40 terms"):
        _exp_and_differential(stack)


def test_power_series_of_a_zero_stack_is_exactly_the_identity():
    exp, differential = _exp_and_differential(np.zeros((4, 2, 3, 3)))
    identities = np.broadcast_to(np.eye(3), (4, 2, 3, 3))
    np.testing.assert_array_equal(exp, identities)
    np.testing.assert_array_equal(differential, identities)


# ---------------------------------------------------------------------------
# the per-point route, as the reference for the batched chart
# ---------------------------------------------------------------------------

def reference_power_series(a, shift):
    """``sum_k a^k / (k + shift)!`` of one matrix."""
    term = np.eye(a.shape[0]) / math.factorial(shift)
    total = term.copy()
    for k in range(1, 40):
        term = term @ a / (k + shift)
        total += term
        if float(np.max(np.abs(term))) < 1e-18:
            return total
    raise RuntimeError("not converged")


def reference_central_difference(f, x0, axis, step):
    e = np.zeros_like(x0)
    e[axis] = 1.0
    return (-f(x0 + 2 * step * e) + 8 * f(x0 + step * e)
            - 8 * f(x0 - step * e) + f(x0 - 2 * step * e)) / (12 * step)


class ReferenceChart:
    """The chart one point and one field at a time."""

    def __init__(self, sp):
        self.sp = sp

    def frame(self, x):
        sp = self.sp
        ad_x = adjoint(sp.algebra, sp.lift(x))
        return sp.eval_matrix @ reference_power_series(ad_x, 1) @ sp.m_basis

    def metric(self, x):
        f = self.frame(x)
        return f.T @ self.sp.metric.gram @ f

    def killing_components(self, z, x):
        sp = self.sp
        ad_x = adjoint(sp.algebra, sp.lift(x))
        value = sp.eval_matrix @ reference_power_series(ad_x, 0) @ z
        return np.linalg.solve(self.frame(x), value)

    def christoffel(self, x, step=INNER_STEP):
        n = self.sp.dim
        dg = np.array([reference_central_difference(self.metric, x, a, step)
                       for a in range(n)])
        braces = (dg + np.einsum("bad->abd", dg) - np.einsum("dab->abd", dg))
        return 0.5 * np.einsum("cd,abd->cab", np.linalg.inv(self.metric(x)),
                               braces)

    def curvature_at_origin(self):
        x0 = np.zeros(self.sp.dim)
        gamma = self.christoffel(x0)
        dgamma = np.array([
            reference_central_difference(self.christoffel, x0, a, OUTER_STEP)
            for a in range(self.sp.dim)])
        return (np.einsum("adbc->dcab", dgamma)
                - np.einsum("bdac->dcab", dgamma)
                + np.einsum("dae,ebc->dcab", gamma, gamma)
                - np.einsum("dbe,eac->dcab", gamma, gamma))

    def nabla_killing_fd(self, z):
        x0 = np.zeros(self.sp.dim)
        dz = np.array([reference_central_difference(
            lambda y: self.killing_components(z, y), x0, b, INNER_STEP)
            for b in range(self.sp.dim)])
        z0 = self.killing_components(z, x0)
        return dz.T + np.einsum("cbe,e->cb", self.christoffel(x0), z0)


def reference_rk4(k_matrix, v0, w0, t_end, steps):
    """Classical Runge-Kutta by its four explicit stages."""
    n = len(v0)
    y = np.concatenate([v0, w0])

    def rhs(state):
        return np.concatenate([state[n:], -k_matrix @ state[:n]])

    h = t_end / steps
    values = [y[:n]]
    for _ in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        values.append(y[:n])
    return np.array(values)


REFERENCE_SPACES = {
    "so4_so2 coupled": lambda: so4_so2(0.5, 0.8)[0],
    "so4_so2 uncoupled": lambda: so4_so2(0.5, 1.0, 0.5)[0],
    "spin3_berger": lambda: spin3_berger(1.5)[0],
    "round_sphere(3)": lambda: round_sphere(3)[0],
}


def _seeded_points(sp, shape, seed=5):
    return 0.1 * np.random.default_rng(seed).standard_normal(shape + (sp.dim,))


@pytest.mark.parametrize("name", REFERENCE_SPACES)
def test_stacked_chart_agrees_with_the_per_point_route(name):
    sp = REFERENCE_SPACES[name]()
    chart, ref = ExponentialChart(sp, sp.metric.gram), ReferenceChart(sp)
    points = _seeded_points(sp, (2, 3))
    gens = np.random.default_rng(6).standard_normal((sp.algebra.dim, 2))
    frames, metrics = chart.frame(points), chart.metric(points)
    fields = chart.killing_components(gens, points)
    assert fields.shape == (2, 3, sp.dim, 2)
    for i in np.ndindex(2, 3):
        x = points[i]
        np.testing.assert_allclose(frames[i], ref.frame(x), rtol=0, atol=1e-12)
        np.testing.assert_allclose(chart.frame(x), ref.frame(x),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(metrics[i], ref.metric(x),
                                   rtol=0, atol=1e-12)
        for p in range(2):
            want = ref.killing_components(gens[:, p], x)
            np.testing.assert_allclose(fields[i][:, p], want,
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                chart.killing_components(gens[:, p], x), want,
                rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", REFERENCE_SPACES)
def test_batched_derivatives_agree_with_the_per_point_route(name):
    sp = REFERENCE_SPACES[name]()
    chart, ref = ExponentialChart(sp, sp.metric.gram), ReferenceChart(sp)
    points = _seeded_points(sp, (3,))
    gammas = chart.christoffel(points)
    for x, gamma in zip(points, gammas):
        np.testing.assert_allclose(gamma, ref.christoffel(x),
                                   rtol=0, atol=1e-9)
    np.testing.assert_allclose(chart.curvature_at_origin(),
                               ref.curvature_at_origin(), rtol=0, atol=1e-9)
    gens = np.hstack([np.eye(sp.algebra.dim),
                      np.random.default_rng(7).standard_normal(
                          (sp.algebra.dim, 2))])
    nablas = chart.nabla_killing_fd(gens)
    assert nablas.shape == (sp.dim, sp.dim, gens.shape[1])
    for p in range(gens.shape[1]):
        np.testing.assert_allclose(nablas[:, :, p],
                                   ref.nabla_killing_fd(gens[:, p]),
                                   rtol=0, atol=1e-10)


@pytest.mark.parametrize("steps", [250, 2000])
def test_step_matrix_is_the_four_stage_runge_kutta(steps):
    rng = np.random.default_rng(19)
    root = rng.standard_normal((4, 4))
    k = root @ root.T
    v0, w0 = rng.standard_normal((2, 4))
    times, values = integrate_field_equation(k, v0, w0, math.pi, steps)
    want = reference_rk4(k, v0, w0, math.pi, steps)
    np.testing.assert_array_equal(times, np.linspace(0.0, math.pi, steps + 1))
    scale = float(np.max(np.abs(want)))
    assert float(np.max(np.abs(values - want))) <= 1e-12 * scale


def _field_operator(kind, n, seed):
    """A seeded symmetric ``n x n`` K: positive semidefinite, or with
    eigenvalues of both signs, whose solutions grow exponentially."""
    root = np.random.default_rng(seed).standard_normal((n, n))
    if kind == "psd":
        return root @ root.T
    return (root + root.T) / 2


@pytest.mark.parametrize("kind", ["psd", "indefinite"])
@pytest.mark.parametrize("steps", [1, 7, _RK4_BLOCK - 1, _RK4_BLOCK,
                                   _RK4_BLOCK + 1, 2001])
def test_blocked_integrator_agrees_with_the_four_stages(kind, steps):
    # at n = 4 the byte budget leaves whole blocks of _RK4_BLOCK steps
    assert _chunks(_RK4_BLOCK, 8 * 8)[0].stop == _RK4_BLOCK
    k = _field_operator(kind, 4, 23)
    if kind == "indefinite":
        assert np.linalg.eigvalsh(k).min() < 0 < np.linalg.eigvalsh(k).max()
    v0, w0 = np.random.default_rng(29).standard_normal((2, 4))
    times, values = integrate_field_equation(k, v0, w0, math.pi, steps)
    want = reference_rk4(k, v0, w0, math.pi, steps)
    assert values.shape == want.shape == (steps + 1, 4)
    scale = float(np.max(np.abs(want)))
    assert float(np.max(np.abs(values - want))) <= 1e-12 * scale


def test_entry_budget_shortens_the_block_of_a_large_operator():
    n = 48  # (2n)^2 = 9216 entries a power, so a block of 9 steps
    assert _chunks(_RK4_BLOCK, 4 * n * n)[0].stop < _RK4_BLOCK
    k = _field_operator("psd", n, 31) / n
    v0, w0 = np.random.default_rng(37).standard_normal((2, n))
    times, values = integrate_field_equation(k, v0, w0, 1.0, 30)
    want = reference_rk4(k, v0, w0, 1.0, 30)
    scale = float(np.max(np.abs(want)))
    assert float(np.max(np.abs(values - want))) <= 1e-12 * scale


def test_an_operator_of_size_zero_integrates_to_empty_states():
    """Its powers take no bytes, so the budget leaves a whole block: no
    division by the (2n)^2 = 0 entries of a power."""
    times, values = integrate_field_equation(np.zeros((0, 0)), [], [], 1.0, 5)
    assert times.shape == (6,) and values.shape == (6, 0)


# ---------------------------------------------------------------------------
# malformed input is refused by name
# ---------------------------------------------------------------------------

def _sphere_chart():
    sp, _ = round_sphere(3)
    return ExponentialChart(sp, sp.metric.gram)


@pytest.mark.parametrize("u, message", [
    (np.zeros(3), "direction is zero, which has no unit length"),
    ([np.nan, 1.0, 0.0], r"direction entry \[0\] is nan, not a finite number"),
    ([1.0j, 1.0, 0.0], r"direction has complex entries \(complex128\)"),
    ([1.0, 0.0], r"direction has shape \(2,\), the space dimension is 3"),
], ids=["zero", "nan", "complex", "length"])
def test_jacobi_matrix_fd_refuses_a_malformed_direction(u, message):
    with pytest.raises(ValueError, match=message):
        _sphere_chart().jacobi_matrix_fd(u)


@pytest.mark.parametrize("z, message", [
    (np.full(6, np.nan), r"generator entry \[0\] is nan, not a finite number"),
    (np.ones(5), r"generator has shape \(5,\), the algebra dimension is 6"),
], ids=["nan", "length"])
def test_nabla_killing_fd_refuses_malformed_generators(z, message):
    with pytest.raises(ValueError, match=message):
        _sphere_chart().nabla_killing_fd(z)


@pytest.mark.parametrize("call, x, message", [
    (lambda c, x: c.metric(x), [1j, 0.0, 0.0],
     r"point has complex entries \(complex128\)"),
    (lambda c, x: c.christoffel(x), [np.nan, 0.0, 0.0],
     r"point entry \[0\] is nan, not a finite number"),
    (lambda c, x: c.killing_components(np.eye(6), x), [np.nan, 0.0, 0.0],
     r"point entry \[0\] is nan, not a finite number"),
    (lambda c, x: c.metric(x), [np.inf, 0.0, 0.0],
     r"point entry \[0\] is inf, not a finite number"),
    (lambda c, x: c.frame(x), np.zeros(4),
     r"point has shape \(4,\), the space dimension is 3"),
], ids=["complex-metric", "nan-christoffel", "nan-killing", "inf-metric",
        "length-frame"])
def test_a_chart_refuses_malformed_points_by_name(call, x, message):
    with pytest.raises(ValueError, match=message):
        call(_sphere_chart(), np.array(x))


@pytest.mark.parametrize("k, v0, t_end, message", [
    (np.eye(2), np.ones(2), np.nan, r"t_end entry \[0\] is nan"),
    (np.eye(2), np.ones(2), np.inf, r"t_end entry \[0\] is inf"),
    (1j * np.eye(2), np.ones(2), 1.0, r"K has complex entries"),
    (np.ones((2, 3)), np.ones(2), 1.0,
     r"K has shape \(2, 3\), not a square one"),
    (np.eye(2), np.ones(3), 1.0,
     r"v0 has shape \(3,\), the K dimension is 2"),
], ids=["nan-t_end", "inf-t_end", "complex-K", "non-square-K", "v0-length"])
def test_integrator_refuses_malformed_input(k, v0, t_end, message):
    with pytest.raises(ValueError, match=message):
        integrate_field_equation(k, v0, np.zeros(2), t_end, 10)


@pytest.mark.parametrize("shape", [(3,), (2, 3, 4), (2, 2, 3, 3)])
def test_a_chart_refuses_metrics_of_another_shape(shape):
    sp, _ = round_sphere(3)
    message = (rf"metrics of shape {re.escape(str(shape))}, not "
               rf"\(N, 3, 3\) or \(3, 3\)")
    with pytest.raises(ValueError, match=message):
        ExponentialChart(sp, np.ones(shape))


def test_a_chart_refuses_a_stack_of_complements():
    """A stack, or its part read by an index array, is refused at
    construction, before any series reads its stacked arrays."""
    comps = [so4_so2_complement(lam) for lam in (0.5, 1.0)]
    pres = spin4_quotient(comps, 1e-9)
    gram = so4_so2_gram(1.0, 0.5)
    for stack, grams in ((pres, gram),
                         (pres._members(np.arange(2)), np.array([gram] * 2))):
        with pytest.raises(ValueError, match=r"a complement stack "
                                             r"\(2, 6, 5\) has no chart"):
            ExponentialChart(stack, grams)


# ---------------------------------------------------------------------------
# a stack of metrics, bit for bit
# ---------------------------------------------------------------------------

class OneMetricChart(ExponentialChart):
    """The metric-dependent methods for one (d, d) metric written without
    a metrics axis, as the chart computed them before it took stacks: the
    reference for bit-for-bit equality of the one-metric results."""

    def _metric_in(self, frame):
        return np.swapaxes(frame, -1, -2) @ self.grams @ frame

    def curvature_at_origin(self):
        points = _stencil(np.zeros(self.pres.dim), OUTER_STEP)
        gamma, dgamma = _derivatives(self.christoffel(points), OUTER_STEP)
        half = (np.einsum("adbc->dcab", dgamma)
                + np.einsum("dae,ebc->dcab", gamma, gamma))
        return half - np.swapaxes(half, 2, 3)

    def nabla_killing_fd(self, z):
        exp, frame = self._series(_stencil(np.zeros(self.pres.dim),
                                           INNER_STEP))
        z0, dz = _derivatives(self._components_in(z, exp, frame), INNER_STEP)
        gamma = _christoffel(self._metric_in(frame))
        return np.swapaxes(dz, 0, 1) + np.einsum("cbe,e...->cb...", gamma, z0)

    def jacobi_matrix_fd(self, u):
        u = np.asarray(u, dtype=float)
        u = u / np.sqrt(u @ self.grams @ u)
        return np.einsum("dcab,b,c->da", self.curvature_at_origin(), u, u)


STACKS = {
    "so4-so2 uncoupled slope": lambda: (
        spin4_quotient(so4_so2_complement(0.25), 1e-9),
        [so4_so2_gram(s, t) for s, t in verify._UNCOUPLED_METRICS]),
    "so4-so2 coupled slope": lambda: (
        spin4_quotient(so4_so2_complement(0.25), 1e-9),
        [so4_so2_gram(s, t) for s, t in verify._COUPLED_METRICS]),
    "spin3 line": lambda: (
        spin3_presentation(1e-9),
        [np.diag(spin3_line(s)) for s in (0.25, 0.5, 0.75)]),
}


@pytest.mark.parametrize("name", STACKS)
def test_a_stacked_chart_matches_one_chart_per_metric_bit_for_bit(name):
    """Each metric-dependent result of a stacked chart, at its metric's
    index of the axis after the point axes, equals that of the chart of
    the metric alone, which equals the one-metric formulas, bit for bit."""
    pres, grams = STACKS[name]()
    points = 0.1 * np.random.default_rng(5).standard_normal((2, 3, pres.dim))
    gens = np.eye(pres.algebra.dim)
    u = np.arange(1.0, pres.dim + 1.0)
    methods = {  # each with the axis of the metrics in its stacked result
        "metric": (lambda c: c.metric(points), 2),
        "christoffel": (lambda c: c.christoffel(points), 2),
        "curvature_at_origin": (lambda c: c.curvature_at_origin(), 0),
        "nabla_killing_fd": (lambda c: c.nabla_killing_fd(gens), 0),
        "nabla_killing_fd of one": (lambda c: c.nabla_killing_fd(gens[0]), 0),
        "jacobi_matrix_fd": (lambda c: c.jacobi_matrix_fd(u), 0),
    }
    stacked = ExponentialChart(pres, np.array(grams))
    for method, (call, axis) in methods.items():
        results = call(stacked)
        assert results.shape[axis] == len(grams), method
        for i, gram in enumerate(grams):
            want = call(OneMetricChart(pres, gram))
            assert same_bits(call(ExponentialChart(pres, gram)), want), method
            assert same_bits(np.take(results, i, axis=axis), want), method
