"""Finite-difference cross-checks of the algebraic formulas.

These tests intentionally compare two independent routes: the closed
algebraic expressions at the base point against derivatives taken in an
exponential coordinate chart.  Tolerances reflect fourth-order central
differences with the default steps.
"""

import numpy as np
import pytest

from symidx.catalog import round_sphere, so4_so2, spin3_berger
from symidx.homspace import jacobi_field, jacobi_operator
from symidx.numcheck import (
    ExponentialChart,
    _power_series,
    central_difference,
    integrate_field_equation,
)


def test_central_difference_order():
    def f(x):
        return np.array([np.sin(x[0]), np.cos(2.0 * x[0])])

    d = central_difference(f, np.array([0.7]), axis=0, step=1e-3)
    exact = np.array([np.cos(0.7), -2.0 * np.sin(1.4)])
    np.testing.assert_allclose(d, exact, atol=1e-11)


def test_frame_is_the_identity_at_the_origin():
    sp, _ = round_sphere(2)
    np.testing.assert_allclose(ExponentialChart(sp).frame(np.zeros(2)),
                               np.eye(2), atol=1e-14)


def test_round_sphere_chart_metric_closed_form():
    """In exponential coordinates the unit sphere metric is 1 radially
    and sin(r)^2 / r^2 transversally."""
    sp, _ = round_sphere(2)
    chart = ExponentialChart(sp)
    for x in (np.array([0.3, -0.2]), np.array([0.0, 0.9])):
        r = np.linalg.norm(x)
        g = chart.metric(x)
        np.testing.assert_allclose(g @ x, x, atol=1e-10)  # radial eigenvalue 1
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(g)),
                                   [np.sin(r) ** 2 / r ** 2, 1.0], atol=1e-10)


def test_chart_is_normal_exactly_for_the_symmetric_case():
    sp, _ = round_sphere(2)
    gamma = ExponentialChart(sp).christoffel(np.zeros(2))
    assert np.max(np.abs(gamma)) < 1e-10

    squashed, _ = spin3_berger(3.0)
    gamma = ExponentialChart(squashed).christoffel(np.zeros(3))
    assert np.max(np.abs(gamma)) > 0.1


def test_christoffel_is_symmetric_in_the_lower_indices():
    sp, _ = round_sphere(2)
    gamma = ExponentialChart(sp).christoffel(np.array([0.3, -0.2]))
    np.testing.assert_allclose(gamma, np.swapaxes(gamma, 1, 2), atol=1e-8)


def test_killing_components_at_the_origin():
    sp, _ = round_sphere(3)
    chart = ExponentialChart(sp)
    rng = np.random.default_rng(17)
    for _ in range(3):
        z = rng.standard_normal(sp.algebra.dim)
        np.testing.assert_allclose(chart.killing_components(z, np.zeros(3)),
                                   sp.evaluate(z), atol=1e-12)


def test_derivative_of_killing_fields_matches_the_base_formula():
    for sp in (so4_so2(0.5, 0.6)[0], spin3_berger(1.5)[0]):
        chart = ExponentialChart(sp)
        rng = np.random.default_rng(23)
        for _ in range(3):
            z = rng.standard_normal(sp.algebra.dim)
            fd = chart.nabla_killing_fd(z)
            np.testing.assert_allclose(fd, sp.nabla_at_base(z), atol=1e-8)


def test_curvature_operator_matches_the_finite_difference_route():
    sp, _ = round_sphere(3)
    chart = ExponentialChart(sp)
    u = np.eye(3)[:, 0]
    fd = chart.jacobi_matrix_fd(u)
    spec = jacobi_operator(sp, sp.lift(u))
    np.testing.assert_allclose(fd, spec.operator, atol=1e-6)


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


def test_power_series_gives_exp_and_its_differential():
    theta = 0.3
    a = np.array([[0.0, -theta], [theta, 0.0]])
    rotation = np.array([[np.cos(theta), -np.sin(theta)],
                         [np.sin(theta), np.cos(theta)]])
    np.testing.assert_allclose(_power_series(a, 0), rotation, atol=1e-15)
    # a (exp(a) - 1) / a = exp(a) - 1
    np.testing.assert_allclose(a @ _power_series(a, 1), rotation - np.eye(2),
                               atol=1e-15)
    np.testing.assert_array_equal(_power_series(np.zeros((3, 3)), 1),
                                  np.eye(3))


def test_power_series_refuses_to_stop_before_converging():
    with pytest.raises(RuntimeError, match="has not converged after 40 terms"):
        _power_series(40.0 * np.eye(2), 0)
