"""Bundled verification checks over the catalog spaces.

Each check recomputes a published or independently derived statement from
scratch and reports a machine-readable outcome.  ``provenance`` records
the origin of the expected value: ``published`` for classical facts,
``derived`` for values frozen after computing them with the independent
oracles in :mod:`symidx.numcheck`, ``trivial`` for structural assertions.

The first check rebuilds a structure tensor through :class:`LieAlgebra`'s
validation; it is the negative-control fixture of the test suite, which
corrupts that tensor to confirm that a broken one makes the run fail.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass

import numpy as np

from . import catalog
from .homspace import (
    BoundReport,
    TransvectionReport,
    _curvature,
    _decide_groups,
    _metric_refusals,
    _nablas,
    _parallel_fields,
    _refuse_curvature,
    _stacked_psd,
    _unstack,
    augment_left_invariant,
    closed_geodesic_length,
    jacobi_field,
    jacobi_operator,
    perpendicular_killing_space,
    symmetry_ideal,
    symmetry_ideals,
    transvection_space,
)
from .liealg import (
    DEFAULT_TOL,
    BilinearForm,
    LieAlgebra,
    Subspace,
    derived_subalgebra,
    eigenvalue_clusters,
    killing_form_positive,
    pencil_eigh,
    so_elementary,
    spin3_quaternion,
)
from .numcheck import ExponentialChart, integrate_field_equation


@dataclass
class VerificationOutcome:
    check: str
    status: str                      # "pass" or "fail"
    provenance: str                  # "published", "derived", or "trivial"
    expected: object
    actual: object
    detail: str
    duration_ms: float               # wall time of the check body


class _CheckFailure(Exception):
    """Raised inside a check body to fail with a readable message."""


def _require(cond: bool, message: str):
    if not cond:
        raise _CheckFailure(message)


# ---------------------------------------------------------------------------
# check bodies
# ---------------------------------------------------------------------------

def _check_structure_tensor():
    alg, _ = so_elementary(4)
    rebuilt = LieAlgebra(alg.dim, alg.basis_labels, alg.structure.copy())
    residual = rebuilt.jacobi_residual()
    return ({"max_residual": 1e-9}, {"jacobi_residual": residual})


def _check_round_spheres():
    expected, actual = {}, {}
    for n in range(2, 6):
        sp, info = catalog.round_sphere(n)
        want = np.array([0.0] + [1.0] * (n - 1))
        rep = transvection_space(sp)
        _require(rep.index == n, f"S^{n}: index {rep.index} != {n}")
        _require(rep.coindex == 0, f"S^{n}: coindex {rep.coindex} != 0")
        spec = jacobi_operator(sp, sp.lift(np.eye(n)[:, 0]))
        if not np.allclose(np.sort(spec.eigenvalues), want, atol=1e-9):
            raise _CheckFailure(f"S^{n}: curvature eigenvalues "
                                f"{spec.eigenvalues} != {want}")
        _require(spec.psd_ok, f"S^{n}: curvature operator not psd")
        length = closed_geodesic_length(sp, info["representation"],
                                        sp.lift(np.eye(n)[:, 0]))
        _require(abs(length - 2.0 * math.pi) <= 1e-9,
                 f"S^{n}: great circle length {length} != 2*pi")
        actual[f"S^{n}"] = {"index": rep.index,
                            "eigenvalues": np.sort(spec.eigenvalues).tolist()}
        expected[f"S^{n}"] = {"index": n, "eigenvalues": want.tolist()}
    return expected, actual


_SLOPES = (0.25, 0.5, 1.0)
_COUPLED_METRICS = [(s, 2.0 - s) for s in (0.4, 0.8, 1.2, 1.6)]
_UNCOUPLED_METRICS = ((0.5, 0.5), (1.0, 0.5), (1.5, 1.0))


def _decided(pres, grams) -> tuple:
    """``(part, nablas, stack)`` of the metrics ``grams`` (N, dim, dim) on
    ``pres`` read by position, ``part = pres._members(arange(N))``: one call
    each of the metric rule, the Koszul derivatives and the parallel fields;
    a refused metric raises as ``pres.space``.  ``part._members(k)`` of an
    int k is a one-member part, which takes a metric by ``space``."""
    part = pres._members(np.arange(len(grams)))
    for refusal in filter(None, _metric_refusals(part, grams)):
        raise ValueError(refusal)
    nablas = _nablas(part, grams)
    return part, nablas, _decide_groups(part, *_parallel_fields(part, nablas))


def _quotients(metrics) -> tuple:
    """The so4-so2 stack of a member a slope of ``_SLOPES`` and its Gram
    matrices, ``metrics`` slope by slope from position ``k * len(metrics)``."""
    grams = np.array([catalog.so4_so2_gram(s, t) for s, t in metrics])
    comps = [catalog.so4_so2_complement(lam) for lam in _SLOPES]
    return (catalog.spin4_quotient([c for c in comps for _ in metrics],
                                   DEFAULT_TOL),
            np.tile(grams, (len(comps), 1, 1)))


def _check_quotient_coupled():
    actual = {}
    stack = _decided(*_quotients(_COUPLED_METRICS))[-1]
    rows = zip(*(stack[key].tolist() for key in
                 ("index", "coindex", "involutive_ok")))
    points = itertools.product(_SLOPES, _COUPLED_METRICS)
    for (lam, (s, _)), (index, coindex, involutive) in zip(points, rows):
        _require(index == 2, f"lam={lam}, s={s}: index {index} != 2")
        _require(coindex == 3, f"lam={lam}, s={s}: coindex {coindex} != 3")
        _require(involutive, f"lam={lam}, s={s}: bracket relations of "
                             f"the parallel fields fail")
        actual[f"lam={lam},s={s}"] = index
    return {"index": 2, "coindex": 3, "points": len(actual)}, actual


def _check_quotient_uncoupled():
    pres, grams = _quotients(_UNCOUPLED_METRICS)
    pres, nablas, stack = _decided(pres, grams)
    count, worst = len(_UNCOUPLED_METRICS), 0.0
    indices = stack["index"].tolist()
    for k, lam in enumerate(_SLOPES):  # one chart per slope, on its part
        rows = slice(k * count, (k + 1) * count)
        numeric = ExponentialChart(pres._members(rows.start), grams[rows]
                                   ).nabla_killing_fd(np.eye(pres.algebra.dim))
        errs = np.abs(nablas[rows] - np.moveaxis(numeric, -1, 1)).max(
            axis=(-2, -1))
        for (s, t), index, row in zip(_UNCOUPLED_METRICS, indices[rows],
                                      errs):
            _require(index == 0, f"lam={lam}, s={s}, t={t}: index {index} != 0")
            col = int(np.argmax(~(row <= 1e-6)))  # first failing field, NaN too
            _require(row[col] <= 1e-6, f"lam={lam}, s={s}, t={t}: derivative of "
                     f"field {col} disagrees with the finite difference "
                     f"oracle ({row[col]:.3e})")
        worst = max(worst, float(errs.max()))
    return ({"index": 0, "fd_tolerance": 1e-6},
            {"worst_fd_error": worst, "points": len(grams)})


def _check_bound_equalities():
    actual = {}
    sp, _ = catalog.so4_so2(0.5, 0.5)
    bound = symmetry_ideal(sp)
    _require(bound.gD.dim == 0, "coupled quotient: symmetry ideal not zero")
    _require((bound.lhs, bound.rhs) == (12, 12) and bound.equality,
             f"coupled quotient: bound {bound.lhs} vs {bound.rhs}")
    actual["quotient"] = (bound.lhs, bound.rhs)

    sp, _ = catalog.spin3_berger(1.5)
    aug = augment_left_invariant(sp)
    bound = symmetry_ideal(aug)
    _require(bound.gD.dim == 1,
             f"augmented squashed sphere: ideal dimension {bound.gD.dim} != 1")
    _require(bound.gD.contains(np.array([0.0, 0.0, 0.0, 1.0])),
             "augmented squashed sphere: ideal is not the opposite circle")
    _require((bound.lhs, bound.rhs, bound.k) == (6, 6, 2) and bound.equality,
             f"augmented squashed sphere: bound {bound.lhs} vs {bound.rhs}")
    actual["squashed"] = (bound.lhs, bound.rhs)

    sp, _ = catalog.spin3_one_parameter(0.5)
    bound = symmetry_ideal(sp)
    _require((bound.lhs, bound.rhs, bound.k) == (6, 6, 2) and bound.equality,
             f"one-parameter line: bound {bound.lhs} vs {bound.rhs}")
    actual["line"] = (bound.lhs, bound.rhs)
    return {"quotient": (12, 12), "squashed": (6, 6), "line": (6, 6)}, actual


def _check_product_spheres():
    actual, rhos = {}, (0.5, 1.0, 2.0)
    built = [catalog.product_of_spheres_metric(rho) for rho in rhos]
    grams = np.array([BilinearForm(gram).gram for _, gram, _ in built])
    pres, _, stack = _decided(catalog.spin4_quotient(
        [comp for comp, _, _ in built], DEFAULT_TOL), grams)
    reports = _unstack(TransvectionReport, stack, pres)
    bounds = _unstack(BoundReport, symmetry_ideals(pres, stack), pres)
    for k, (rho, rep, bound) in enumerate(zip(rhos, reports, bounds)):
        info = catalog._product_closed_form(rho)
        want = info["homothety"] * catalog.so4_so2_gram(info["s"], info["t"])
        err = float(np.max(np.abs(grams[k] - want)))
        _require(err <= 1e-9,
                 f"rho={rho}: metric deviates from the closed form by {err:.3e}")
        _require((rep.index, rep.coindex) == (2, 3),
                 f"rho={rho}: index {rep.index}, coindex {rep.coindex}")
        perp = perpendicular_killing_space(
            pres._members(k).space(BilinearForm(grams[k])), rep)
        cols = np.vstack([np.eye(3), -np.eye(3) / info["lam"]])
        _require(perp.equals(Subspace.from_spanning(6, cols)),
                 f"rho={rho}: perpendicular fields are not the weighted "
                 f"antidiagonal")
        _require((bound.lhs, bound.rhs) == (12, 12) and bound.equality,
                 f"rho={rho}: bound {bound.lhs} vs {bound.rhs}")
        actual[f"rho={rho}"] = {"metric_error": err, "index": rep.index}
    return {"metric_tolerance": 1e-9, "index": 2, "bound": (12, 12)}, actual


def _check_spin3_line():
    actual, params = {}, (0.25, 0.5, 0.75)
    pres = catalog.spin3_presentation(DEFAULT_TOL)
    metrics = [BilinearForm(np.diag(catalog.spin3_line(s))) for s in params]
    _, nablas, stack = _decided(pres, np.array([m.gram for m in metrics]))
    rep_mats = spin3_quaternion()[1]
    for s, metric, nabla, index in zip(params, metrics, nablas,
                                       stack["index"].tolist()):
        drift = float(np.max(np.abs(nabla[0])))  # the field i, e_0
        _require(drift <= 1e-8,
                 f"s={s}: distinguished field is not parallel ({drift:.3e})")
        _require(index == 1, f"s={s}: index {index} != 1")
        sp = pres.space(metric)
        len_j = closed_geodesic_length(sp, rep_mats, np.array([0.0, 1.0, 0.0]))
        len_i = closed_geodesic_length(sp, rep_mats, np.array([1.0, 0.0, 0.0]))
        _require(abs(len_j - 2.0 * math.pi * math.sqrt(s)) <= 1e-8,
                 f"s={s}: j-orbit length {len_j}")
        _require(abs(len_i - 2.0 * math.pi * math.sqrt(2.0)) <= 1e-8,
                 f"s={s}: i-orbit length {len_i}")
        actual[f"s={s}"] = {"index": index, "len_j": len_j, "len_i": len_i}
    return {"index": 1, "len_j": "2*pi*sqrt(s)", "len_i": "2*pi*sqrt(2)"}, actual


def _check_spin3_augmented():
    actual, ts = {}, (0.5, 1.5, 3.0)
    pres = catalog.spin3_presentation(DEFAULT_TOL)
    metrics = [BilinearForm(np.diag(a)) for a in (
        *map(catalog.spin3_squashed, ts), (0.5, 0.9, 2.0), (2.0, 2.0, 2.0))]
    indices = _decided(pres, np.array([m.gram for m in metrics[:4]])
                       )[-1]["index"].tolist()  # Berger and generic
    for t, metric, index in zip(ts, metrics, indices):
        _require(index == 0, f"t={t}: unaugmented index {index} != 0")
        aug = augment_left_invariant(pres.space(metric))
        _require(aug.algebra.dim == 4,
                 f"t={t}: augmentation found {aug.algebra.dim - 3} directions")
        rep = transvection_space(aug)
        _require(rep.index == 1, f"t={t}: augmented index {rep.index} != 1")
        a = aug.isotropy.basis[:aug.dim]  # the isotropy is [[a], [-I]]
        v = rep.p_space.basis[:, 0]
        x, y = v[:3], a @ v[3:]
        _require(float(np.linalg.norm(y - (t - 1.0) * x)) <= 1e-8,
                 f"t={t}: parallel line is not x + (t-1) x-hat")
        _require(float(np.linalg.norm(y)) > 1e-8,
                 f"t={t}: opposite component vanishes although t != 1")
        actual[f"t={t}"] = {"index": rep.index,
                            "ratio": float(np.linalg.norm(y)
                                           / np.linalg.norm(x))}

    aug = augment_left_invariant(pres.space(metrics[4]))
    rep = transvection_space(aug)
    _require(rep.index == 3,
             f"bi-invariant metric: augmented index {rep.index} != 3")
    a = aug.isotropy.basis[:aug.dim]
    p = rep.p_space.basis
    _require(bool(np.all(np.linalg.norm(a @ p[3:] - p[:3], axis=0) <= 1e-8)),
             "bi-invariant metric: parallel fields are not the two-sided "
             "diagonal")
    actual["bi-invariant"] = rep.index

    _require(indices[3] == 0, "generic diagonal metric: index != 0")
    sp = pres.space(metrics[3])
    _require(augment_left_invariant(sp) is sp,
             "generic diagonal metric: augmentation is not a no-op")
    actual["generic"] = 0
    return ({"squashed_index": 1, "bi_invariant_index": 3, "generic_index": 0},
            actual)


def _normal(rng: random.Random, *shape: int) -> np.ndarray:
    """Standard normal draws of ``rng`` in an array of ``shape``, from the
    standard library, which spares a run the import of numpy.random."""
    return np.array([rng.gauss(0.0, 1.0)
                     for _ in range(math.prod(shape))]).reshape(shape)


def _jacobi_oracle_cases():
    sp, _ = catalog.round_sphere(3)
    yield sp, sp.lift(np.eye(3)[:, 0]), "S^3"
    sp, _ = catalog.so4_so2(0.5, 0.5)
    yield sp, sp.m_basis[:, 0], "Spin(4)/S1"
    sp, _ = catalog.spin3_one_parameter(0.5)
    yield sp, np.array([1.0, 0.0, 0.0]), "Spin(3) line"


def _check_jacobi_oracle():
    actual = {}
    rng = random.Random(280)
    for sp, direction, name in _jacobi_oracle_cases():
        spec = jacobi_operator(sp, direction)
        _require(spec.psd_ok, f"{name}: curvature operator not psd")
        chart = ExponentialChart(sp, sp.metric.gram)
        k_fd = chart.jacobi_matrix_fd(sp.evaluate(spec.direction))
        v0, w0 = _normal(rng, 2, sp.dim)
        times, integrated = integrate_field_equation(k_fd, v0, w0, math.pi)
        closed = jacobi_field(sp, spec, v0, w0, times)
        err = float(np.max(np.abs(closed - integrated)))
        _require(err <= 1e-5,
                 f"{name}: closed form and integrated field differ by {err:.3e}")
        actual[name] = {"max_error": err,
                        "eigenvalues": np.sort(spec.eigenvalues).tolist()}
    return {"tolerance": 1e-5, "interval": "[0, pi]"}, actual


def _check_centriole():
    sp, info = catalog.cp2_centriole()
    alg, tol = sp.algebra, sp.tol
    stabilizer = info["pole_stabilizer"]
    fiber = Subspace.from_spanning(sp.dim, sp.evaluate(stabilizer.basis), tol)
    dims = (alg.dim - stabilizer.dim, fiber.dim, sp.dim)  # base, fiber, sphere
    _require(dims == (2, 1, 3), f"dimensions {dims} != (2, 1, 3)")
    coindex = transvection_space(sp).coindex
    _require(coindex == 2, f"coindex {coindex} != 2")
    # the metric on the derived algebra's velocities against the trace form
    der = derived_subalgebra(alg, tol)
    values = sp.evaluate(der.basis)  # isotropy parts have no velocity
    b_sub = der.basis.T @ killing_form_positive(alg).gram @ der.basis
    w, vecs = pencil_eigh(8.0 * values.T @ sp.metric.gram @ values, b_sub, tol)
    sizes = sorted(int(c.stop - c.start) for c in eigenvalue_clusters(w, tol))
    _require(sizes == [1, 2], f"eigenvalue multiplicities {sizes} != [1, 2]")
    in_fiber = fiber.contains_columns(values @ vecs)
    _require(in_fiber.any(), "no pencil eigenvector is tangent to the fiber")
    distinguished = w[np.argmax(in_fiber)]
    others = w[np.abs(w - distinguished) > tol]
    berger_t = float(2.0 * others[0] / distinguished) if others.size else 2.0
    _require(abs(berger_t - 4.0) <= 1e-9,
             f"squashing parameter {berger_t} != 4.0")
    return ({"dims": (2, 1, 3), "coindex": 2, "berger_t": 4.0},
            {"dims": dims, "coindex": coindex, "berger_t": berger_t})


def _residual_groups() -> list:
    """The ten spaces of invariant-residuals as ``(pres, labels, grams,
    places)`` by presentation, places in the order of the seeded draws: a
    Spin(4) stack (so4-so2 coupled and not, product-spheres), a Spin(3)
    stack (line, Berger), then S^2, S^3, cp2-centriole and two augmented."""
    half, (comp, gram, _) = (catalog.so4_so2_complement(0.5),
                             catalog.product_of_spheres_metric(1.0))
    spin3 = catalog.spin3_presentation(DEFAULT_TOL)
    squashed = np.diag(catalog.spin3_squashed(1.5))
    spaces = [catalog.round_sphere(2)[0], catalog.round_sphere(3)[0],
              catalog.cp2_centriole()[0]] + [
        augment_left_invariant(spin3.space(BilinearForm(g), label)) for g, label
        in ((squashed, "Spin(3) metric (1.5, 1.5, 2)"),
            (np.diag((2.0, 2.0, 2.0)), "Spin(3) metric (2, 2, 2)"))]
    return [(catalog.spin4_quotient([half, half, comp] * 2, DEFAULT_TOL),
             ["Spin(4)/S1 lam=0.5 s=0.5 t=1.5", "Spin(4)/S1 lam=0.5 s=0.5 t=1",
              "S^2(1) x S^3"], [catalog.so4_so2_gram(0.5, 1.5),
                                catalog.so4_so2_gram(0.5, 1.0),
                                BilinearForm(gram).gram], (2, 3, 6)),
            (spin3, ["Spin(3) metric (0.5, 1.5, 2)",
                     "Spin(3) metric (1.5, 1.5, 2)"],
             [np.diag(catalog.spin3_line(0.5)), squashed], (4, 5))] + [
        (sp, [sp.label], [sp.metric.gram], (place,))
        for place, sp in zip((0, 1, 7, 8, 9), spaces)]


def _check_invariant_residuals():
    groups, rng, worst = _residual_groups(), random.Random(167), 0.0
    # three seeded fields a space, drawn in the order of the places
    dims = sorted((place, pres.algebra.dim) for pres, *_, places in groups
                  for place in places)
    fields = [_normal(rng, 3, n) for _, n in dims]
    for pres, labels, grams, places in groups:
        count, n = len(labels), pres.algebra.dim
        grams = np.concatenate([grams, 2.5 * np.array(grams)])
        pres, nablas, stack = _decided(pres, grams)
        reports = _unstack(TransvectionReport, stack, pres)
        # the derivative operator of any field is skew for the metric
        x = np.array([fields[place] for place in places])[..., None, :]
        gn = grams[:count, None] @ (x @ nablas[:count, None].reshape(
            count, 1, n, -1)).reshape(count, 3, pres.dim, pres.dim)
        skews = np.abs(gn + gn.swapaxes(-1, -2)).max(axis=(-2, -1)).tolist()
        for label, rep, row in zip(labels, reports, skews):
            _require(rep.involutive_ok, f"{label}: bracket relations of the "
                                        f"parallel fields fail")
            _require(rep.index + rep.coindex == pres.dim,
                     f"{label}: index and coindex do not add to the dimension")
            for skew in row:
                worst = max(worst, skew)
                _require(skew <= 1e-8, f"{label}: derivative operator is not "
                                       f"skew ({skew:.3e})")
        # per index, the parallel fields of the unscaled metrics: their
        # derivatives and jacobi_operator's decisions, one product a field
        for rows, p in stack["p_space"]:
            rows, p = rows[rows < count], p[rows < count]
            if not p.size:
                continue
            part = pres._members(rows)
            drift = np.abs(np.ascontiguousarray(p.swapaxes(-1, -2))[
                ..., None, :] @ nablas[rows, None].reshape(len(rows), 1, n, -1))
            xn, residuals, first, ops, lowered = _curvature(
                part, grams[rows], nablas[rows], p)
            psd = _stacked_psd(grams[rows], lowered)
            v = ops @ (part.eval_matrix[..., None, :, :] @ xn[..., None])
            along = np.sqrt(v.swapaxes(-1, -2) @ v)[..., 0, 0]  # a dot, as
            # np.linalg.norm takes for one vector: the same bits
            for at, label in enumerate(labels[row] for row in rows.tolist()):
                for col, resid in enumerate(drift[at].max(axis=(-2, -1))):
                    worst = max(worst, float(resid), float(along[at, col]))
                    _require(resid <= 1e-8, f"{label}: reported parallel "
                                            f"field has derivative {resid:.3e}")
                    _refuse_curvature(first[at, col], residuals[at, col])
                    _require(psd[at, col], f"{label}: curvature operator not "
                                           f"psd along a parallel direction")
                    _require(along[at, col] <= 1e-8, f"{label}: curvature "
                             f"operator does not vanish along its own "
                             f"direction ({along[at, col]:.3e})")
        b, ads = killing_form_positive(pres.algebra).gram, pres.algebra.ad_stack
        inv = float(np.max(np.abs(b @ ads + ads.transpose(0, 2, 1) @ b),
                           initial=0.0))
        worst = max(worst, inv)
        _require(inv <= 1e-8,
                 f"{labels[0]}: trace form is not ad-invariant ({inv:.3e})")
        bounds = _unstack(BoundReport, symmetry_ideals(pres, stack), pres)
        for k, label in enumerate(labels):
            rep, scaled_rep = reports[k], reports[count + k]
            _require(scaled_rep.index == rep.index
                     and scaled_rep.p_space.equals(rep.p_space),
                     f"{label}: subspace reports change under metric scaling")
            _require(bounds[k].lhs <= bounds[k].rhs,
                     f"{label}: dimension bound violated "
                     f"({bounds[k].lhs} > {bounds[k].rhs})")
            _require(bounds[count + k].gD.equals(bounds[k].gD),
                     f"{label}: symmetry ideal changes under metric scaling")
    return ({"max_residual": 1e-8},
            {"spaces": len(fields), "worst_residual": worst})


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

CHECKS = (
    ("structure-tensor-validation", "trivial", _check_structure_tensor),
    ("round-sphere-index", "published", _check_round_spheres),
    ("so4-so2-coupled", "published", _check_quotient_coupled),
    ("so4-so2-uncoupled-derivative-oracle", "derived", _check_quotient_uncoupled),
    ("symmetry-bound-equalities", "published", _check_bound_equalities),
    ("product-spheres-formulas", "published", _check_product_spheres),
    ("spin3-line", "published", _check_spin3_line),
    ("spin3-berger-augmented", "published", _check_spin3_augmented),
    ("curvature-operator-oracle", "derived", _check_jacobi_oracle),
    ("cp2-centriole-shape", "derived", _check_centriole),
    ("invariant-residuals", "trivial", _check_invariant_residuals),
)

CHECK_NAMES = tuple(name for name, _, _ in CHECKS)


def run_checks(name_filter: str | None = None) -> list[VerificationOutcome]:
    """Run the bundled checks, optionally restricted by substring."""
    outcomes = []
    for name, provenance, fn in CHECKS:
        if name_filter and name_filter not in name:
            continue
        start = time.perf_counter()
        status, expected, actual, detail = "fail", None, None, ""
        try:
            expected, actual = fn()
            status = "pass"
        except _CheckFailure as exc:
            detail = str(exc)
        except Exception as exc:  # noqa: BLE001 - report, do not crash the run
            detail = f"{type(exc).__name__}: {exc}"
        outcomes.append(VerificationOutcome(
            name, status, provenance, expected, actual, detail,
            1e3 * (time.perf_counter() - start)))
    return outcomes
