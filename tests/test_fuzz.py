"""Seeded fuzz of the command line, with no fuzzing library.

Every ``catalog emit`` document is mutated (keys dropped or repeated,
values of the wrong type, ``NaN`` and ``Infinity`` tokens, entries near
the float limit, huge and negative integers, deep nesting, ragged and
transposed matrices) and read by ``index`` and ``jacobi``; the arguments
of every command are mutated too.  Each run must end as the command line
promises: exit 0, 1 or 2, at most one ``error:`` line, and no traceback
and no warning.  Some documents are also read with their complement
scaled as a whole, by powers of ten up to 1e300, under the same rule.
A seeded third of the document runs is traced as well: each must peak
under the byte budget ``liealg._STACK_BYTES`` plus the document's size,
by tracemalloc, after untraced first runs have done their imports.  A
failure names the seed that reproduces it.
"""

import contextlib
import functools
import io
import json
import math
import random
import warnings

import pytest

from meaning import traced_peak
from symidx import liealg
from symidx.cli import main

NAMES = ("round-sphere:3", "so4-so2:0.5,0.6", "spin3:1,2,3",
         "product-spheres:1", "cp2-centriole")
DOCUMENT_SEEDS = range(600)
ARGUMENT_SEEDS = range(300)
#: The document runs traced by tracemalloc, a third: tracing each run
#: doubles its time.
TRACED_SEEDS = frozenset(random.Random(27).sample(DOCUMENT_SEEDS, 200))

#: Replacements of a value: other types, non-finite tokens, entries near
#: the float limit and integers no float or machine integer holds.
ODD_VALUES = ("x", "1+2j", True, None, {}, [], {"a": 1}, [[]], 0, -3, 2.5,
              float("nan"), float("inf"), float("-inf"), 1e308, -1e308,
              1e-308, 10 ** 400, -10 ** 400, 2 ** 63, 10 ** 6)
#: Sweep grids of at most three points, of points outside every family's
#: range, and grids that are no grid.
GRIDS = ("0.5", "0.1:0.5:0.2", "0.2:1:0.4", "1.9:2.1:0.1", "2", "-1", "1e-320",
         "1e308:1e308:1", "1e154", "9e153")
BAD_GRIDS = ("1:0:0.1", "0:1:0", "0:1:-1", "a:b:c", "-1e308:1e308:1e300",
             "nan", "inf", "0.1:0.2", "", "0.5:0.5:1e-300", "0:1e6:1",
             "1e-320:1e-310:1e-320")
#: The flags of each family's sweep, and a family there is not.
FAMILY_FLAGS = {"so4-so2": ("--lambda", "--s", "--t"),
                "so4-so2 coupled": ("--lambda", "--s", "--coupled"),
                "spin3": ("--s",), "spin3 squashed": ("--t",),
                "product-spheres": ("--rho",), "torus": ("--s",)}
TOLS = ("1e-9", "0", "-1", "nan", "inf", "1", "1e-15", "0.5", "x", "1e-300",
        "0.999", "1e-6")
CATALOG_NAMES = NAMES + (
    "round-sphere:x", "round-sphere:0", "round-sphere:1e300",
    "round-sphere:2.5", "round-sphere:17", "so4-so2:0.5", "so4-so2:0,1",
    "so4-so2:0.5,0.5,nan", "so4-so2:2,0.5", "spin3:1,2", "spin3:1,2,-3",
    "spin3:1e308,1e308,1e308", "product-spheres:-1", "product-spheres:1e308",
    "product-spheres:1e-200", "cp2-centriole:1", "foo", "", ":", "so4-so2:,")
#: The documents whose complement is scaled as a whole, by each power of
#: ten in SCALES.
SCALED_NAMES = ("round-sphere:2", "round-sphere:5", "so4-so2:0.5,0.8",
                "so4-so2:0.5,0.8,1.2", "spin3:1,1,1", "spin3:0.5,1.5,2",
                "product-spheres:1", "cp2-centriole")
SCALES = (100, 150, 155, 200, 300)


class Pairs(list):
    """An object as its ``(key, value)`` members, so a key may repeat."""


class Nested(tuple):
    """``(value, depth)``: ``value`` inside ``depth`` arrays, written without
    a recursion as deep as the arrays."""


def dumps(value) -> str:
    """JSON text of ``value``, with ``NaN`` and ``Infinity`` tokens, and a
    :class:`Pairs` written as one object."""
    if isinstance(value, (dict, Pairs)):
        members = value.items() if isinstance(value, dict) else value
        return "{" + ", ".join(f"{json.dumps(str(k))}: {dumps(v)}"
                               for k, v in members) + "}"
    if isinstance(value, Nested):
        return "[" * value[1] + dumps(value[0]) + "]" * value[1]
    if isinstance(value, list):
        return "[" + ", ".join(map(dumps, value)) + "]"
    return json.dumps(value)


@functools.cache
def emitted(name: str) -> str:
    code, out, err, caught = run(["catalog", "emit", name])
    assert (code, err, caught) == (0, "", [])
    return out


def run(argv: list) -> tuple:
    """``(code, stdout, stderr, warnings)`` of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), [str(w.message)
                                                  for w in caught]


def mutated(rng: random.Random, value, depth: int = 0):
    """``value`` with one mutation, at a node reached by a random walk down
    from it."""
    if isinstance(value, dict) and value and (not depth or rng.random() < 0.8):
        key = rng.choice(sorted(value))
        if rng.random() < 0.15:  # dropped
            return {k: v for k, v in value.items() if k != key}
        return dict(value, **{key: mutated(rng, value[key], depth + 1)})
    if isinstance(value, list) and value and rng.random() < 0.7:
        i = rng.randrange(len(value))
        kind = rng.random()
        if kind < 0.1:  # dropped: a ragged or short matrix
            return value[:i] + value[i + 1:]
        if kind < 0.2:  # a repeated row
            return value[:i + 1] + value[i:]
        if kind < 0.3 and all(isinstance(row, list) and len(row) == len(
                value[0]) for row in value):  # transposed
            return [list(col) for col in zip(*value)]
        return value[:i] + [mutated(rng, value[i], depth + 1)] + value[i + 1:]
    kind = rng.random()
    if kind < 0.1:  # nested deeper
        return Nested((value, rng.choice((1, 2, 40, 3000))))
    if kind < 0.2 and type(value) is float:
        return value * rng.choice((-1.0, 1e300, 1e-300, 1.0 + 1e-9))
    return rng.choice(ODD_VALUES)


def document_case(seed: int, path) -> list:
    """The arguments of one ``index`` or ``jacobi`` run of a mutated
    document, written to ``path``."""
    rng = random.Random(seed)
    document = json.loads(emitted(rng.choice(NAMES)))
    for _ in range(rng.choice((1, 1, 2, 3))):
        document = mutated(rng, document)
    if rng.random() < 0.15:  # a key repeated, its copy mutated or not
        key = rng.choice(sorted(document))
        copy = document[key] if rng.random() < 0.5 else mutated(
            rng, document[key], 1)
        document = Pairs(list(document.items()) + [(key, copy)])
        rng.shuffle(document)
    path.write_text(dumps(document))
    if rng.random() < 0.3:
        return ["jacobi", "--space", str(path), "--direction",
                rng.choice(("0", "1", "4", "-1", "7", "x", "10" * 20))]
    return ["index", "--space", str(path)] + rng.choice(
        ([], [], ["--augment"], ["--tol", rng.choice(TOLS)]))


def argument_case(seed: int) -> list:
    """Mutated arguments of a sweep, a catalog, a verify or an index run."""
    rng = random.Random(seed)
    kind = rng.random()
    if kind < 0.6:
        family = rng.choice(sorted(FAMILY_FLAGS))
        flags = list(FAMILY_FLAGS[family])
        if rng.random() < 0.2:  # one flag missing, or one too many
            flags.pop(rng.randrange(len(flags)))
        if rng.random() < 0.2:
            flags.append(rng.choice(("--lambda", "--s", "--t", "--rho",
                                     "--coupled")))
        argv = ["sweep", "--family", family.split()[0]]
        for flag in flags:
            argv += [flag] if flag == "--coupled" else [flag, rng.choice(
                GRIDS if rng.random() < 0.8 else BAD_GRIDS)]
    elif kind < 0.85:
        argv = ["catalog", rng.choice(("emit", "emit", "list", "show"))]
        if rng.random() < 0.9:
            argv.append(rng.choice(CATALOG_NAMES))
    elif kind < 0.95:
        argv = ["verify", "--filter", rng.choice(("structure", "zzz"))]
    else:
        argv = [rng.choice(("index", "jacobi")), "--space",
                rng.choice(("/", "missing.json", ""))]
        argv += rng.choice(([], ["--direction", "0"], ["--bogus"]))
    if rng.random() < 0.3:
        argv += ["--tol", rng.choice(TOLS)]
    if rng.random() < 0.05:
        rng.shuffle(argv)
    return argv


def problems(argv: list, budget: float = math.inf) -> list:
    """What in the run of ``argv`` breaks the command line's promise; with a
    finite ``budget``, a traced peak above that many bytes too."""
    try:
        (code, out, err, caught), peak = (
            traced_peak(lambda: run(argv)) if budget < math.inf
            else (run(argv), 0))
    except Exception as exc:  # noqa: BLE001 - the failure to report
        return [f"raised {type(exc).__name__}: {exc}"]
    found = [f"warned {message}" for message in caught]
    if peak > budget:
        found.append(f"traced peak of {peak} bytes, above {budget}")
    if code not in (0, 1, 2):
        found.append(f"exit {code}")
    if sum("error:" in line for line in err.splitlines()) > 1:
        found.append(f"more than one error line: {err!r}")
    if "Traceback" in err or "Warning" in out + err:
        found.append(f"printed {err!r}")
    return found


def first_failure(cases) -> str:
    """The first of ``(seed, argv)`` or ``(seed, argv, budget)`` cases whose
    run has :func:`problems`, or ''."""
    for seed, argv, *budget in cases:
        found = problems(argv, *budget)
        if found:
            return f"seed {seed}, {argv}: {found}"
    return ""


def document_cases(path):
    """Each document case with its budget: that of :data:`TRACED_SEEDS`
    the byte budget plus the size of its document, the others none."""
    for seed in DOCUMENT_SEEDS:
        argv = document_case(seed, path)
        yield seed, argv, (liealg._STACK_BYTES + path.stat().st_size
                           if seed in TRACED_SEEDS else math.inf)


def test_mutated_documents_end_in_an_answer_or_one_error_line(tmp_path):
    path = tmp_path / "space.json"
    for name in NAMES:  # imports and caches of first runs, untraced
        path.write_text(emitted(name))
        run(["index", "--space", str(path)])
        run(["jacobi", "--space", str(path), "--direction", "0"])
    assert not first_failure(document_cases(path))


def _scaled(value, factor: float):
    """The nested lists of numbers ``value``, each times ``factor``."""
    if isinstance(value, list):
        return [_scaled(entry, factor) for entry in value]
    return factor * value


@pytest.mark.parametrize("field", [("complement",), ("algebra", "structure")],
                         ids=["complement", "structure"])
def test_a_scaled_complement_ends_in_an_answer_or_one_error_line(tmp_path,
                                                                 field):
    """Each document of :data:`SCALED_NAMES` with its complement, or its
    structure tensor, times 10^k, k in :data:`SCALES`, read by ``index``
    and ``jacobi``: an answer or one named refusal, and no numpy warning on
    the way."""
    path, cases = tmp_path / "space.json", []
    for name in SCALED_NAMES:
        text = emitted(name)
        for k in SCALES:
            scaled = json.loads(text)
            *outer, last = field
            node = functools.reduce(dict.__getitem__, outer, scaled)
            node[last] = _scaled(node[last], float(10 ** k))
            path.write_text(dumps(scaled))
            for argv in (["index"], ["jacobi", "--direction", "0"]):
                found = problems(argv[:1] + ["--space", str(path)] + argv[1:])
                if found:
                    cases.append(f"{name} at 1e{k}, {argv[0]}: {found}")
    assert cases == []


def test_mutated_arguments_end_in_an_answer_or_one_error_line():
    assert not first_failure((seed, argument_case(seed))
                             for seed in ARGUMENT_SEEDS)
