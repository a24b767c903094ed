"""Public parameters with a default are knobs a caller may turn; the count
over every public function and method of the package's modules (the
``__init__`` of each class included) may only fall, and a new one must
replace an old one."""

import importlib
import inspect

MODULES = ("catalog", "cli", "homspace", "liealg", "numcheck", "serialize",
           "verify")
MAX_DEFAULTED = 39


def _public_callables(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr.startswith("_") and attr != "__init__":
                    continue
                member = getattr(member, "__func__", member)  # class/static
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def defaulted_parameters() -> list:
    found = []
    for short in MODULES:
        module = importlib.import_module(f"symidx.{short}")
        for name, fn in _public_callables(module):
            found += [f"{short}.{name}({p.name})"
                      for p in inspect.signature(fn).parameters.values()
                      if p.default is not inspect.Parameter.empty]
    return found


def test_public_defaulted_parameters_do_not_grow():
    found = defaulted_parameters()
    assert len(found) <= MAX_DEFAULTED, (
        f"{len(found)} public defaulted parameters, at most {MAX_DEFAULTED}: "
        + ", ".join(found))
