"""One pass of each benchmark workload at seed 1, every op's output checked
by the benchmark's own check, so that a change which breaks a benchmark
check fails here first.  ``perfbench/workloads.py`` is loaded by path and
its ops run in this process."""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", ["sphere-ladder", "catalog-sweep",
                                  "document-index", "verify-oracle"])
def test_one_pass_of_the_workload_passes_its_checks(workloads, name,
                                                    tmp_path):
    workload = workloads.WORKLOADS[name](1, str(tmp_path))
    assert workload.ops
    for op in workload.ops:
        op.check(op.run())
