"""The benchmark's outputs are the pinned ones: one operation of each
perfbench workload at the default seed reproduces perfbench/digests.json
byte for byte, and its outputs pass the workload's own checks.

perfbench/workloads.py is loaded by path and run on the exitbandit modules
this session already imported (its import_package would load a second copy
of the package, whose classes other tests' isinstance checks do not know).
"""

import importlib
import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()
PINNED = json.loads((PERFBENCH / "digests.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_operation_reproduces_the_pinned_digests(name, tmp_path):
    pkg = SimpleNamespace(**{m: importlib.import_module(f"exitbandit.{m}")
                             for m in workloads.PACKAGE_MODULES})
    workload = workloads.WORKLOADS[name](PINNED["default_seed"], tmp_path)
    workload.setup(pkg)
    workload.before_op()
    output = workload.op()
    assert workload.digests(output) == PINNED["workloads"][name]
    assert workload.quick_failures(output) == []
    assert workload.invariants(output) == []
