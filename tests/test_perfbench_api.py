"""The program names the benchmark uses still exist.

perfbench/tracing.py wraps each (module, function) pair in TRACED and
perfbench/workloads.py imports the functions its workloads call; a refactor
that renames or moves one of them fails here, not in a benchmark run.  Both
files are loaded from source and left as they are: no bytecode is written
next to them and neither stays in sys.modules.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    keep = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.modules[name] = module  # dataclasses look up the defining module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = keep
        del sys.modules[name]
    return module


def test_every_traced_function_exists():
    for mod_name, attr in load("tracing").TRACED:
        assert callable(getattr(importlib.import_module(mod_name), attr, None)), (mod_name, attr)


def test_workloads_import_cleanly():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert set(load("workloads").WORKLOADS) == {w["name"] for w in declared}
