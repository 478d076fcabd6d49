"""The program names the benchmarks use still exist.

perfbench/tracing.py wraps each (module, function) pair in TRACED,
perfbench/workloads.py imports the functions its workloads call, and
benchmarks/bench_kernels.py imports the private graphs._adjacency_masks and
kernels.backends; a refactor that renames or moves one of them fails here,
not in a benchmark run.  The files are loaded from source without running
their main and left as they are: no bytecode is written next to them and none
stays in sys.modules.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def load(path: Path):
    name = path.stem
    spec = importlib.util.spec_from_file_location(name, path)
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
    for mod_name, attr in load(PERFBENCH / "tracing.py").TRACED:
        assert callable(getattr(importlib.import_module(mod_name), attr, None)), (mod_name, attr)


def test_workloads_import_cleanly():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert set(load(PERFBENCH / "workloads.py").WORKLOADS) == {w["name"] for w in declared}


def test_kernel_benchmark_imports_cleanly():
    bench = load(ROOT / "benchmarks" / "bench_kernels.py")
    pure = bench.backends()["pure-python"]
    assert all(callable(getattr(pure, name, None)) for name in bench.KERNELS)
    assert len(bench.random_masks(5, seed=1)) == 5
