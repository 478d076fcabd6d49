import importlib.util
import random
import shutil
import subprocess
import sys
import sysconfig
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from linewidth import kernels
from linewidth.decompositions import SUBJECT_LINE, TreeDecomposition
from linewidth.graphs import Graph

settings.register_profile(
    "default",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@st.composite
def graphs(draw, min_vertices=1, max_vertices=6, min_edges=0):
    n = draw(st.integers(min_vertices, max_vertices))
    pairs = list(combinations(range(1, n + 1), 2))
    available = len(pairs)
    if available == 0:
        return Graph(n)
    lo = min(min_edges, available)
    m = draw(st.integers(lo, available))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    return Graph(n, rng.sample(pairs, m))


def retag_line(td: TreeDecomposition) -> TreeDecomposition:
    """Reinterpret a decomposition computed on L(g) itself as an of-L(g)
    decomposition for g (the vertex ids of L are g's edge ids)."""
    return TreeDecomposition(td.nodes, td.tree_edges, td.bags, SUBJECT_LINE)


@pytest.fixture(scope="session")
def rng():
    return random.Random(20240817)


@pytest.fixture(scope="session")
def compiled_core(tmp_path_factory):
    """The committed kernels/_core.c built with gcc into a temp dir and loaded
    on the side, so kernels.BACKEND and sys.modules stay as they are.  Skips,
    naming what is missing, only without gcc, Python.h or numpy."""
    gcc = shutil.which("gcc")
    if gcc is None:
        pytest.skip("gcc not found: cannot build kernels/_core.c")
    include = sysconfig.get_paths()["include"]
    if not (Path(include) / "Python.h").exists():
        pytest.skip(f"Python.h not found in {include}: cannot build kernels/_core.c")
    try:
        import numpy
    except ImportError:
        pytest.skip("numpy not installed: cannot build kernels/_core.c")
    source = Path(kernels.__file__).with_name("_core.c")
    target = tmp_path_factory.mktemp("core") / ("_core" + sysconfig.get_config_var("EXT_SUFFIX"))
    cmd = [gcc, "-shared", "-fPIC", "-O2", f"-I{include}", f"-I{numpy.get_include()}"]
    subprocess.run(cmd + [str(source), "-o", str(target)], check=True, capture_output=True)
    name = "linewidth.kernels._core"
    saved = sys.modules.get(name)
    spec = importlib.util.spec_from_file_location(name, target)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:  # the generated module registers itself under its full name
        if saved is None:
            sys.modules.pop(name, None)
        else:
            sys.modules[name] = saved
    return module
