"""The benchmark's four workloads: inputs made from a seed, the timed
operations, and the independent checks of every output.

A workload is a pool of *rounds*.  Every round has the same composition (the
same input strata and the same sequence of calls), so a run that completes
more or fewer rounds keeps the same operation mix and its latency quantiles
stay comparable between runs.  An *operation* is one public call on one
input, or one CLI process for ``cli-small``; operations inside a round may
use outputs of earlier ones (the decomposition pipeline, the CLI witness
files), so they always run in order.

Run as a script, this module times one set-up of a workload in a fresh
process (imports plus input generation and file writing) and prints the
seconds taken:

    python perfbench/workloads.py WORKLOAD SEED TINY WORKDIR
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# set-up time, as the script below reports it, starts before the program's imports
_STARTED = time.perf_counter()

from linewidth.bounds import bounds_report, improved_upper_construction
from linewidth.congestion import (
    LeafEmbedding,
    cutwidth,
    format_emb,
    format_ord,
    min_path_congestion,
    min_tree_congestion,
    ordering_cutwidth,
    ordering_vertex_congestion,
    read_emb,
    read_ord,
    vertex_congestion,
)
from linewidth.decompositions import (
    SUBJECT_GRAPH,
    SUBJECT_LINE,
    expand_to_line,
    format_td,
    line_to_graph_decomposition,
    normalize_line_decomposition,
    parse_td,
    read_td,
    validate,
    width,
)
from linewidth.exact import exact_pathwidth, exact_treewidth
from linewidth.families import FamilySpec, generate, sharp_embedding
from linewidth.graphs import Graph, format_gr, line_graph, read_gr

ROOT = Path(__file__).resolve().parent.parent
TRACED_CLI = Path(__file__).resolve().parent / "traced_cli.py"


class CheckFailed(Exception):
    """An output that an independent check rejected."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Op:
    """One timed operation.  ``run`` is timed; ``render`` (the text hashed by
    the byte-identity guard) and ``check`` run outside the timed region."""

    key: str
    run: Callable[[], object]
    render: Callable[[object], str]
    check: Callable[[object], None]


@dataclass
class Round:
    key: str
    ops: list[Op]
    state: dict = field(default_factory=dict)  # outputs shared by the ops of this round


@dataclass
class Workload:
    rounds: list[Round]
    cli_runner: "CliRunner | None" = None


def _gnm(rng: random.Random, n: int, m: int) -> Graph:
    """Uniform random graph with exactly m edges.  A fixed edge count per
    stratum keeps the cost of a stratum steady."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return Graph(n, rng.sample(pairs, m))


def _edges(n: int, density: float) -> int:
    return round(density * n * (n - 1) / 2)


def _step(rnd: Round, prefix: str, name: str, fn, render, check) -> None:
    state = rnd.state

    def run():
        state[f"{prefix}.{name}"] = out = fn(state)
        return out

    rnd.ops.append(Op(f"{rnd.key}.{prefix}.{name}", run, render, check))


# -- dp-large -----------------------------------------------------------------
#
# Seeded G(n, m) graphs, one per stratum in every round, each run through the
# exact solvers and the bound report.  The subset-DP kernels do nearly all
# the work; bounds_report recomputes tw, pw and cw on the same input, so each
# graph makes 7 kernel calls on 4 distinct inputs.

DP_STRATA = ((12, 0.5), (13, 0.4), (14, 0.3), (15, 0.2))
DP_TINY = ((6, 0.5), (7, 0.4))
DP_ROUNDS = 24


def _dp_graph_ops(rnd: Round, prefix: str, g: Graph) -> None:
    def tw_check(res):
        require(res.certificate.simulate(g) == res.width, "elimination replay differs from tw")
        require(validate(res.decomposition, g).ok, "tw decomposition invalid")
        require(width(res.decomposition) == res.width, "tw decomposition width differs")

    def pw_check(res):
        require(validate(res.decomposition, g).ok, "pw decomposition invalid")
        require(width(res.decomposition) == res.width, "pw decomposition width differs")

    def cert_check(cert):
        require(cert.reevaluate(g) == cert.value, f"{cert.kind} certificate re-evaluates differently")

    def bounds_check(rep):
        rep.check_consistency()
        entry = {e.name: e.value for e in rep.entries}
        require(entry["graph-treewidth"] == rnd.state[f"{prefix}.tw"].width - 1, "bounds tw(G) differs")
        if "cutwidth" in entry:
            require(entry["cutwidth"] == rnd.state[f"{prefix}.cw"].value, "bounds cutwidth differs")

    def improved_check(res):
        require(validate(res.decomposition, g).ok, "improved decomposition invalid")
        require(width(res.decomposition) == res.width, "improved width differs")
        require(res.width <= res.closed_form, "improved width above its closed form")

    def td_text(res):
        return f"width {res.width}\n{format_td(res.decomposition, g)}"

    def cert_text(cert):
        return f"value {cert.value}\n{format_ord(cert.ordering)}"

    _step(rnd, prefix, "tw", lambda s: exact_treewidth(g),
          lambda r: f"{td_text(r)}order {r.certificate.ordering}\n", tw_check)
    _step(rnd, prefix, "pw", lambda s: exact_pathwidth(g),
          lambda r: f"{td_text(r)}order {r.ordering}\n", pw_check)
    _step(rnd, prefix, "cw", lambda s: cutwidth(g), cert_text, cert_check)
    _step(rnd, prefix, "pcon", lambda s: min_path_congestion(g), cert_text, cert_check)
    _step(rnd, prefix, "bounds", lambda s: bounds_report(g), lambda r: r.to_text(), bounds_check)
    _step(rnd, prefix, "improved",
          lambda s: improved_upper_construction(g, s[f"{prefix}.tw"].decomposition),
          lambda r: f"fallback {r.fallback}\n{td_text(r)}", improved_check)


def dp_large(seed: int, tiny: bool, workdir: Path) -> Workload:
    rng = random.Random(f"dp-large/{seed}")
    rounds = []
    for r in range(2 if tiny else DP_ROUNDS):
        rnd = Round(f"r{r:02d}", [])
        for n, density in DP_TINY if tiny else DP_STRATA:
            _dp_graph_ops(rnd, f"n{n}", _gnm(rng, n, _edges(n, density)))
        rounds.append(rnd)
    return Workload(rounds)


# -- tree-congestion ----------------------------------------------------------
#
# Seeded G(n, m) graphs through min_tree_congestion.  The Python branch and
# bound does almost all the work; the kernels only give the path-congestion
# incumbent.  The value is also checked against tw(L(G)) + 1 for the first
# few instances whose line graph is small enough for the pure-Python oracle.

# (n, m): n = 8 with every edge count from density 0.5 to 0.64.  Neighbouring
# strata overlap in cost, and their number is odd so that the median falls
# inside one of them, not in a gap between two.  Denser or larger graphs are
# left out: n = 9 varies too much in cost per instance (coefficient of
# variation 1.2 to 2.2 at m = 15..17), and one instance at m = 20 costs about
# as much as one of each stratum below together; with either, a run holds
# too few instances for its latency quantiles to repeat between seeds.
TREE_STRATA = tuple((8, m) for m in range(14, 19))
TREE_TINY = ((6, 8), (6, 10))
TREE_ROUNDS = 200
ORACLE_MAX_EDGES = 14  # |V(L(G))|; its exact tw takes about 0.25 s with the pure-Python kernels
ORACLE_CHECKS = 6  # per run, on the first eligible instances in pool order


def tree_congestion(seed: int, tiny: bool, workdir: Path) -> Workload:
    rng = random.Random(f"tree-congestion/{seed}")
    oracle_budget = [ORACLE_CHECKS]
    oracle_done: dict[str, int] = {}
    rounds = []
    for r in range(2 if tiny else TREE_ROUNDS):
        rnd = Round(f"r{r:02d}", [])
        for i, (n, m) in enumerate(TREE_TINY if tiny else TREE_STRATA):
            g = _gnm(rng, n, m)
            key = f"{rnd.key}.g{i}"

            def check(cert, g=g, key=key):
                require(cert.reevaluate(g) == cert.value, "embedding re-evaluates differently")
                require(cert.value >= g.max_degree(), "congestion below the max degree")
                if key not in oracle_done and g.edge_count <= ORACLE_MAX_EDGES and oracle_budget[0]:
                    oracle_budget[0] -= 1
                    oracle_done[key] = exact_treewidth(line_graph(g)[0]).width + 1
                if key in oracle_done:
                    require(cert.value == oracle_done[key], "congestion differs from tw(L(G)) + 1")

            _step(rnd, f"g{i}", "con", lambda s, g=g: min_tree_congestion(g),
                  lambda c, g=g: f"value {c.value}\n{format_emb(c.embedding, g)}", check)
        rounds.append(rnd)
    return Workload(rounds)


# -- decomp-large -------------------------------------------------------------
#
# Family graphs with a few hundred vertices and thousands of edges through
# the decomposition pipeline.  The per-edge DFS in treeops.tree_path and the
# whole-tree scans do the work, and it grows quadratically with the size; the
# kernels do none of it.  The seed jitters the family sizes by a few percent.

DECOMP_FAMILIES = (("path-power", 420, 6), ("cycle-power", 500, 4), ("grid-cliques", 6, 5))
DECOMP_TINY = (("path-power", 30, 3), ("grid-cliques", 3, 4))
DECOMP_ROUNDS = 8


def _decomp_ops(rnd: Round, prefix: str, spec: FamilySpec) -> None:
    g = generate(spec)
    state, p = rnd.state, prefix

    def text_of(dec):
        return format_td(dec, g)

    def sharp_check(sc):
        require(width(sc.decomposition) == sc.width, "sharp width differs")

    def parse_check(td):
        require(format_td(td, g) == state[f"{p}.format"], "td round trip changed the text")

    def norm_check(form):
        require(validate(form.decomposition, g).ok, "normal form invalid")
        require(width(form.decomposition) <= width(state[f"{p}.parse"]), "normal form wider than input")

    def lg2g_check(dec):
        require(width(dec) <= width(state[f"{p}.parse"]) + 1, "lg-to-g width above width(L) + 1")

    def expand_check(dec):
        g_dec = state[f"{p}.lg2g"]
        require(validate(dec, g).ok, "expanded decomposition invalid")
        require(width(dec) <= (width(g_dec) + 1) * g.max_degree() - 1, "expansion above its bound")

    def vcon_run(s):
        form = s[f"{p}.normalize"]
        d = form.decomposition
        return vertex_congestion(LeafEmbedding(d.nodes, d.tree_edges, form.base.by_vertex), g)

    def vcon_check(res):
        require(res[0] == width(state[f"{p}.normalize"].decomposition) + 1, "congestion differs from width + 1")

    def report_check(rep):
        require(rep.ok, f"validate rejected: {rep.condition} {rep.witness}")

    _step(rnd, p, "sharp", lambda s: sharp_embedding(spec),
          lambda sc: f"width {sc.width}\n{text_of(sc.decomposition)}", sharp_check)
    _step(rnd, p, "format", lambda s: format_td(s[f"{p}.sharp"].decomposition, g), lambda t: t, lambda t: None)
    _step(rnd, p, "parse", lambda s: parse_td(s[f"{p}.format"], SUBJECT_LINE), text_of, parse_check)
    _step(rnd, p, "validate-line", lambda s: validate(s[f"{p}.parse"], g), repr, report_check)
    _step(rnd, p, "normalize", lambda s: normalize_line_decomposition(s[f"{p}.parse"], g),
          lambda f: f"{text_of(f.decomposition)}base {sorted(f.base.by_vertex.items())}\n", norm_check)
    _step(rnd, p, "lg2g", lambda s: line_to_graph_decomposition(s[f"{p}.parse"], g), text_of, lg2g_check)
    _step(rnd, p, "validate-graph", lambda s: validate(s[f"{p}.lg2g"], g), repr, report_check)
    _step(rnd, p, "expand", lambda s: expand_to_line(s[f"{p}.lg2g"], g), text_of, expand_check)
    _step(rnd, p, "vcon", vcon_run, lambda r: f"value {r[0]}\n{sorted(r[1].items())}\n", vcon_check)


def decomp_large(seed: int, tiny: bool, workdir: Path) -> Workload:
    rng = random.Random(f"decomp-large/{seed}")
    rounds = []
    for r in range(2 if tiny else DECOMP_ROUNDS):
        rnd = Round(f"r{r:02d}", [])
        for family, size, k in DECOMP_TINY if tiny else DECOMP_FAMILIES:
            if family == "grid-cliques":
                spec = FamilySpec(family, (size, k))  # its size only comes in large steps
            else:
                spec = FamilySpec(family, (size + rng.randint(-size // 20, size // 20), k))
            _decomp_ops(rnd, family, spec)
        rounds.append(rnd)
    return Workload(rounds)


# -- cli-small ----------------------------------------------------------------
#
# Seeded small .gr files plus `gen` family files, each command a fresh
# `python -m linewidth.cli` process run from the round's directory with
# relative paths (so stdout does not depend on where the checkout is).  The
# solver work is tiny: process start, import and the file formats dominate.

CLI_GRAPH = (6, 8, 0.35)  # n range and density: L(G) stays small for `bounds --exact`
CLI_FAMILIES = (("path-power", 2), ("cycle-power", 2))  # with n in 7..8
CLI_ROUNDS = 14


def child_env() -> dict:
    """Environment for child processes: the checkout's source tree first on
    the import path, as for the tests."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


class CliRunner:
    """Starts CLI processes one at a time, plainly or through the tracer."""

    def __init__(self):
        self.env = child_env()
        self.spans_dir: Path | None = None  # set for traced runs
        self._spans = 0

    def run(self, cwd: Path, args: list[str]) -> subprocess.CompletedProcess:
        if self.spans_dir is None:
            cmd = [sys.executable, "-m", "linewidth.cli", *args]
        else:
            self._spans += 1
            out = self.spans_dir / f"spans-{self._spans:05d}.bin"
            cmd = [sys.executable, str(TRACED_CLI), str(out), *args]
        return subprocess.run(cmd, cwd=cwd, env=self.env, capture_output=True, timeout=120)


def _cli_round(rnd: Round, rdir: Path, family: FamilySpec, runner: CliRunner) -> None:
    gname, fam = "g.gr", "f.gr"

    def files_text(names):
        return "".join(f"== {n}\n{(rdir / n).read_text(encoding='ascii')}" for n in names)

    def add(name, args, outputs, check):
        def render(proc):
            return f"exit {proc.returncode}\n{proc.stdout.decode('ascii', 'replace')}{files_text(outputs)}"

        def full_check(proc):
            require(proc.returncode == 0, f"exit {proc.returncode}: {proc.stderr.decode('ascii', 'replace')[-200:]}")
            check(proc.stdout.decode("ascii").split())

        _step(rnd, "cli", name, lambda s: runner.run(rdir, args), render, full_check)

    def graph():
        return read_gr(rdir / gname)

    def value(words, label):
        require(words[0] == label, f"unexpected output {words[:2]}")
        return int(words[1])

    def td_check(file, subject, label, graph_file):
        def check(words):
            td = read_td(rdir / file, subject)
            require(validate(td, read_gr(rdir / graph_file)).ok, f"{file} invalid")
            require(width(td) == value(words, label), f"{file} width differs")
        return check

    def ord_check(file, measure, label):
        def check(words):
            g = graph()
            require(measure(read_ord(rdir / file), g)[0] == value(words, label), f"{file} value differs")
        return check

    def con_check(words):
        g = graph()
        require(vertex_congestion(read_emb(rdir / "g.con.emb"), g)[0] == value(words, "con"), "g.con.emb differs")

    def gen_check(words):
        require(read_gr(rdir / fam) == generate(family), "gen wrote another graph")

    def bounds_check(words):
        require("exact" in words, "bounds --exact printed no exact value")

    def sharp_check(words):
        td_check("f.sharp.td", SUBJECT_LINE, "width", fam)(words)
        read_ord(rdir / "f.sharp.ord").check(read_gr(rdir / fam))

    def norm_check(words):
        td_check("f.sharp.norm.td", SUBJECT_LINE, "width", fam)(words)
        read_emb(rdir / "f.sharp.norm.emb").check(read_gr(rdir / fam))

    def valid_check(words):
        require(words[0] == "valid", f"validate said {words[:2]}")

    add("gen", ["gen", family.family, *map(str, family.params), "-o", fam], [fam], gen_check)
    add("exact-tw", ["exact", "tw", gname], ["g.tw.td"], td_check("g.tw.td", SUBJECT_GRAPH, "tw", gname))
    add("exact-pw", ["exact", "pw", gname], ["g.pw.td"], td_check("g.pw.td", SUBJECT_GRAPH, "pw", gname))
    add("exact-cw", ["exact", "cw", gname], ["g.cw.ord"], ord_check("g.cw.ord", ordering_cutwidth, "cw"))
    add("exact-con", ["exact", "con", gname], ["g.con.emb"], con_check)
    add("exact-pcon", ["exact", "pcon", gname], ["g.pcon.ord"],
        ord_check("g.pcon.ord", ordering_vertex_congestion, "pcon"))
    add("bounds", ["bounds", "--exact", gname], [], bounds_check)
    add("sharp", ["sharp", fam], ["f.sharp.td", "f.sharp.ord"], sharp_check)
    add("normalize", ["normalize", "f.sharp.td", "--graph", fam], ["f.sharp.norm.td", "f.sharp.norm.emb"],
        norm_check)
    add("lg-to-g", ["transform", "lg-to-g", "f.sharp.td", "--graph", fam], ["f.sharp.g.td"],
        td_check("f.sharp.g.td", SUBJECT_GRAPH, "width", fam))
    add("validate-td", ["validate", "g.tw.td", "--graph", gname], [], valid_check)
    add("validate-emb", ["validate", "g.con.emb", "--graph", gname], [], valid_check)
    add("validate-ord", ["validate", "g.cw.ord", "--graph", gname], [], valid_check)
    add("validate-line-td", ["validate", "f.sharp.norm.td", "--graph", fam, "--line"], [], valid_check)
    add("validate-norm-emb", ["validate", "f.sharp.norm.emb", "--graph", fam], [], valid_check)
    add("validate-g-td", ["validate", "f.sharp.g.td", "--graph", fam], [], valid_check)


def cli_small(seed: int, tiny: bool, workdir: Path) -> Workload:
    rng = random.Random(f"cli-small/{seed}")
    runner = CliRunner()
    rounds = []
    for r in range(1 if tiny else CLI_ROUNDS):
        rnd = Round(f"r{r:02d}", [])
        rdir = workdir / rnd.key
        rdir.mkdir(parents=True, exist_ok=True)
        n_min, n_max, density = CLI_GRAPH
        n = rng.randint(n_min, n_max)
        g = _gnm(rng, n, _edges(n, density))
        (rdir / "g.gr").write_text(format_gr(g), encoding="ascii")
        family, k = rng.choice(CLI_FAMILIES)
        _cli_round(rnd, rdir, FamilySpec(family, (rng.randint(7, 8), k)), runner)
        rounds.append(rnd)
    return Workload(rounds, runner)


WORKLOADS = {
    "dp-large": dp_large,
    "tree-congestion": tree_congestion,
    "decomp-large": decomp_large,
    "cli-small": cli_small,
}


if __name__ == "__main__":
    name, seed, tiny, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", Path(sys.argv[4])
    workdir.mkdir(parents=True, exist_ok=True)
    WORKLOADS[name](seed, tiny, workdir)
    print(time.perf_counter() - _STARTED)
