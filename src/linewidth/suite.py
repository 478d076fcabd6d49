"""End-to-end verification run over the exhaustive and random small-graph
suites: the two congestion/width equalities, the cutwidth sandwich, and the
bound sandwich with the constructive upper bounds.  Each graph is visited
once: its line graph is built and solved exactly once, and its bound report
is built once with those two widths as its exact values.  The cutwidth
sandwich is read from that report's `cutwidth` and `cutwidth-slack` entries."""

from __future__ import annotations

from dataclasses import dataclass, replace

from linewidth.bounds import TARGET_PW, TARGET_TW, bounds_report, improved_upper_construction
from linewidth.congestion import min_path_congestion, min_tree_congestion
from linewidth.decompositions import validate
from linewidth.exact import exact_pathwidth, exact_treewidth
from linewidth.graphs import DomainError, Graph, line_graph, star_graph
from linewidth.smallgraphs import exhaustive_suite, random_suite


@dataclass(frozen=True)
class CheckLine:
    name: str
    ok: bool
    detail: str

    def render(self) -> str:
        return f"{'ok  ' if self.ok else 'FAIL'} {self.name}: {self.detail}"


def run_theorem_checks(
    max_n: int = 5, random_count: int = 100, seed: int = 2024
) -> list[CheckLine]:
    graphs = exhaustive_suite(max_n) + random_suite(random_count, seed)
    tree_failures, path_failures, cut_failures, bound_failures = [], [], [], []
    applicable = 0
    for i, g in enumerate(graphs):
        lg, _ = line_graph(g)
        tw_line = exact_treewidth(lg).width
        pw_line = exact_pathwidth(lg).width
        report = replace(bounds_report(g), exact={TARGET_TW: tw_line, TARGET_PW: pw_line})
        if min_tree_congestion(g).value != tw_line + 1:
            tree_failures.append(i)
        if min_path_congestion(g).value != pw_line + 1:
            path_failures.append(i)
        if g.max_degree() >= 2:
            applicable += 1
            if not _value(report, "cutwidth") <= pw_line <= _value(report, "cutwidth-slack"):
                cut_failures.append(i)
        if not _bounds_hold(g, report):
            bound_failures.append(i)
    stars = {m: bounds_report(star_graph(m), compute_exact=True) for m in range(3, 7)}
    loose_stars = [
        m for m, rep in stars.items() if _value(rep, "cutwidth-slack") != rep.exact[TARGET_PW]
    ]
    counted = f"{len(graphs)} graphs"
    return [
        _check_line("tree-congestion-equals-line-treewidth", counted, tree_failures),
        _check_line("path-congestion-equals-line-pathwidth", counted, path_failures),
        _check_line("cutwidth-sandwich", f"{applicable} graphs with max degree >= 2", cut_failures),
        _check_line(
            "cutwidth-sandwich-tight-for-stars",
            "stars with 3..6 leaves meet the lower bound",
            loose_stars,
        ),
        _check_line("bound-sandwich-and-constructions", counted, bound_failures),
    ]


def _check_line(name: str, detail: str, failures: list[int]) -> CheckLine:
    if failures:
        detail += f", failed at {failures}"
    return CheckLine(name, not failures, detail)


def _value(report, name: str):
    return next(e.value for e in report.entries if e.name == name)


def _bounds_hold(g: Graph, report) -> bool:
    """Every bound of g's report holds against its exact line-graph widths,
    and the balanced-split construction from exact decompositions of g
    validates and meets its closed form."""
    try:
        report.check_consistency()
    except DomainError:
        return False
    for solve in (exact_treewidth, exact_pathwidth):
        built = improved_upper_construction(g, solve(g).decomposition)
        if not validate(built.decomposition, g).ok or built.width > built.closed_form:
            return False
    return True
