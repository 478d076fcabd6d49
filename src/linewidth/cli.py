"""Command-line front end.

Exit codes: 0 success, 1 domain errors (bad instance, solver limits,
failed validation), 2 usage errors.  A refusal writes an ``error:`` line to
stderr, except one: ``validate`` given a well-formed ``.td`` that fails a
decomposition condition prints ``invalid <condition>: <witness>`` to stdout
and exits 1 with nothing on stderr.  All output is plain text with stable
field ordering so runs can be compared byte for byte.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from linewidth import __version__
from linewidth.bounds import (
    bounds_report,
    format_value,
    improved_upper_construction,
    tree_line_decomposition,
)
from linewidth.congestion import (
    LeafEmbedding,
    cutwidth,
    format_emb,
    format_ord,
    min_path_congestion,
    min_tree_congestion,
    parse_emb,
    read_ord,
)
from linewidth.decompositions import (
    SUBJECT_GRAPH,
    SUBJECT_LINE,
    as_path_decomposition,
    expand_to_line,
    format_td,
    line_to_graph_decomposition,
    normalize_line_decomposition,
    parse_td,
    validate,
    width,
)
from linewidth.exact import exact_pathwidth, exact_treewidth
from linewidth.families import FAMILY_NAMES, FamilySpec, generate, sharp_embedding
from linewidth.graphs import DomainError, format_gr, read_gr, read_text, records, write_text
from linewidth.optcheck import max_grid_partition, min_balanced_split, min_degree_split
from linewidth.suite import run_theorem_checks


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linewidth",
        description="Exact values and bounds for the treewidth/pathwidth of line graphs",
    )
    parser.add_argument("--version", action="version", version=f"linewidth {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exact", help="exact widths and congestions with witness files")
    p.add_argument("quantity", choices=("tw", "pw", "cw", "con", "pcon"))
    p.add_argument("graph", type=Path)
    p.add_argument("--limit", type=int, default=None, help="solver size limit override")
    p.add_argument("--no-witness", action="store_true", help="suppress witness files")
    p.add_argument("-o", "--output", type=Path, default=None, help="witness file path")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("bounds", help="closed-form bound report for a graph")
    p.add_argument("graph", type=Path)
    p.add_argument("--exact", action="store_true", help="also solve the line graph exactly")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("construct", help="build decompositions of the line graph")
    p.add_argument("mode", choices=("expand", "improved", "tree"))
    p.add_argument("input", type=Path, help=".td of the graph (expand/improved) or .gr of a tree (tree)")
    p.add_argument("--graph", type=Path, default=None, help="companion .gr for expand/improved")
    p.add_argument("--path", action="store_true", help="treat the input .td as a path decomposition")
    p.add_argument("-o", "--output", type=Path, default=None)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("normalize", help="rewrite a line-graph decomposition into leaf base form")
    p.add_argument("decomposition", type=Path)
    p.add_argument("--graph", type=Path, required=True)
    p.add_argument("-o", "--output", type=Path, default=None)
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("transform", help="decomposition transformations")
    p.add_argument("mode", choices=("lg-to-g",))
    p.add_argument("decomposition", type=Path)
    p.add_argument("--graph", type=Path, required=True)
    p.add_argument("-o", "--output", type=Path, default=None)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("gen", help="generate a family graph")
    p.add_argument("family", choices=FAMILY_NAMES)
    p.add_argument("params", nargs="+", type=int)
    p.add_argument("-o", "--output", type=Path, required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("sharp", help="the family's sharp ordering and decomposition")
    p.add_argument("graph", type=Path)
    p.add_argument("--family", default=None, help="family name (otherwise read from the file's comments)")
    p.add_argument("--params", nargs="*", type=int, default=None)
    p.add_argument("-o", "--output", type=Path, default=None)
    p.set_defaults(func=_cmd_sharp)

    p = sub.add_parser("validate", help="validate a .td/.emb/.ord against a graph")
    p.add_argument("witness", type=Path)
    p.add_argument("--graph", type=Path, required=True)
    p.add_argument("--line", action="store_true", help="the .td decomposes the line graph")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("verify", help="verification suites")
    vsub = p.add_subparsers(dest="what", required=True)
    pa = vsub.add_parser("appendix", help="exact-rational grid checks of the bound constants")
    checks = pa.add_subparsers(dest="which", required=True)
    a = checks.add_parser("a", help="grid minimum of (1+s)(a+b) - a^2 - b^2")
    b = checks.add_parser("b", help="grid minimum of (1+s)(a+b) - a^2 - b^2 - ab")
    c = checks.add_parser("c", help="grid maximum of a1 + a2 + a3")
    for check in (a, b):
        check.add_argument(
            "--s", type=_fraction, default="1/10", help="parameter s as a fraction, e.g. 1/10"
        )
    b.add_argument("--parity", choices=("even", "odd"), default="even")
    for check in (a, b, c):
        check.add_argument("--resolution", type=int, default=None)
        check.set_defaults(func=_cmd_verify_appendix)
    c.add_argument("--mode", choices=("fast", "full"), default="fast")
    pt = vsub.add_parser("theorems", help="equalities and sandwiches over the small-graph suites")
    pt.add_argument("--max-n", type=int, default=5)
    pt.add_argument("--random", type=int, default=100)
    pt.add_argument("--seed", type=int, default=2024)
    pt.set_defaults(func=_cmd_verify_theorems)

    return parser


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid fraction value: {text!r}") from None


def _witness_path(args, suffix: str) -> Path:
    if args.output is not None:
        return args.output
    return args.graph.with_suffix(f".{suffix}")


def _read_witness(path: Path, parse, count: int, *args):
    """Parse a .td or .emb file whose last header field, <n>, must be `count`:
    what format_td or format_emb writes for the companion graph."""
    text = read_text(path)
    witness = parse(text, *args)
    declared = next(int(parts[-1]) for _, parts in records(text) if parts[0] == "s")
    if declared != count:
        raise DomainError(f"header declares n = {declared}; for this graph it must be {count}")
    return witness


def _write(path: Path, text: str, note: str = "") -> None:
    """Write an output file and name it on stdout, with an optional note."""
    write_text(path, text)
    print(f"wrote {path}{note}")


def _cmd_exact(args) -> int:
    g = read_gr(args.graph)
    limit = {} if args.limit is None else {"max_vertices": args.limit}
    q = args.quantity
    if q == "tw":
        res = exact_treewidth(g, **limit)
        value, text, suffix = res.width, format_td(res.decomposition, g), "tw.td"
    elif q == "pw":
        res = exact_pathwidth(g, **limit)
        value, text, suffix = res.width, format_td(res.decomposition, g), "pw.td"
    elif q == "cw":
        cert = cutwidth(g, **limit)
        value, text, suffix = cert.value, format_ord(cert.ordering), "cw.ord"
    elif q == "con":
        cert = min_tree_congestion(g, **limit)
        value, text, suffix = cert.value, format_emb(cert.embedding, g), "con.emb"
    else:
        cert = min_path_congestion(g, **limit)
        value, text, suffix = cert.value, format_ord(cert.ordering), "pcon.ord"
    print(f"{q} {value}")
    if not args.no_witness:
        path = _witness_path(args, suffix)
        write_text(path, text)
        print(f"witness {path}")
    return 0


def _cmd_bounds(args) -> int:
    g = read_gr(args.graph)
    report = bounds_report(g, compute_exact=args.exact)
    sys.stdout.write(report.to_text())
    return 0


def _cmd_construct(args) -> int:
    if args.mode == "tree":
        t = read_gr(args.input)
        dec = tree_line_decomposition(t)
        out = args.output or args.input.with_suffix(".line.td")
        print(f"width {width(dec)}")
        _write(out, format_td(dec, t))
        return 0
    if args.graph is None:
        raise DomainError("--graph is required for expand/improved")
    g = read_gr(args.graph)
    td = _read_witness(args.input, parse_td, g.n)
    dec_in = as_path_decomposition(td) if args.path else td
    if args.mode == "expand":
        dec = expand_to_line(dec_in, g)
        out = args.output or args.input.with_suffix(".expand.td")
        print(f"width {width(dec)}")
        _write(out, format_td(dec, g))
        return 0
    built = improved_upper_construction(g, dec_in)
    out = args.output or args.input.with_suffix(".improved.td")
    print(f"width {built.width}")
    print(f"closed-form {format_value(built.closed_form)}")
    if built.fallback:
        print("fallback incident-expansion (max degree below input width)")
    _write(out, format_td(built.decomposition, g))
    return 0


def _cmd_normalize(args) -> int:
    g = read_gr(args.graph)
    td = _read_witness(args.decomposition, parse_td, g.edge_count, SUBJECT_LINE)
    form = normalize_line_decomposition(td, g)
    out = args.output or args.decomposition.with_suffix(".norm.td")
    print(f"width {width(form.decomposition)}")
    _write(out, format_td(form.decomposition, g))
    emb = LeafEmbedding(
        form.decomposition.nodes, form.decomposition.tree_edges, form.base.by_vertex
    )
    _write(out.with_suffix(".emb"), format_emb(emb, g))
    return 0


def _cmd_transform(args) -> int:
    g = read_gr(args.graph)
    td = _read_witness(args.decomposition, parse_td, g.edge_count, SUBJECT_LINE)
    dec = line_to_graph_decomposition(td, g)
    out = args.output or args.decomposition.with_suffix(".g.td")
    print(f"width {width(dec)}")
    _write(out, format_td(dec, g))
    return 0


def _cmd_gen(args) -> int:
    spec = FamilySpec(args.family, tuple(args.params))
    g = generate(spec)
    text = format_gr(g, comments=[f"family {spec.label()}"])
    _write(args.output, text, f" (n={g.n} m={g.edge_count})")
    return 0


def _read_family(path: Path) -> FamilySpec | None:
    for line in read_text(path).splitlines():
        parts = line.split()
        if len(parts) >= 2 and parts[0] == "c" and parts[1] == "family":
            return FamilySpec.parse(parts[2:])
        if parts and parts[0] == "p":
            break
    return None


def _cmd_sharp(args) -> int:
    if args.family is not None:
        spec = FamilySpec(args.family, tuple(args.params or ()))
    else:
        spec = _read_family(args.graph)
        if spec is None:
            raise DomainError(
                "no family recorded in the file; pass --family and --params"
            )
    g = read_gr(args.graph)
    sc = sharp_embedding(spec, g)
    rel = "<=" if sc.closed_form_is_upper else "=="
    print(f"width {sc.width} ({rel} closed form {sc.closed_form})")
    out = args.output or args.graph.with_suffix(".sharp.td")
    _write(out, format_td(sc.decomposition, g))
    if sc.ordering is not None:
        _write(out.with_suffix(".ord"), format_ord(sc.ordering))
    return 0


def _cmd_validate(args) -> int:
    g = read_gr(args.graph)
    suffix = args.witness.suffix
    if suffix == ".emb":
        emb = _read_witness(args.witness, parse_emb, g.n)
        emb.check(g)
        print("valid embedding")
        return 0
    if suffix == ".ord":
        order = read_ord(args.witness)
        order.check(g)
        print("valid ordering")
        return 0
    subject, count = (SUBJECT_LINE, g.edge_count) if args.line else (SUBJECT_GRAPH, g.n)
    td = _read_witness(args.witness, parse_td, count, subject)
    report = validate(td, g)
    if report.ok:
        print(f"valid width {width(td)}")
        return 0
    print(f"invalid {report.condition}: {report.witness}")
    return 1


def _cmd_verify_appendix(args) -> int:
    grid = {} if args.resolution is None else {"resolution": args.resolution}
    if args.which == "a":
        res = min_balanced_split(args.s, **grid)
    elif args.which == "b":
        res = min_degree_split(args.s, args.parity, **grid)
    else:
        res = max_grid_partition(mode=args.mode, **grid)
    print(f"{res.kind} {format_value(res.extremum)}")
    print(f"closed-form {format_value(res.closed_form)}")
    print(f"gap {format_value(res.gap)}")
    print(f"argpoint {' '.join(format_value(x) for x in res.argpoint)}")
    for c in res.corners:
        pt = ",".join(format_value(x) for x in c.point)
        feas = "feasible" if c.feasible else "outside-region"
        print(
            f"corner ({pt}) value {format_value(c.value)} claim {format_value(c.claimed)} "
            f"gap {format_value(c.gap)} {feas}"
        )
    return 0


def _cmd_verify_theorems(args) -> int:
    lines = run_theorem_checks(args.max_n, args.random, args.seed)
    ok = True
    for line in lines:
        print(line.render())
        ok = ok and line.ok
    print("all checks passed" if ok else "FAILURES present")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
