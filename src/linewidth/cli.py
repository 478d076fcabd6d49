"""Command-line front end.

Exit codes: 0 success, 1 domain errors (bad instance, solver limits,
failed validation), 2 usage errors.  All output is plain text with stable
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
    cutwidth,
    min_path_congestion,
    min_tree_congestion,
    read_emb,
    read_ord,
    write_emb,
    write_ord,
)
from linewidth.decompositions import (
    SUBJECT_GRAPH,
    SUBJECT_LINE,
    as_path_decomposition,
    line_to_graph_decomposition,
    normalize_line_decomposition,
    read_td,
    validate,
    width,
    write_td,
)
from linewidth.exact import exact_pathwidth, exact_treewidth
from linewidth.families import FAMILY_NAMES, FamilySpec, generate, sharp_embedding
from linewidth.graphs import DomainError, read_gr, write_gr
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
    pa.add_argument("which", choices=("a", "b", "c"))
    pa.add_argument("--s", default="1/10", help="parameter s as a fraction, e.g. 1/10")
    pa.add_argument("--parity", choices=("even", "odd"), default="even")
    pa.add_argument("--resolution", type=int, default=None)
    pa.add_argument("--mode", choices=("fast", "full"), default="fast")
    pa.set_defaults(func=_cmd_verify_appendix)
    pt = vsub.add_parser("theorems", help="equalities and sandwiches over the small-graph suites")
    pt.add_argument("--max-n", type=int, default=5)
    pt.add_argument("--random", type=int, default=100)
    pt.add_argument("--seed", type=int, default=2024)
    pt.set_defaults(func=_cmd_verify_theorems)

    return parser


def _witness_path(args, suffix: str) -> Path:
    if args.output is not None:
        return args.output
    return args.graph.with_suffix(f".{suffix}")


def _cmd_exact(args) -> int:
    g = read_gr(args.graph)
    limit = args.limit
    q = args.quantity
    if q == "tw":
        res = exact_treewidth(g, **({"max_vertices": limit} if limit else {}))
        value, witness, suffix = res.width, res.decomposition, "tw.td"
    elif q == "pw":
        res = exact_pathwidth(g, **({"max_vertices": limit} if limit else {}))
        value, witness, suffix = res.width, res.decomposition, "pw.td"
    elif q == "cw":
        cert = cutwidth(g, **({"max_vertices": limit} if limit else {}))
        value, witness, suffix = cert.value, cert.ordering, "cw.ord"
    elif q == "con":
        cert = min_tree_congestion(g, **({"max_vertices": limit} if limit else {}))
        value, witness, suffix = cert.value, cert.embedding, "con.emb"
    else:
        cert = min_path_congestion(g, **({"max_vertices": limit} if limit else {}))
        value, witness, suffix = cert.value, cert.ordering, "pcon.ord"
    print(f"{q} {value}")
    if not args.no_witness:
        path = _witness_path(args, suffix)
        if suffix.endswith(".td"):
            write_td(path, witness, g)
        elif suffix.endswith(".emb"):
            write_emb(path, witness, g)
        else:
            write_ord(path, witness)
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
        write_td(out, dec, t)
        print(f"width {width(dec)}")
        print(f"wrote {out}")
        return 0
    if args.graph is None:
        raise DomainError("--graph is required for expand/improved")
    g = read_gr(args.graph)
    td = read_td(args.input, SUBJECT_GRAPH)
    dec_in = as_path_decomposition(td) if args.path else td
    if args.mode == "expand":
        from linewidth.decompositions import expand_to_line

        dec = expand_to_line(dec_in, g)
        out = args.output or args.input.with_suffix(".expand.td")
        write_td(out, dec, g)
        print(f"width {width(dec)}")
        print(f"wrote {out}")
        return 0
    built = improved_upper_construction(g, dec_in)
    out = args.output or args.input.with_suffix(".improved.td")
    write_td(out, built.decomposition, g)
    print(f"width {built.width}")
    print(f"closed-form {format_value(built.closed_form)}")
    if built.fallback:
        print("fallback incident-expansion (max degree below input width)")
    print(f"wrote {out}")
    return 0


def _cmd_normalize(args) -> int:
    g = read_gr(args.graph)
    td = read_td(args.decomposition, SUBJECT_LINE)
    form = normalize_line_decomposition(td, g)
    out = args.output or args.decomposition.with_suffix(".norm.td")
    write_td(out, form.decomposition, g)
    print(f"width {width(form.decomposition)}")
    print(f"wrote {out}")
    emb_out = out.with_suffix(".emb")
    from linewidth.congestion import LeafEmbedding

    emb = LeafEmbedding(
        form.decomposition.nodes, form.decomposition.tree_edges, form.base.by_vertex
    )
    write_emb(emb_out, emb, g)
    print(f"wrote {emb_out}")
    return 0


def _cmd_transform(args) -> int:
    g = read_gr(args.graph)
    td = read_td(args.decomposition, SUBJECT_LINE)
    dec = line_to_graph_decomposition(td, g)
    out = args.output or args.decomposition.with_suffix(".g.td")
    write_td(out, dec, g)
    print(f"width {width(dec)}")
    print(f"wrote {out}")
    return 0


def _cmd_gen(args) -> int:
    spec = FamilySpec(args.family, tuple(args.params))
    g = generate(spec)
    write_gr(args.output, g, comments=[f"family {spec.label()}"])
    print(f"wrote {args.output} (n={g.n} m={g.edge_count})")
    return 0


def _read_family(path: Path) -> FamilySpec | None:
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
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
    if generate(spec) != g:
        raise DomainError(f"graph file does not match family '{spec.label()}'")
    sc = sharp_embedding(spec)
    rel = "<=" if sc.closed_form_is_upper else "=="
    print(f"width {sc.width} ({rel} closed form {sc.closed_form})")
    out = args.output or args.graph.with_suffix(".sharp.td")
    write_td(out, sc.decomposition, g)
    print(f"wrote {out}")
    if sc.ordering is not None:
        ord_out = out.with_suffix(".ord")
        write_ord(ord_out, sc.ordering)
        print(f"wrote {ord_out}")
    return 0


def _cmd_validate(args) -> int:
    g = read_gr(args.graph)
    suffix = args.witness.suffix
    if suffix == ".emb":
        emb = read_emb(args.witness)
        emb.check(g)
        print("valid embedding")
        return 0
    if suffix == ".ord":
        order = read_ord(args.witness)
        order.check(g)
        print("valid ordering")
        return 0
    td = read_td(args.witness, SUBJECT_LINE if args.line else SUBJECT_GRAPH)
    report = validate(td, g)
    if report.ok:
        print(f"valid width {width(td)}")
        return 0
    print(f"invalid {report.condition}: {report.witness}")
    return 1


def _cmd_verify_appendix(args) -> int:
    s = Fraction(args.s)
    if args.which == "a":
        res = min_balanced_split(s, args.resolution or 32)
    elif args.which == "b":
        res = min_degree_split(s, args.parity, args.resolution or 32)
    else:
        res = max_grid_partition(args.resolution or 8, args.mode)
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
