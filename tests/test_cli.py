import os
import random
import re
import subprocess
import sys
from dataclasses import replace
from itertools import takewhile
from pathlib import Path

import pytest

import linewidth
from linewidth import bounds, suite
from linewidth.cli import main
from linewidth.smallgraphs import exhaustive_suite


def run(args, capsys):
    code = main([str(a) for a in args])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_exact_validate_round_trip(tmp_path, capsys):
    gr = tmp_path / "k4.gr"
    code, out, _ = run(["gen", "complete", "4", "-o", gr], capsys)
    assert code == 0 and "n=4 m=6" in out
    code, out, _ = run(["exact", "con", gr], capsys)
    assert code == 0
    assert out.splitlines()[0] == "con 5"
    emb = tmp_path / "k4.con.emb"
    assert emb.exists()
    code, out, _ = run(["validate", emb, "--graph", gr], capsys)
    assert code == 0 and "valid embedding" in out
    code, out, _ = run(["exact", "tw", gr], capsys)
    assert out.splitlines()[0] == "tw 3"
    code, out, _ = run(["validate", tmp_path / "k4.tw.td", "--graph", gr], capsys)
    assert code == 0 and out.startswith("valid width 3")


def test_exact_all_quantities(tmp_path, capsys):
    gr = tmp_path / "c5.gr"
    run(["gen", "cycle-power", "5", "1", "-o", gr], capsys)
    expected = {"tw": 2, "pw": 2, "cw": 2, "con": 3, "pcon": 3}
    for q, value in expected.items():
        code, out, _ = run(["exact", q, gr, "--no-witness"], capsys)
        assert code == 0
        assert out == f"{q} {value}\n"


@pytest.mark.parametrize(
    "graph, order, embedding",
    [
        ("p tw 2 1\n1 2\n", "1 2", "s emb 2 2\nt 1 2\nl 1 1\nl 2 2\n"),
        ("p tw 3 1\n1 2\n", "1 2", "s emb 2 3\nt 1 2\nl 1 1\nl 2 2\n"),
        ("p tw 3 1\n2 3\n", "2 3", "s emb 2 3\nt 1 2\nl 1 2\nl 2 3\n"),
    ],
)
def test_exact_witnesses_on_one_edge(tmp_path, capsys, graph, order, embedding):
    # the two ends of the edge keep their order, lower vertex first
    gr = tmp_path / "e.gr"
    gr.write_text(graph)
    for q in ("pcon", "con"):
        code, out, _ = run(["exact", q, gr], capsys)
        assert code == 0 and out.splitlines()[0] == f"{q} 1"
    written = [(tmp_path / name).read_text() for name in ("e.pcon.ord", "e.con.emb")]
    assert written == [f"s ord 2\n{order}\n", embedding]


def test_bounds_cli_matches_spec_example(tmp_path, capsys):
    gr = tmp_path / "c82.gr"
    run(["gen", "cycle-power", "8", "2", "-o", gr], capsys)
    code, out, _ = run(["bounds", gr, "--exact"], capsys)
    assert code == 0
    assert "bound min-degree lower tw(L) 7" in out
    assert "exact pw(L) 7" in out


def test_sharp_uses_recorded_family(tmp_path, capsys):
    gr = tmp_path / "g.gr"
    run(["gen", "path-power", "9", "2", "-o", gr], capsys)
    code, out, _ = run(["sharp", gr], capsys)
    assert code == 0
    assert out.splitlines()[0] == "width 4 (== closed form 4)"
    code, out, _ = run(
        ["validate", tmp_path / "g.sharp.td", "--graph", gr, "--line"], capsys
    )
    assert code == 0


def test_sharp_rejects_mismatched_family(tmp_path, capsys):
    gr = tmp_path / "k3.gr"
    run(["gen", "complete", "3", "-o", gr], capsys)
    code, _, err = run(
        ["sharp", gr, "--family", "path-power", "--params", "9", "2"], capsys
    )
    assert code == 1 and "does not match" in err


def test_sharp_past_the_bag_limit_is_an_error_line(tmp_path, capsys):
    gr = tmp_path / "p.gr"
    run(["gen", "path-power", "199", "99", "-o", gr], capsys)
    code, out, err = run(["sharp", gr], capsys)
    assert (code, out) == (1, "")
    assert err == (
        "error: sharp construction of path-power 199 99 may hold 1004751 bag entries,"
        " above the limit of 1000000\n"
    )
    assert not (tmp_path / "p.sharp.td").exists()


def test_construct_tree(tmp_path, capsys):
    gr = tmp_path / "star.gr"
    run(["gen", "complete-bipartite", "4", "1", "-o", gr], capsys)
    code, out, _ = run(["construct", "tree", gr], capsys)
    assert code == 0 and out.splitlines()[0] == "width 3"
    code, out, _ = run(
        ["validate", tmp_path / "star.line.td", "--graph", gr, "--line"], capsys
    )
    assert code == 0


def test_construct_expand_improved_normalize_transform(tmp_path, capsys):
    gr = tmp_path / "w.gr"
    run(["gen", "cycle-power", "6", "1", "-o", gr], capsys)
    run(["exact", "tw", gr, "-o", tmp_path / "w.td"], capsys)
    code, out, _ = run(["construct", "expand", tmp_path / "w.td", "--graph", gr], capsys)
    assert code == 0
    code, out, _ = run(
        ["construct", "improved", tmp_path / "w.td", "--graph", gr], capsys
    )
    assert code == 0 and "closed-form" in out
    code, out, _ = run(
        ["normalize", tmp_path / "w.expand.td", "--graph", gr], capsys
    )
    assert code == 0
    code, out, _ = run(
        ["transform", "lg-to-g", tmp_path / "w.expand.norm.td", "--graph", gr], capsys
    )
    assert code == 0
    code, out, _ = run(
        ["validate", tmp_path / "w.expand.norm.g.td", "--graph", gr], capsys
    )
    assert code == 0


def test_construct_improved_from_a_path_decomposition(tmp_path, capsys):
    gr = tmp_path / "g.gr"
    run(["gen", "path-power", "7", "2", "-o", gr], capsys)
    code, out, _ = run(["exact", "pw", gr], capsys)
    assert code == 0 and out.splitlines()[0] == "pw 2"
    # read as a path, the input gets the path closed form, below the tree's 29/3
    code, out, _ = run(["construct", "improved", tmp_path / "g.pw.td", "--graph", gr, "--path"], capsys)
    assert code == 0 and out.splitlines()[:2] == ["width 4", "closed-form 9"]
    code, out, _ = run(["validate", tmp_path / "g.pw.improved.td", "--graph", gr, "--line"], capsys)
    assert code == 0 and out.startswith("valid width")


def test_validate_reports_violation(tmp_path, capsys):
    gr = tmp_path / "k2.gr"
    gr.write_text("p tw 2 1\n1 2\n")
    bad = tmp_path / "bad.td"
    bad.write_text("s td 2 1 2\nb 1 1\nb 2 2\n1 2\n")
    code, out, _ = run(["validate", bad, "--graph", gr], capsys)
    assert code == 1 and "invalid edge-coverage" in out


def test_outputs_are_deterministic(tmp_path, capsys):
    gr = tmp_path / "r.gr"
    run(["gen", "cycle-power-matched", "8", "2", "-o", gr], capsys)
    _, out1, _ = run(["bounds", gr, "--exact"], capsys)
    _, out2, _ = run(["bounds", gr, "--exact"], capsys)
    assert out1 == out2
    first = gr.read_bytes()
    run(["gen", "cycle-power-matched", "8", "2", "-o", gr], capsys)
    assert gr.read_bytes() == first


def test_bounds_past_the_solver_limit_skips_what_needs_exact_widths(tmp_path, capsys):
    gr = tmp_path / "c21.gr"
    run(["gen", "cycle-power", "21", "2", "-o", gr], capsys)
    code, out, err = run(["bounds", gr], capsys)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[:2] == ["bound min-degree lower tw(L) 7", "bound star-clique lower tw(L) 3"]
    skipped = [line.split(":")[0].split()[-1] for line in lines[2:]]
    assert all(line.startswith("note skipped ") for line in lines[2:])
    assert skipped == [
        "avg-degree", "endpoint-halving", "incident-expansion-tw", "graph-treewidth",
        "balanced-split-tw", "conjectured-half-expansion", "smaller-upper",
        "incident-expansion-pw", "balanced-split-pw", "cutwidth", "cutwidth-slack",
    ]
    assert lines[-1].endswith(": cutwidth solver: instance size 21 exceeds the limit of 20")
    code, _, err = run(["bounds", gr, "--exact"], capsys)
    assert code == 1
    assert err == "error: treewidth solver: instance size 21 exceeds the limit of 20\n"


def test_readme_skip_list_follows_the_report(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Solver limits\n")[1].split("\n## ")[0].splitlines()
    first = next(i for i, line in enumerate(section) if line.startswith("- past "))
    documented = re.findall(r"`([^`]+)`", " ".join(takewhile(str.strip, section[first:])))
    gr = tmp_path / "c21.gr"
    run(["gen", "cycle-power", "21", "2", "-o", gr], capsys)
    _, out, _ = run(["bounds", gr], capsys)
    skipped = [line.split(":")[0].split()[-1] for line in out.splitlines() if " skipped " in line]
    assert documented[0] == "avg-degree"
    assert documented == skipped


def test_domain_error_exit_code(tmp_path, capsys):
    gr = tmp_path / "big.gr"
    run(["gen", "complete", "12", "-o", gr], capsys)
    code, _, err = run(["exact", "con", gr], capsys)
    assert code == 1
    assert "exceeds the limit" in err


def test_missing_file_exit_code(tmp_path, capsys):
    code, _, err = run(["exact", "tw", tmp_path / "nope.gr"], capsys)
    assert code == 1 and "error" in err


PATH26 = "p tw 26 25\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 26))
# decompositions of the 2-vertex path and of its one-vertex line graph whose
# headers give the wrong <n>
G_TD_99 = "s td 1 2 99\nb 1 1 2\n"
LINE_TD_2 = "s td 1 1 2\nb 1 1\n"


@pytest.mark.parametrize(
    "files, argv, message",
    [
        ({"w.td": "s td 1 1 2\nb 1 x\n"}, ["validate", "w.td"], "line 2: expected an integer"),
        ({"w.emb": "s emb 2 2\nt 1 z\n"}, ["validate", "w.emb"], "line 2: expected an integer"),
        ({"w.ord": "s ord 2\n1 y\n"}, ["validate", "w.ord"], "line 2: expected an integer"),
        ({"w.td": "s td 1 1 2\nb\n"}, ["validate", "w.td"], "line 2: expected 'b <id>"),
        (
            {"g.gr": "c caf\u00e9\np tw 2 1\n1 2\n", "w.ord": "s ord 2\n1 2\n"},
            ["validate", "w.ord"],
            "line 1: non-ASCII byte",
        ),
        ({"g.gr": PATH26}, ["exact", "tw", "g.gr", "--limit", "30"], "limit of 25"),
        (
            {"g.gr": PATH26},
            ["exact", "con", "g.gr", "--limit", "30"],
            "tree congestion solver: instance size 26 exceeds the limit of 25",
        ),
        ({}, ["exact", "tw", "g.gr", "--limit", "0"], "limit of 0"),
        (
            {},
            ["exact", "tw", "g.gr", "--limit", "-1"],
            "error: treewidth solver: the limit must be at least 0, got -1",
        ),
        (
            {"w.td": "s td 2 2 2\nb 1 1 2\nb 2 1 2\n1 2\n1 2\n"},
            ["validate", "w.td"],
            "tree edge (1,2) is repeated",
        ),
        (
            {"w.emb": "s emb 2 2\nt 1 2\nt 1 2\nl 1 1\nl 2 2\n"},
            ["validate", "w.emb"],
            "tree edge (1,2) is repeated",
        ),
        (
            {"w.emb": "t 1 2\ns emb 2 2\nl 1 1\nl 2 2\n"},
            ["validate", "w.emb"],
            "line 1: record before 's emb' header",
        ),
        ({"w.ord": "1 2\ns ord 2\n"}, ["validate", "w.ord"], "line 1: vertex ids before"),
        (
            {"w.td": "s td 1 2 2\nb 1 1 2 2\n"},
            ["validate", "w.td"],
            "line 2: bag 1 repeats element 2",
        ),
        ({"w.td": G_TD_99}, ["validate", "w.td"], "n = 99; for this graph it must be 2"),
        ({"w.td": LINE_TD_2}, ["validate", "w.td", "--line"], "n = 2; for this graph it must be 1"),
        ({"w.emb": "s emb 2 99\nt 1 2\nl 1 1\nl 2 2\n"}, ["validate", "w.emb"], "n = 99; for"),
        ({"w.td": LINE_TD_2}, ["normalize", "w.td", "--graph", "g.gr"], "n = 2; for"),
        ({"w.td": LINE_TD_2}, ["transform", "lg-to-g", "w.td", "--graph", "g.gr"], "n = 2; for"),
        ({"w.td": G_TD_99}, ["construct", "expand", "w.td", "--graph", "g.gr"], "n = 99; for"),
        ({"w.td": G_TD_99}, ["construct", "improved", "w.td", "--graph", "g.gr"], "n = 99; for"),
        (
            {"w.emb": "s emb 2 2\nt 1 2\nl 1 1\n"},
            ["validate", "w.emb"],
            "assignment domain must be the non-isolated vertices",
        ),
        (
            {"w.ord": "s ord 2\n1 3\n"},
            ["validate", "w.ord"],
            "ordering must list exactly the non-isolated vertices",
        ),
        ({}, ["verify", "appendix", "a", "--resolution", "0"], "resolution must be positive"),
        ({}, ["verify", "appendix", "c", "--resolution", "0"], "resolution must be at least 4"),
        ({}, ["verify", "appendix", "a", "--resolution", "50001"], "exceeds the limit of 50000"),
        (
            {},
            ["verify", "appendix", "b", "--parity", "odd", "--resolution", "50001"],
            "exceeds the limit of 50000",
        ),
        ({}, ["verify", "appendix", "c", "--resolution", "65"], "the fast-mode limit of 64"),
        (
            {},
            ["verify", "appendix", "c", "--mode", "full", "--resolution", "17"],
            "the full-mode limit of 16",
        ),
        (
            {},
            ["gen", "complete", "633", "-o", "k.gr"],
            "complete 633 has 200028 edges, above the limit of 200000",
        ),
        ({}, ["verify", "theorems", "--max-n", "2", "--random", "-1"], "must be nonnegative"),
        ({}, ["verify", "theorems", "--max-n", "0", "--random", "0"], "must be positive"),
        ({}, ["verify", "theorems", "--max-n", "-2", "--random", "0"], "must be positive"),
        ({}, ["sharp", "g.gr", "--params", "12", "3"], "--params is only read with --family"),
        (
            # three tree edges on four nodes, but a triangle and a lone node
            {"w.td": "s td 4 1 2\nb 1 1\nb 2 2\nb 3 1\nb 4 2\n1 2\n2 3\n1 3\n"},
            ["validate", "w.td"],
            "tree is not connected",
        ),
        (
            {"w.emb": "s emb 2 2\nt 1 2\nl 1 1\nl 2 2\n"},
            ["validate", "w.emb", "--line"],
            "--line applies to a .td witness, not a .emb",
        ),
        ({"w.ord": "s ord 2\n1 2\n"}, ["validate", "w.ord", "--line"], "not a .ord"),
        (
            {"w.td": "s td 2 1 4\nb 1 1\nb 2 2\n1 5\n"},
            ["validate", "w.td"],
            "error: tree edge (1,5) references an unknown node",
        ),
        (
            {"w.td": "s td 2 1 4\nb 1 1\nb 2 2\n1 1\n"},
            ["validate", "w.td"],
            "error: tree edge (1,1) is a loop",
        ),
    ],
    ids=[
        "td-token", "emb-token", "ord-token", "td-bag-no-id", "gr-non-ascii",
        "limit-30", "con-limit-30", "limit-0", "limit-negative",
        "td-repeated-edge", "emb-repeated-edge", "emb-late-header", "ord-late-header",
        "td-repeated-element", "td-header-n", "line-td-header-n", "emb-header-n",
        "normalize-header-n", "transform-header-n", "expand-header-n", "improved-header-n",
        "emb-domain", "ord-domain",
        "resolution-0", "resolution-0-grid",
        "resolution-a-limit", "resolution-b-limit", "resolution-c-fast-limit",
        "resolution-c-full-limit", "gen-edge-limit", "random-negative",
        "max-n-0", "max-n-negative", "sharp-params-no-family",
        "td-not-connected", "line-emb", "line-ord", "td-edge-unknown-node", "td-edge-loop",
    ],
)
def test_bad_input_ends_with_error_line(tmp_path, files, argv, message):
    files = {"g.gr": "p tw 2 1\n1 2\n", **files}
    for name, text in files.items():
        (tmp_path / name).write_bytes(text.encode("utf-8"))
    if argv[0] == "validate":
        argv = argv + ["--graph", "g.gr"]
    env = dict(os.environ, PYTHONPATH=str(Path(linewidth.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "linewidth.cli", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and message in proc.stderr


# run one command in a fresh process, then print the linewidth modules it loaded
LOADED_AFTER_MAIN = (
    "import sys\n"
    "from linewidth.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(*sorted(m for m in sys.modules if m.startswith('linewidth.')))\n"
    "sys.exit(code)\n"
)
SOLVERS = {"decompositions", "exact"}
SUITES = {"bounds", "suite", "optcheck", "smallgraphs"}


@pytest.fixture(scope="module")
def witness_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("witnesses")
    gr = str(d / "f.gr")
    for argv in (
        ["gen", "path-power", "7", "2", "-o", gr],
        ["exact", "tw", gr],
        ["exact", "con", gr],
        ["exact", "cw", gr],
        ["sharp", gr],
    ):
        assert main(argv) == 0
    return d


IMPORT_CASES = [
    (["exact", "cw", "f.gr", "--no-witness"], SOLVERS | SUITES),
    (["exact", "con", "f.gr", "--no-witness"], SOLVERS | SUITES),
    (["exact", "pcon", "f.gr", "--no-witness"], SOLVERS | SUITES),
    (["validate", "f.con.emb", "--graph", "f.gr"], SOLVERS | SUITES),
    (["validate", "f.cw.ord", "--graph", "f.gr"], SOLVERS | SUITES),
    (["gen", "complete", "4", "-o", "k4.gr"], SOLVERS | SUITES),
    (["exact", "tw", "f.gr", "--no-witness"], SUITES),
    (["exact", "pw", "f.gr", "--no-witness"], SUITES),
    (["sharp", "f.gr", "-o", "s.td"], SUITES),
    (["normalize", "f.sharp.td", "--graph", "f.gr", "-o", "n.td"], SUITES),
    (["transform", "lg-to-g", "f.sharp.td", "--graph", "f.gr", "-o", "t.td"], SUITES),
    (["validate", "f.tw.td", "--graph", "f.gr"], SUITES),
]


@pytest.mark.parametrize(
    "argv, unloaded", IMPORT_CASES, ids=["-".join(argv[:2]) for argv, _ in IMPORT_CASES]
)
def test_command_imports_only_what_it_runs(witness_dir, argv, unloaded):
    """Each command is a fresh process that compiles what it imports, so a
    command loads no solver or suite it does not call."""
    env = dict(os.environ, PYTHONPATH=str(Path(linewidth.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_AFTER_MAIN, *argv],
        cwd=witness_dir, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = {m.removeprefix("linewidth.") for m in proc.stdout.splitlines()[-1].split()}
    assert "cli" in loaded
    assert not loaded & unloaded, sorted(loaded & unloaded)


FUZZ_TOKENS = ["0", "-1", "7", "13", "99", "x", "2.5", "p", "s", "b", "t", "l", "td", "emb"]
FUZZ_LINES = ["", "c note", "p tw 3 1", "s td 1 1 1", "b 1", "1 1", "t 1 1", "l 1 1"]


def _mutate(text: str, rng: random.Random) -> str:
    """Delete, duplicate, replace or insert one line, or one token of a line."""
    lines = text.splitlines() or [""]
    i = rng.randrange(len(lines))
    op = rng.choice(("delete", "duplicate", "replace", "insert"))
    if rng.random() < 0.5:
        items, pool = lines, FUZZ_LINES + lines
    else:
        items = lines[i].split()
        pool = FUZZ_TOKENS + items
    j = rng.randrange(len(items)) if items else 0
    if op == "delete" and items:
        del items[j]
    elif op == "duplicate" and items:
        items.insert(j, items[j])
    elif op == "replace" and items:
        items[j] = rng.choice(pool)
    else:
        items.insert(j, rng.choice(pool))
    if items is not lines:
        lines[i] = " ".join(items)
    return "".join(line + "\n" for line in lines)


def test_seeded_mutations_exit_0_or_1_with_an_error_line(tmp_path, capsys):
    """Mutated .gr/.td/.emb/.ord files through validate, normalize, transform
    and exact, in-process: every run exits 0 or 1, and a refusal says why."""
    path = {name: str(tmp_path / name) for name in ("g.gr", "g.td", "g.emb", "g.ord", "line.td")}
    (tmp_path / "g.gr").write_text("p tw 6 7\n1 2\n2 3\n1 3\n3 4\n4 5\n5 6\n4 6\n")
    for argv in (
        ["exact", "tw", path["g.gr"], "-o", path["g.td"]],
        ["exact", "con", path["g.gr"], "-o", path["g.emb"]],
        ["exact", "pcon", path["g.gr"], "-o", path["g.ord"]],
        ["construct", "expand", path["g.td"], "--graph", path["g.gr"], "-o", path["line.td"]],
    ):
        assert run(argv, capsys)[0] == 0
    out_td = str(tmp_path / "out.td")
    runs = {  # the file mutated, and the commands that read it as "bad"
        "g.gr": [
            ["exact", "QUANTITY", "bad", "--no-witness"],
            ["validate", path["line.td"], "--graph", "bad", "--line"],
        ],
        "g.td": [["validate", "bad", "--graph", path["g.gr"]]],
        "g.emb": [["validate", "bad", "--graph", path["g.gr"]]],
        "g.ord": [["validate", "bad", "--graph", path["g.gr"]]],
        "line.td": [
            ["validate", "bad", "--graph", path["g.gr"], "--line"],
            ["normalize", "bad", "--graph", path["g.gr"], "-o", out_td],
            ["transform", "lg-to-g", "bad", "--graph", path["g.gr"], "-o", out_td],
        ],
    }
    originals = {name: (tmp_path / name).read_text() for name in runs}
    rng = random.Random(20241019)
    codes = set()
    for k in range(300):
        name = list(runs)[k % len(runs)]
        text = originals[name]
        for _ in range(rng.randint(1, 3)):
            text = _mutate(text, rng)
        bad = tmp_path / ("bad" + Path(name).suffix)
        bad.write_text(text)
        for argv in runs[name]:
            quantity = rng.choice(("tw", "pw", "cw", "con", "pcon"))
            argv = [{"bad": str(bad), "QUANTITY": quantity}.get(a, a) for a in argv]
            code, out, err = run(argv, capsys)
            codes.add(code)
            assert code in (0, 1), (argv, text)
            assert "Traceback" not in err
            if code == 1:  # validate reports an invalid witness on stdout
                refused = argv[0] == "validate" and out.startswith("invalid ")
                assert err.startswith("error: ") or refused, (argv, text, out, err)
    assert codes == {0, 1}


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["exact", "nonsense", "x.gr"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    for bad in ("abc", "1/0", "nan", " "):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "appendix", "a", "--s", bad])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --s: invalid fraction value" in err
        assert "Traceback" not in err
    # each appendix check and construct mode takes only the flags it reads,
    # and exact writes its witness to -o or to no file
    for argv in (
        ["construct", "tree", "t.gr", "--graph", "g.gr"],
        ["construct", "tree", "t.gr", "--path"],
        ["construct", "expand", "d.td"],
        ["construct", "improved", "d.td", "--path"],
        ["exact", "tw", "g.gr", "--no-witness", "-o", "x.td"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        capsys.readouterr()
    for args in (["c", "--s", "1/5"], ["a", "--parity", "odd"], ["b", "--mode", "full"]):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "appendix", *args])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_appendix_cli(capsys):
    code, out, _ = run(["verify", "appendix", "a", "--s", "1/4", "--resolution", "12"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "min 1/2"
    assert "gap 0" in out
    code, out, _ = run(
        ["verify", "appendix", "b", "--s", "1/3", "--parity", "odd"], capsys
    )
    assert code == 0 and "closed-form 5/9" in out
    code, out, _ = run(
        ["verify", "appendix", "c", "--resolution", "8", "--mode", "full"], capsys
    )
    assert code == 0 and out.splitlines()[0] == "max 1/2"


def test_verify_theorems_full_suite(capsys):
    code, out, _ = run(
        ["verify", "theorems", "--max-n", "5", "--random", "100"], capsys
    )
    assert code == 0
    assert out == (
        "ok   tree-congestion-equals-line-treewidth: 130 graphs\n"
        "ok   path-congestion-equals-line-pathwidth: 130 graphs\n"
        "ok   cutwidth-sandwich: 101 graphs with max degree >= 2\n"
        "ok   cutwidth-sandwich-tight-for-stars: stars with 3..6 leaves meet the lower bound\n"
        "ok   bound-sandwich-and-constructions: 130 graphs\n"
        "all checks passed\n"
    )


@pytest.mark.parametrize(
    "module, solver, failing",
    [
        (suite, "min_tree_congestion", ["tree-congestion-equals-line-treewidth: 9 graphs"]),
        (suite, "min_path_congestion", ["path-congestion-equals-line-pathwidth: 9 graphs"]),
        # the bound report's cutwidth entries are both the cutwidth sandwich
        # and two of the bounds that the bound sandwich checks
        (
            bounds,
            "cutwidth_solver",
            [
                "cutwidth-sandwich: 8 graphs with max degree >= 2",
                "bound-sandwich-and-constructions: 9 graphs",
            ],
        ),
    ],
    ids=[
        "min_tree_congestion-tree-congestion-equals-line-treewidth",
        "min_path_congestion-path-congestion-equals-line-pathwidth",
        "cutwidth_solver-cutwidth-sandwich",
    ],
)
def test_verify_theorems_reports_a_failing_graph(monkeypatch, capsys, module, solver, failing):
    real = getattr(module, solver)
    triangle = exhaustive_suite(4)[2]  # the third graph of the run; max degree 2

    def off_by_one_on_the_triangle(g):
        cert = real(g)
        return replace(cert, value=cert.value + 1) if g == triangle else cert

    monkeypatch.setattr(module, solver, off_by_one_on_the_triangle)
    code, out, _ = run(["verify", "theorems", "--max-n", "4", "--random", "0"], capsys)
    assert code == 1
    lines = out.splitlines()
    fails = [line for line in lines if line.startswith("FAIL ")]
    assert fails == [f"FAIL {check}, failed at [2]" for check in failing]
    assert lines[-1] == "FAILURES present"
