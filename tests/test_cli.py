import pytest

from linewidth.cli import main


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


def test_domain_error_exit_code(tmp_path, capsys):
    gr = tmp_path / "big.gr"
    run(["gen", "complete", "12", "-o", gr], capsys)
    code, _, err = run(["exact", "con", gr], capsys)
    assert code == 1
    assert "exceeds the limit" in err


def test_missing_file_exit_code(tmp_path, capsys):
    code, _, err = run(["exact", "tw", tmp_path / "nope.gr"], capsys)
    assert code == 1 and "error" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["exact", "nonsense", "x.gr"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


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
    assert "all checks passed" in out
    assert out.count("ok  ") == 5
