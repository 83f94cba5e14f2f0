import json
import subprocess
import sys

import pytest

from mckaygraphs.cli import (
    SpecParseError,
    chartab_document,
    graph_document,
    main,
    parse_group_spec,
    parse_rho_selector,
    render_dot,
)
from mckaygraphs.groups import BinaryPoly, Cyclic, Product, Semidirect, Dihedral


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "mckaygraphs.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_parse_specs():
    assert parse_group_spec("cyclic:6") == Cyclic(6)
    assert parse_group_spec("binary:T") == BinaryPoly("T")
    assert parse_group_spec("product(binary:T,cyclic:3)") == Product(
        BinaryPoly("T"), Cyclic(3)
    )
    assert parse_group_spec("semidirect(binary:O,cyclic:3)") == Semidirect(
        BinaryPoly("O"), Cyclic(3)
    )
    nested = parse_group_spec("product(product(cyclic:2,cyclic:2),dihedral:3)")
    assert nested == Product(Product(Cyclic(2), Cyclic(2)), Dihedral(3))
    for bad in ("", "nope:1", "cyclic:x", "binary:Q", "product(cyclic:2)", "cyclic:0"):
        with pytest.raises(SpecParseError):
            parse_group_spec(bad)


def test_parse_selectors():
    from mckaygraphs.chartable import CharVector, FaithfulSelfDualMinDim, Irrep

    assert parse_rho_selector("faithful-selfdual-min") == FaithfulSelfDualMinDim()
    assert parse_rho_selector("irrep:3") == Irrep(3)
    assert parse_rho_selector("charvec:1,0,2") == CharVector((1, 0, 2))
    with pytest.raises(SpecParseError):
        parse_rho_selector("nope")


def test_graph_dot_golden_star():
    doc = graph_document(parse_group_spec("extraspecial:+:1"), "faithful-selfdual-min", False)
    dot = render_dot(doc)
    expected = (
        'graph "extraspecial:+:1" {\n'
        '  v0 [label="1"];\n'
        '  v1 [label="1"];\n'
        '  v2 [label="1"];\n'
        '  v3 [label="★"];\n'
        '  v4 [label="2"];\n'
        "  v0 -- v4;\n"
        "  v1 -- v4;\n"
        "  v2 -- v4;\n"
        "  v3 -- v4;\n"
        "}\n"
    )
    assert dot == expected


def test_graph_json_directed_cycle():
    doc = graph_document(parse_group_spec("cyclic:5"), "irrep:1", False)
    assert doc["order"] == 5
    assert not doc["flags"]["undirected"]
    assert len(doc["edges"]) == 5
    assert all(not e["undirected"] for e in doc["edges"])
    outs = sorted(e["from"] for e in doc["edges"])
    ins = sorted(e["to"] for e in doc["edges"])
    assert outs == ins == [0, 1, 2, 3, 4]
    # JSON round trip is lossless
    assert json.loads(json.dumps(doc)) == doc


def test_graph_components_flag():
    doc = graph_document(
        parse_group_spec("semidirect(binary:O,cyclic:3)"), "irrep:0", True
    )
    # irrep:0 may be 1-dim; just check the schema with components
    assert "components" in doc
    for comp in doc["components"]:
        assert set(comp) == {
            "vertices",
            "principal",
            "shape",
            "orbit_size",
            "orbit_rep_degree",
        }


def test_chartab_document():
    doc = chartab_document(parse_group_spec("dihedral:3"))
    assert doc["order"] == 6
    degrees = sorted(row["degree"] for row in doc["irreducibles"])
    assert degrees == [1, 1, 2]
    assert doc["prime"] == 13
    sizes = sorted(c["size"] for c in doc["classes"])
    assert sizes == [1, 2, 3]
    doc = chartab_document(parse_group_spec("cyclic:3"))
    orders = {v["order"] for row in doc["irreducibles"] for v in row["values"]}
    assert orders == {3}


def test_chartab_binary_i_degrees():
    doc = chartab_document(parse_group_spec("binary:I"))
    assert sorted(r["degree"] for r in doc["irreducibles"]) == [1, 2, 2, 3, 3, 4, 4, 5, 6]


def test_cli_exit_codes():
    assert main(["graph", "binary:T", "--rho", "faithful-selfdual-min"]) == 0
    assert main(["graph", "nope:3"]) == 2
    assert main(["graph", "cyclic:2000"]) == 2  # above the order cap
    assert main(["graph", "elemab:2:2", "--rho", "faithful-selfdual-min"]) == 2
    assert main(["chartab", "cyclic:3"]) == 0
    assert main(["chartab", "what"]) == 2


def test_cli_subprocess_deterministic(tmp_path):
    code1, out1, _ = run_cli("graph", "binary:T", "--out", "json")
    code2, out2, _ = run_cli("graph", "binary:T", "--out", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert sorted(v["dim"] for v in doc["vertices"]) == [1, 1, 1, 2, 2, 2, 3]
    star = [v for v in doc["vertices"] if v["trivial"]]
    assert len(star) == 1 and star[0]["dim"] == 1


def test_cli_output_file(tmp_path):
    target = tmp_path / "graph.dot"
    assert main(["graph", "extraspecial:+:1", "--output", str(target)]) == 0
    text = target.read_text()
    assert text.startswith('graph "extraspecial:+:1"')


def test_cli_bogus_suite_exits_2():
    code, _, err = run_cli("verify", "--suite", "bogus")
    assert code == 2


@pytest.mark.parametrize(
    "argv, cap",
    [
        (["graph", "cyclic:5", "--rho", "irrep:9"], None),  # no such irreducible
        (["graph", "cyclic:5", "--rho", "charvec:1,0"], None),  # wrong length
        (["graph", "cyclic:5"], "abc"),  # MCKAY_ORDER_CAP is not an integer
        (["verify", "--suite", "trees"], "abc"),
    ],
)
def test_usage_errors_exit_2_with_one_line(argv, cap, monkeypatch, capsys):
    if cap is not None:
        monkeypatch.setenv("MCKAY_ORDER_CAP", cap)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize(
    "spec",
    [
        "semidirect(cyclic:3,elemab:2:4)",
        "semidirect(cyclic:7,elemab:2:6)",
        "semidirect(elemab:2:5,elemab:2:2)",
    ],
)
def test_intransitive_elemab_actions_exit_2_before_any_search(spec, monkeypatch, capsys):
    # p^n - 1 must divide |G| for G to be transitive on the nonzero vectors
    from mckaygraphs import groups

    def unreachable(*args, **kwargs):
        raise AssertionError("searched although the orders rule out the action")

    monkeypatch.setattr(groups, "_gl_elements", unreachable)
    monkeypatch.setattr(groups, "normal_subgroups", unreachable)
    assert main(["chartab", spec]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "does not divide" in err


def per_entry_document(spec):
    """chartab_document with one fresh cell per table entry."""
    from mckaygraphs.chartable import compute_character_table
    from mckaygraphs.groups import build_group

    doc = chartab_document(parse_group_spec(spec))
    ct = compute_character_table(build_group(parse_group_spec(spec)))
    for row, values in zip(doc["irreducibles"], ct.values):
        row["values"] = [{"order": v.order, "coeffs": list(v.coeffs)} for v in values]
    return doc


@pytest.mark.parametrize("spec", ["cyclic:12", "binary:I", "extraspecial:-:2"])
def test_shared_cells_dump_like_one_cell_per_entry(spec):
    doc = chartab_document(parse_group_spec(spec))
    assert json.dumps(doc, indent=2) == json.dumps(per_entry_document(spec), indent=2)


# Every set operation of a graph or chartab command, as a subprocess: kernel
# orbits and _right_kernel (extraspecial:+:3), the commutator subgroup and
# quotients (the semidirect product by C_3 and the extraspecial build), and
# the push-down quotient of the principal-component check.
NO_MASKED_ARRAYS = """
import sys
from mckaygraphs import cli
from mckaygraphs.chartable import compute_character_table, resolve_rho, Irrep
from mckaygraphs.graphs import (
    build_mckay_graph, decompose_components, principal_component_isomorphism_check)
from mckaygraphs.groups import build_group

for argv in (
    ["graph", "extraspecial:+:3", "--rho", "faithful-selfdual-min", "--components"],
    ["graph", "semidirect(dihedral:3,cyclic:3)", "--rho", "irrep:1", "--components"],
    ["chartab", "semidirect(cyclic:4,cyclic:5)"],
):
    assert cli.main(argv + ["--output", sys.argv[1]]) == 0, argv
ct = compute_character_table(build_group(cli.parse_group_spec("dihedral:6")))
graph = build_mckay_graph(ct, resolve_rho(ct, Irrep(1)))
assert principal_component_isomorphism_check(decompose_components(graph, ct), ct)
print("numpy.ma" in sys.modules)
"""


def test_commands_do_not_import_numpy_ma(tmp_path):
    # a plain np.unique or np.setdiff1d imports numpy.ma, about 10 ms a process
    proc = subprocess.run(
        [sys.executable, "-c", NO_MASKED_ARRAYS, str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
