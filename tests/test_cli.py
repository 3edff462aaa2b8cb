"""Command-line surface: exit codes, determinism, artifact round trips."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hhx
from hhx import cli
from hhx.chains import BettiTable
from hhx.cli import _BOUNDS, ComparisonReport, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# child processes import hhx from the same source tree, installed or not
SRC = str(Path(hhx.__file__).resolve().parents[1])
CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
)


def run_proc(*argv):
    return subprocess.run(
        [sys.executable, "-m", "hhx.cli", *argv],
        capture_output=True, text=True, env=CHILD_ENV,
    )


CORPUS = Path(hhx.__file__).resolve().parent / "corpus"
CHAIN_POSET = {
    "objects": [{"name": "a", "components": 1}, {"name": "b", "components": 1}],
    "relations": [["a", "b"]],
}


# comparison report


def test_comparison_report_agree():
    a = BettiTable({(0, 0): 2, (1, 0): 1}, 2, "loday")
    b = BettiTable({(0, 0): 2, (1, 0): 1}, 3, "oracle")
    rep = ComparisonReport.build(a, b)
    assert rep.verdict == "agree"
    assert rep.window == 2
    assert rep.first_mismatch is None


def test_comparison_report_first_mismatch_is_smallest():
    a = BettiTable({(0, 0): 2, (1, 0): 2, (2, 0): 5}, 3, "loday")
    b = BettiTable({(0, 0): 2, (1, 0): 1, (2, 0): 9}, 3, "oracle")
    rep = ComparisonReport.build(a, b)
    assert rep.verdict == "mismatch"
    assert rep.first_mismatch == (1, 0, 2, 1)


def test_comparison_report_window_clamps():
    a = BettiTable({(0, 0): 1, (2, 0): 7}, 2, "loday")
    b = BettiTable({(0, 0): 1, (2, 0): 8}, 2, "oracle")
    rep = ComparisonReport.build(a, b, s_max=1)
    assert rep.window == 1
    assert rep.verdict == "agree"


# happy paths


def test_hh_circle_dual(capsys, tmp_path):
    out = tmp_path / "b.json"
    code, text, _ = run(
        capsys, "hh", "--algebra", "dual.json", "--space", "circle:min",
        "--smax", "4", "--out", str(out),
    )
    assert code == 0
    assert "provenance loday" in text
    table = BettiTable.from_json(json.loads(out.read_text()))
    assert table.entries == {
        (0, 0): 2, (1, 0): 1, (2, 0): 1, (3, 0): 1, (4, 0): 1,
    }
    assert table.s_valid == 4
    assert table.provenance == "loday"


def test_hh_relative_base(capsys):
    code, text, _ = run(
        capsys, "hh", "--base", "relative_pair.json", "--space", "circle:min",
        "--smax", "2", "--json",
    )
    assert code == 0
    table = BettiTable.from_json(json.loads(text))
    # dual numbers doubled, relative to the split base
    assert table.entries == {(0, 0): 4, (1, 0): 2, (2, 0): 2}


def test_hh_relative_base_with_its_target(capsys, tmp_path):
    base = json.loads((CORPUS / "relative_pair.json").read_text())
    target = tmp_path / "target.json"
    target.write_text(json.dumps(base["target"]))
    code, text, _ = run(
        capsys, "hh", "--base", "relative_pair.json", "--algebra", str(target),
        "--space", "circle:min", "--smax", "2", "--json",
    )
    assert code == 0
    table = BettiTable.from_json(json.loads(text))
    assert table.entries == {(0, 0): 4, (1, 0): 2, (2, 0): 2}


def test_hh_base_target_mismatch(capsys):
    code, _, err = run(
        capsys, "hh", "--base", "relative_pair.json", "--algebra", "dual.json",
        "--space", "circle:min", "--smax", "1",
    )
    assert code == 2
    assert "does not match" in err


def test_hh_bar_sphere(capsys):
    code, text, _ = run(
        capsys, "hh-bar", "--algebra", "qxq.json", "--sphere", "2",
        "--smax", "2", "--json",
    )
    assert code == 0
    table = BettiTable.from_json(json.loads(text))
    assert table.provenance == "bar-suspension"
    assert table.entries == {(0, 0): 2}


def test_hh_bar_sphere3_matches_loday(capsys):
    code, text, _ = run(
        capsys, "hh-bar", "--algebra", "dual", "--sphere", "3",
        "--smax", "3", "--json",
    )
    assert code == 0
    code, want, _ = run(
        capsys, "hh", "--algebra", "dual", "--space", "sphere:3",
        "--smax", "3", "--json",
    )
    assert code == 0
    got = json.loads(text)["entries"]
    assert got == json.loads(want)["entries"]
    assert got == [{"s": 0, "t": 0, "dim": 2}, {"s": 3, "t": 0, "dim": 1}]


def test_oracle_hh_table(capsys):
    code, text, _ = run(
        capsys, "oracle-hh", "--algebra", "exterior.json", "--smax", "2",
        "--json",
    )
    assert code == 0
    table = BettiTable.from_json(json.loads(text))
    assert table.provenance == "oracle"
    assert table.entries == {
        (0, 0): 1, (0, 1): 1, (1, 1): 1, (1, 2): 1, (2, 2): 1, (2, 3): 1,
    }


def test_cohomology_dual_profile(capsys):
    code, text, _ = run(
        capsys, "cohomology", "--algebra", "dual.json", "--nmax", "3",
        "--json",
    )
    assert code == 0
    table = BettiTable.from_json(json.loads(text))
    assert table.provenance == "hochschild-cohomology"
    assert table.entries == {(0, 0): 2, (1, 0): 1, (2, 0): 1, (3, 0): 1}
    assert table.s_valid == 3


def test_rhom_collapses_to_the_algebra(capsys):
    code, text, _ = run(
        capsys, "rhom", "--algebra", "exterior.json", "--nmax", "2", "--json",
    )
    assert code == 0
    table = BettiTable.from_json(json.loads(text))
    assert table.provenance == "cobar"
    assert table.entries == {(0, 0): 1, (0, 1): 1}


def test_poset_hh_dual_with_edge(capsys):
    code, text, _ = run(
        capsys, "poset-hh", "--algebra", "dual.json", "--edge", "0", "--json",
    )
    assert code == 0
    doc = json.loads(text)
    table = BettiTable.from_json(doc)
    assert table.entries == {(0, 0): 2, (1, 0): 1}
    assert doc["edge"] == {"at": "0", "iso": False}


def test_poset_hh_etale_edge_collapses(capsys):
    code, text, _ = run(
        capsys, "poset-hh", "--algebra", "qxq.json", "--edge", "0",
    )
    assert code == 0
    assert "edge map at 0: iso true" in text


def test_poset_hh_constant_default(capsys):
    code, text, _ = run(capsys, "poset-hh", "--json")
    assert code == 0
    table = BettiTable.from_json(json.loads(text))
    assert table.entries == {(0, 0): 1}


def test_poset_hh_from_file_constant(capsys, tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(CHAIN_POSET))
    code, text, _ = run(capsys, "poset-hh", "--poset", str(path), "--json")
    assert code == 0
    table = BettiTable.from_json(json.loads(text))
    assert table.entries == {(0, 0): 1}


def test_poset_hh_file_refuses_arc_coefficients(capsys, tmp_path):
    doc = {
        "objects": [{"name": "a", "components": 1}],
        "relations": [],
    }
    path = tmp_path / "one.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(
        capsys, "poset-hh", "--poset", str(path), "--algebra", "dual.json",
    )
    assert code == 2
    assert "component" in err


@pytest.mark.parametrize(
    "sphere, expected",
    [("1", {0: 2, 1: 1, 2: 1}), ("2", {0: 2, 2: 1})],
    ids=["sphere1", "sphere2"],
)
def test_sseq_totals_match_circle_homology(capsys, sphere, expected):
    # the totals equal hh --space sphere:<sphere> on the same algebra
    code, text, _ = run(
        capsys, "sseq", "--algebra", "dual.json", "--pmax", "3",
        "--sphere", sphere, "--json",
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["pages"], "at least one page"
    einf = doc["e_infinity"]
    totals = {}
    for e in einf["entries"]:
        n = e["p"] + e["q"]
        totals[n] = totals.get(n, 0) + e["dim"]
    assert einf["n_valid"] == 2
    assert totals == expected


def test_sseq_q3_sphere2_window(capsys):
    # the bar stops at p + q <= 4; r_stab is still p_max + 2
    code, text, _ = run(
        capsys, "sseq", "--algebra", "q3", "--sphere", "2", "--pmax", "4", "--json",
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["r_stab"] == 6
    assert doc["e_infinity"]["n_valid"] == 3


def test_etale_check_report_wording(capsys):
    code, text, _ = run(
        capsys, "etale-check", "--algebra", "qxq.json", "--sphere", "2",
        "--smax", "2",
    )
    assert code == 0
    assert text == "étale: true; HH^{S^2} ≅ A: true\n"


def test_etale_check_negative(capsys):
    code, text, _ = run(
        capsys, "etale-check", "--algebra", "dual.json", "--sphere", "1",
        "--smax", "2",
    )
    assert code == 0
    assert text == "étale: false; HH^{S^1} ≅ A: false\n"


def test_etale_check_graded_input_fails_validation(capsys):
    code, _, err = run(
        capsys, "etale-check", "--algebra", "exterior.json", "--sphere", "1",
        "--smax", "1",
    )
    assert code == 2
    assert "degree zero" in err


# compare


def test_compare_loday_oracle_agree(capsys):
    code, text, _ = run(
        capsys, "compare", "--left", "loday", "--right", "oracle",
        "--algebra", "dual.json", "--smax", "4",
    )
    assert code == 0
    assert "verdict: agree" in text


def test_compare_poset_side(capsys):
    code, text, _ = run(
        capsys, "compare", "--left", "loday", "--right", "poset",
        "--algebra", "qxq.json", "--smax", "3",
    )
    assert code == 0
    assert "window: s <= 1" in text
    assert "verdict: agree" in text


def test_compare_bar_side(capsys):
    code, text, _ = run(
        capsys, "compare", "--left", "loday", "--right", "bar",
        "--algebra", "dual.json", "--smax", "3",
    )
    assert code == 0
    assert "right: bar-suspension, trusted through level 3" in text
    assert "verdict: agree" in text


def test_compare_files_mismatch_exit3(capsys, tmp_path):
    left = tmp_path / "l.json"
    right = tmp_path / "r.json"
    run(
        capsys, "hh", "--algebra", "dual.json", "--space", "circle:min",
        "--smax", "3", "--out", str(left),
    )
    run(capsys, "oracle-hh", "--algebra", "exterior.json", "--smax", "3",
        "--out", str(right))
    code, text, _ = run(
        capsys, "compare", "--left", str(left), "--right", str(right),
        "--json",
    )
    assert code == 3
    doc = json.loads(text)
    assert doc["verdict"] == "mismatch"
    assert doc["first_mismatch"] == {"s": 0, "t": 0, "left": 2, "right": 1}


def test_compare_pipeline_needs_algebra(capsys):
    code, _, err = run(capsys, "compare", "--left", "loday", "--right",
                       "oracle", "--smax", "2")
    assert code == 1
    assert "needs --algebra" in err


def test_compare_unknown_side(capsys):
    code, _, err = run(
        capsys, "compare", "--left", "fred", "--right", "oracle",
        "--algebra", "dual.json", "--smax", "2",
    )
    assert code == 1
    assert "neither a pipeline" in err


def test_compare_checks_right_before_left_runs(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the left pipeline ran")

    monkeypatch.setattr(cli, "oracle_hh", fail)
    code, text, err = run(
        capsys, "compare", "--left", "oracle", "--right", "nope",
        "--algebra", "mat2", "--smax", "5",
    )
    assert code == 1
    assert text == ""
    assert "--right: 'nope' is neither a pipeline" in err


def test_compare_checks_right_flags_before_left_reads(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, _, err = run(capsys, "compare", "--left", str(bad), "--right", "bar")
    assert code == 1
    assert "--right bar needs --algebra" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["hh-bar", "--algebra", "dual", "--smax", "2", "--sphere", "0"], "--sphere"),
        (["sseq", "--algebra", "dual", "--pmax", "2", "--sphere", "0"], "--sphere"),
        (["etale-check", "--algebra", "qxq", "--smax", "1", "--sphere", "0"], "--sphere"),
        (["compare", "--left", "loday", "--right", "bar", "--algebra", "dual",
          "--smax", "1", "--sphere", "0"], "--sphere"),
        (["sseq", "--algebra", "dual", "--pmax", "2", "--rmax", "0"], "--rmax"),
    ],
    ids=["hh-bar", "sseq", "etale-check", "compare", "sseq-rmax"],
)
def test_nonpositive_sphere_and_rmax_are_usage_errors(capsys, argv, flag):
    code, text, err = run(capsys, *argv)
    assert code == 1
    assert text == ""
    assert f"usage error: {flag} must be positive, got 0" in err


# validate


def test_validate_whole_corpus(capsys):
    names = [
        "dual.json", "qxq.json", "q3.json", "gf4.json", "exterior.json",
        "mat2.json", "relative_pair.json",
    ]
    code, text, _ = run(capsys, "validate", *names)
    assert code == 0
    lines = text.strip().splitlines()
    assert len(lines) == len(names)
    assert all(": ok (" in line for line in lines)
    assert "relative_pair.json: ok (algebra map)" in text


def test_validate_poset_file(capsys, tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(CHAIN_POSET))
    code, text, _ = run(capsys, "validate", str(path))
    assert code == 0
    assert text == f"{path}: ok (poset)\n"


def test_validate_space_descriptor(capsys):
    code, text, _ = run(capsys, "validate", "--space", "union:circle:min+point")
    assert code == 0
    assert "ok" in text


def test_validate_space_refuses_nested_union(capsys):
    desc = "union:point+union:point+circle"
    code, _, err = run(capsys, "validate", "--space", desc)
    assert code == 2
    assert f"space {desc}: invalid: union parts cannot be unions in '{desc}'" in err


def test_validate_bad_algebra(capsys, tmp_path):
    doc = {
        "field": "Q",
        "basis": [{"name": "1", "degree": 0}, {"name": "x", "degree": 1}],
        "unit": ["1", "0"],
        "table": [
            [["1", "0"], ["0", "1"]],
            [["0", "1"], ["0", "1"]],
        ],
        "commutative": True,
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "degree violation" in err


def test_validate_not_json(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{ not json")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "not valid JSON" in err


def test_validate_unrecognized_shape(capsys, tmp_path):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"stuff": 1}))
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "unrecognized" in err


GOOD_ENTRY = {"s": 0, "t": 0, "dim": 1}
MALFORMED_TABLES = {
    "no-t": {"entries": [{"s": 0, "dim": 1}]},
    "s-string": {"entries": [{"s": "a", "t": 0, "dim": 1}]},
    "dim-float": {"entries": [{"s": 0, "t": 0, "dim": 1.5}]},
    "dim-bool": {"entries": [{"s": 0, "t": 0, "dim": True}]},
    "s_valid-string": {"s_valid": "2"},
    "duplicate": {"entries": [GOOD_ENTRY, dict(GOOD_ENTRY, dim=2)]},
    "entries-number": {"entries": 3},
    "s_valid-negative": {"s_valid": -3, "entries": []},
    "s-negative": {"entries": [{"s": -4, "t": 0, "dim": 2}]},
    "provenance-number": {"provenance": 5},
}


def table_file(tmp_path, name, **fields):
    path = tmp_path / f"{name}.json"
    doc = {"provenance": "loday", "s_valid": 2, "entries": [GOOD_ENTRY]}
    path.write_text(json.dumps(dict(doc, **fields)))
    return str(path)


@pytest.mark.parametrize("case", sorted(MALFORMED_TABLES))
def test_malformed_betti_table_exits_2(capsys, tmp_path, case):
    bad = table_file(tmp_path, "bad", **MALFORMED_TABLES[case])
    good = table_file(tmp_path, "good")
    code, _, err = run(capsys, "validate", bad)
    assert code == 2
    assert f"{bad}: invalid: " in err
    code, _, err = run(capsys, "compare", "--left", bad, "--right", good)
    assert code == 2
    assert "invalid input: " in err


def test_malformed_betti_table_prints_no_traceback(tmp_path):
    bad = table_file(tmp_path, "bad", **MALFORMED_TABLES["no-t"])
    for argv in (["validate", bad], ["compare", "--left", bad, "--right", bad]):
        proc = run_proc(*argv)
        assert proc.returncode == 2
        assert "invalid" in proc.stderr and "Traceback" not in proc.stderr


# (corpus file, or None for CHAIN_POSET; key; the value that replaces it)
MALFORMED_INPUTS = {
    "basis-number": ("dual.json", "basis", 5),
    "unit-number": ("dual.json", "unit", 1),
    "table-number": ("dual.json", "table", 7),
    "table-entries-numbers": ("dual.json", "table", [[5, 5], [5, 5]]),
    "matrix-number": ("relative_pair.json", "matrix", 5),
    # one number per target basis element, so the row count matches
    "matrix-rows-numbers": ("relative_pair.json", "matrix", [5, 6, 7, 8]),
    "relation-nested": (None, "relations", [["a", ["b"]]]),
    # each of these once read as a <= b
    "relation-string": (None, "relations", ["ab"]),
    "relation-dict": (None, "relations", [{"a": 1, "b": 2}]),
    # a name that poset-hh --edge can never give
    "object-name-number": (
        None, "objects", CHAIN_POSET["objects"] + [{"name": 1, "components": 1}]
    ),
}


def malformed_commands(tmp_path, case) -> list:
    """The commands that read the malformed file: validate, and hh through
    --algebra or --base for an algebra or a map."""
    name, key, value = MALFORMED_INPUTS[case]
    doc = json.loads((CORPUS / name).read_text()) if name else dict(CHAIN_POSET)
    doc[key] = value
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(doc))
    commands = [["validate", str(path)]]
    flag = {"dual.json": "--algebra", "relative_pair.json": "--base"}.get(name)
    if flag:
        commands.append(["hh", flag, str(path), "--space", "circle:min", "--smax", "1"])
    return commands


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_file_exits_2(capsys, tmp_path, case):
    for argv in malformed_commands(tmp_path, case):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert "invalid" in err


def test_malformed_input_file_prints_no_traceback(tmp_path):
    for case in ("table-entries-numbers", "relation-nested"):
        for argv in malformed_commands(tmp_path, case):
            proc = run_proc(*argv)
            assert proc.returncode == 2
            assert "invalid" in proc.stderr and "Traceback" not in proc.stderr


def _corpus_doc(name, **changes) -> dict:
    doc = json.loads((CORPUS / name).read_text())
    doc.update(changes)
    return doc


RELATIVE_PAIR = _corpus_doc("relative_pair.json")
# e*e = e and e*f = f, but f*e = 0, so e is a unit on the left only
LEFT_UNIT = {
    "field": "Q",
    "basis": [{"name": "e", "degree": 0}, {"name": "f", "degree": 0}],
    "unit": ["1", "0"],
    "table": [[["1", "0"], ["0", "1"]], [["0", "0"], ["0", "0"]]],
    "commutative": False,
}
# case: (how the file is read, its document, extra flags, the refusal)
REFUSED_FILES = {
    "algebra-array": ("--algebra", [LEFT_UNIT], (), "algebra file must hold a JSON object"),
    "basis-entry-list": (
        "validate",
        _corpus_doc("dual.json", basis=[["1", 0], {"name": "x", "degree": 0}]),
        (),
        "bad basis entry ['1', 0]",
    ),
    "basis-name-number": (
        "validate",
        _corpus_doc(
            "dual.json", basis=[{"name": "1", "degree": 0}, {"name": 1, "degree": 0}]
        ),
        (),
        "basis name 1 must be a nonempty string",
    ),
    "left-unit-only": ("validate", LEFT_UNIT, (), "unit law fails on the right at f"),
    "map-array": ("--base", [RELATIVE_PAIR], (), "map file must hold a JSON object"),
    "map-without-source": (
        "--base",
        {k: v for k, v in RELATIVE_PAIR.items() if k != "source"},
        (),
        "map file lacks keys: ['source']",
    ),
    "map-without-source-validated": (
        "validate",
        {k: v for k, v in RELATIVE_PAIR.items() if k != "source"},
        (),
        "map file lacks keys: ['source']",
    ),
    "algebra-without-unit-validated": (
        "validate",
        {k: v for k, v in _corpus_doc("dual.json").items() if k != "unit"},
        (),
        "algebra file lacks keys: ['unit']",
    ),
    "poset-without-relations-validated": (
        "validate",
        {"objects": [{"name": "a", "components": 1}]},
        (),
        "malformed poset file: 'relations'",
    ),
    "table-without-entries-validated": (
        "validate",
        {"provenance": "loday", "s_valid": 1},
        (),
        "betti table file lacks provenance/s_valid/entries",
    ),
    "array-validated": ("validate", [LEFT_UNIT], (), "invalid: file must hold a JSON object"),
    "array-compared": ("compare", [LEFT_UNIT], (), "betti table file must hold a JSON object"),
    "map-row-dropped": (
        "validate",
        _corpus_doc("relative_pair.json", matrix=RELATIVE_PAIR["matrix"][:-1]),
        (),
        "map matrix must be 4x2",
    ),
    "map-third-mod-3": (
        "validate",
        _corpus_doc(
            "relative_pair.json", matrix=[["1/3", "0"]] + RELATIVE_PAIR["matrix"][1:]
        ),
        ("--field", "Fp:3"),
        "map matrix: bad scalar literal",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSED_FILES))
def test_refused_file_names_its_fault(capsys, tmp_path, case):
    how, doc, extra, message = REFUSED_FILES[case]
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(doc))
    if how == "validate":
        argv = ["validate", str(path)]
    elif how == "compare":
        argv = ["compare", "--left", str(path), "--right", str(path)]
    else:
        argv = ["hh", how, str(path), "--space", "circle:min", "--smax", "1"]
    code, _, err = run(capsys, *argv, *extra)
    assert code == 2
    assert message in err


@pytest.mark.parametrize(
    "space, message",
    [
        ("circle:0", "subdivision needs at least one edge"),
        ("sphere:0", "sphere dimension must be at least 1"),
        ("simplex:-1", "negative simplex dimension"),
        ("simplex:10", "simplex dimension capped at 9"),
        ("boundary:0", "boundary needs dimension at least 1"),
        ("foo:3", "unknown space descriptor 'foo:3'"),
    ],
)
def test_refused_space_names_its_fault(capsys, space, message):
    code, _, err = run(capsys, "validate", "--space", space)
    assert code == 2
    assert f"space {space}: invalid: {message}" in err


def test_hh_needs_an_algebra_or_a_base(capsys):
    code, _, err = run(capsys, "hh", "--space", "circle", "--smax", "1")
    assert code == 1
    assert "usage error: hh needs --algebra or --base" in err


def test_poset_refusal_names_the_same_pair_on_every_run(tmp_path):
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps({
        "objects": [{"name": x, "components": 1} for x in "abc"],
        "relations": [["a", "b"], ["b", "c"], ["c", "a"]],
    }))
    errs = set()
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "hhx.cli", "validate", str(path)],
            capture_output=True, text=True, env=dict(CHILD_ENV, PYTHONHASHSEED=seed),
        )
        assert proc.returncode == 2
        errs.add(proc.stderr)
    assert len(errs) == 1
    assert "relation is not antisymmetric on (a, b)" in errs.pop()


def test_validate_nothing_given(capsys):
    code, _, err = run(capsys, "validate")
    assert code == 1
    assert "nothing to validate" in err


# field override


def test_field_override_runs_mod_p(capsys):
    code, text, _ = run(
        capsys, "hh", "--algebra", "dual.json", "--space", "circle:min",
        "--smax", "1", "--field", "Fp:3", "--json",
    )
    assert code == 0
    table = BettiTable.from_json(json.loads(text))
    assert table.dim(0, 0) == 2
    assert table.dim(1, 0) == 1


def test_field_override_bad_denominator(capsys, tmp_path):
    doc = {
        "field": "Q",
        "basis": [{"name": "1", "degree": 0}, {"name": "h", "degree": 0}],
        "unit": ["1", "0"],
        "table": [
            [["1", "0"], ["0", "1"]],
            [["0", "1"], ["1/2", "0"]],
        ],
        "commutative": True,
    }
    path = tmp_path / "half.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(
        capsys, "hh", "--algebra", str(path), "--space", "point",
        "--smax", "1", "--field", "Fp:2",
    )
    assert code == 2
    assert "F_2" in err


# exit codes for malformed invocations


def test_usage_missing_file(capsys):
    code, _, err = run(
        capsys, "hh", "--algebra", "nope.json", "--space", "point",
        "--smax", "1",
    )
    assert code == 1
    assert "--algebra: no file 'nope.json' and no corpus entry" in err


def test_usage_nonpositive_bound(capsys):
    code, _, err = run(
        capsys, "hh", "--algebra", "dual.json", "--space", "point",
        "--smax", "0",
    )
    assert code == 1
    assert "positive" in err


def test_runspec_rejects_nonpositive_bounds(capsys):
    code, text, err = run(
        capsys, "oracle-hh", "--algebra", "dual", "--smax", "0",
    )
    assert code == 1
    assert text == ""
    assert "usage error: --smax must be positive, got 0" in err
    code, text, err = run(capsys, "poset-hh", "--marks", "-1")
    assert code == 1
    assert text == ""
    assert "usage error: --marks must be positive, got -1" in err


def test_runspec_rejects_missing_file(capsys):
    code, text, err = run(
        capsys, "oracle-hh", "--algebra", "no_such_file.json", "--smax", "1",
    )
    assert code == 1
    assert text == ""
    assert "no file" in err


def test_usage_bad_field(capsys):
    code, text, err = run(
        capsys, "hh", "--algebra", "dual", "--space", "point",
        "--smax", "1", "--field", "Fp:4",
    )
    assert code == 1
    assert text == ""
    assert "usage error: bad field spec 'Fp:4'" in err


def test_bare_corpus_name_resolves(capsys):
    code, text, _ = run(
        capsys, "hh", "--algebra", "dual", "--space", "point", "--smax", "1",
        "--json",
    )
    assert code == 0
    assert BettiTable.from_json(json.loads(text)).entries == {(0, 0): 2}


def test_every_int_option_is_bound_checked():
    # main refuses a nonpositive value of exactly the options in _BOUNDS
    subs = next(
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    for command, sub in subs.choices.items():
        for action in sub._actions:
            if action.type is int:
                assert action.dest in _BOUNDS, (command, action.dest)
                assert action.option_strings == [f"--{action.dest}"]


def test_usage_unknown_subcommand(capsys):
    code, _, err = run(capsys, "frob")
    assert code == 1
    assert "invalid choice" in err


def test_usage_no_subcommand(capsys):
    code, text, _ = run(capsys)
    assert code == 1
    assert "usage" in text


def test_bad_descriptor_fails_validation(capsys):
    code, _, err = run(
        capsys, "hh", "--algebra", "dual.json", "--space", "circle:x",
        "--smax", "1",
    )
    assert code == 2


# determinism and the installed script


def test_artifacts_byte_identical_across_runs(tmp_path):
    args = [
        "hh", "--algebra", "dual.json", "--space", "circle:min",
        "--smax", "3", "--json",
    ]
    one = run_proc(*args, "--out", str(tmp_path / "a.json"))
    two = run_proc(*args, "--out", str(tmp_path / "b.json"))
    assert one.returncode == 0 and two.returncode == 0
    assert one.stdout == two.stdout
    a = (tmp_path / "a.json").read_bytes()
    b = (tmp_path / "b.json").read_bytes()
    assert a == b
    assert a.decode() == one.stdout


def test_in_process_calls_share_no_state(capsys):
    hh = ["hh", "--algebra", "dual.json", "--space", "circle:min", "--smax", "3", "--json"]
    sseq = ["sseq", "--algebra", "dual.json", "--pmax", "3", "--field", "Fp:3", "--json"]
    first = run(capsys, *hh)
    assert run(capsys, *sseq)[0] == 0
    again = run(capsys, *hh)
    assert first[0] == 0 and first == again
    assert first[1] == run_proc(*hh).stdout
    # a model of S^1 keeps its shuffle pushes; none reach the next call
    sphere = ["sseq", "--algebra", "dual.json", "--sphere", "2", "--pmax", "3", "--json"]
    first = run(capsys, *sphere)
    assert run(capsys, *hh) == again
    assert first[0] == 0 and first == run(capsys, *sphere)
    assert first[1] == run_proc(*sphere).stdout


def test_artifact_has_no_floats(tmp_path):
    proc = run_proc(
        "oracle-hh", "--algebra", "mat2.json", "--smax", "2",
        "--out", str(tmp_path / "m.json"),
    )
    assert proc.returncode == 0
    doc = json.loads((tmp_path / "m.json").read_text())
    def walk(x):
        if isinstance(x, float):
            raise AssertionError("float leaked into an artifact")
        if isinstance(x, dict):
            for v in x.values():
                walk(v)
        if isinstance(x, list):
            for v in x:
                walk(v)
    walk(doc)


def test_module_entry_help():
    proc = run_proc("--help")
    assert proc.returncode == 0
    assert "usage" in proc.stdout
