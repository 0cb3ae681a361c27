import time
from pathlib import Path

import pytest

from conftest import FIXTURES, fixture_text, fresh_python, reduce_without
from oredango import cli, ilp, reduction, solver, textio

SAMPLE = str(FIXTURES / "sample4x4.odg")
PAIR = str(FIXTURES / "pairblock.odg")
CNF = str(FIXTURES / "three-clauses.c13")
TWO_CNF = str(FIXTURES / "two-clauses.c13")

FIRST_GRID = "WBBW\nW.B.\nBW.B\nBBWB\n"

CHECK_LINES = [
    "rule A skewer 2: 3 black, clue 4 at (1,4)(2,3)(3,4)(4,3)(4,2)(3,1)",
    "rule B skewer 1 window 2: 3 black at (1,2)(2,1)(3,2)",
]


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def unsat_board(tmp_path):
    path = tmp_path / "unsat.odg"
    path.write_text("rows 1\ncols 3\n"
                    "circle 1 1 1\ncircle 1 2 1\ncircle 1 3 1\n")
    return str(path)


def test_validate_reports_shape(capsys):
    code, out, err = run(capsys, "validate", SAMPLE)
    assert code == 0
    assert out == "OK rows=4 cols=4 circles=13 skewers=4\n"
    assert err == ""


def test_validate_exit_codes_split_by_diagnostic_kind(capsys, tmp_path):
    broken = tmp_path / "broken.odg"
    broken.write_text("rows 2\ncols 2\ncircle 1 1 5\n")
    code, out, err = run(capsys, "validate", str(broken))
    assert code == 1
    assert out == ""
    assert f"{broken}:3:0: clue 5 at (1, 1) exceeds skewer size 1\n" == err

    garbled = tmp_path / "garbled.odg"
    garbled.write_text("cols 2\nrows 2\n")
    code, out, err = run(capsys, "validate", str(garbled))
    assert code == 2
    assert "expected `rows <count>` header" in err

    code, _, err = run(capsys, "validate", str(tmp_path / "absent.odg"))
    assert code == 2
    assert "cannot read" in err


def test_cli_prints_the_first_twenty_diagnostics(capsys, tmp_path):
    noisy = tmp_path / "noisy.odg"
    noisy.write_text("rows 2\ncols 2\n" + "bogus 1\n" * 25)
    code, out, err = run(capsys, "validate", str(noisy))
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        *(f"{noisy}:{line}:1: unknown directive `bogus`"
          for line in range(3, 23)),
        f"{noisy}: (+5 more)"]


def test_check_clean_solution(capsys):
    code, out, err = run(capsys, "check", SAMPLE,
                         str(FIXTURES / "sample4x4.sol"))
    assert (code, out, err) == (0, "", "")


def test_check_lists_violations_in_rule_order(capsys):
    code, out, _ = run(capsys, "check", SAMPLE,
                       str(FIXTURES / "sample4x4-wrong-counts.sol"))
    assert code == 1
    assert out.splitlines() == CHECK_LINES
    # the files that CI compares the installed command's output against
    assert out == fixture_text("golden/sample4x4-wrong-counts.txt")
    code, out, _ = run(capsys, "check", SAMPLE,
                       str(FIXTURES / "sample4x4-wrong-triples.sol"))
    assert (code, out) == (
        1, fixture_text("golden/sample4x4-wrong-triples.txt"))
    # a reduced board: one broken pair skewer and one column window
    code, out, _ = run(capsys, "check",
                       str(FIXTURES / "golden" / "three-clauses.odg"),
                       str(FIXTURES / "three-clauses-broken.sol"))
    assert (code, out) == (
        1, fixture_text("golden/three-clauses-broken.txt"))


def test_check_rejects_malformed_grid(capsys, tmp_path):
    grid = tmp_path / "short.sol"
    grid.write_text("WBWB\n")
    code, out, err = run(capsys, "check", SAMPLE, str(grid))
    # a grid-line count is about the whole file: column 0
    assert (code, out, err) == (
        2, "", f"{grid}:1:0: expected 4 grid lines, found 1\n")


@pytest.mark.parametrize("command,name,text,diagnostic", [
    ("validate", "hdr.odg", "rows 2\n", "1:0: missing `cols` header"),
    ("reduce", "short.c13", "p 1in3 3 2\n1 2 3 0\n",
     "2:0: header promises 2 clauses, found 1"),
])
def test_whole_file_diagnostics_have_column_zero(capsys, tmp_path, command,
                                                 name, text, diagnostic):
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run(capsys, command, str(path))
    assert (code, out, err) == (2, "", f"{path}:{diagnostic}\n")


def test_solve_prints_first_solution(capsys):
    code, out, err = run(capsys, "solve", SAMPLE)
    assert (code, out, err) == (0, FIRST_GRID, "")


@pytest.mark.parametrize("name", ["two-clauses", "three-clauses"])
def test_solve_prints_the_golden_first_solution(capsys, name):
    # two-clauses has two solutions, so its file pins which one comes first
    golden = FIXTURES / "golden"
    code, out, err = run(capsys, "solve", str(golden / f"{name}.odg"))
    assert (code, out, err) == (0, fixture_text(f"golden/{name}.sol"), "")


def test_solve_output_feeds_check(capsys, tmp_path):
    _, out, _ = run(capsys, "solve", SAMPLE)
    produced = tmp_path / "found.sol"
    produced.write_text(out)
    code, out, err = run(capsys, "check", SAMPLE, str(produced))
    assert (code, out, err) == (0, "", "")


def test_solve_unsat(capsys, tmp_path):
    code, out, _ = run(capsys, "solve", unsat_board(tmp_path))
    assert (code, out) == (1, "UNSAT\n")


def test_solve_count(capsys, tmp_path):
    code, out, _ = run(capsys, "solve", SAMPLE, "--count")
    assert (code, out) == (0, "4\n")
    code, out, _ = run(capsys, "solve", SAMPLE, "--count", "--limit", "2")
    assert (code, out) == (0, ">=2\n")
    code, out, _ = run(capsys, "solve", unsat_board(tmp_path), "--count")
    assert (code, out) == (1, "0\n")


def test_grid_commands_refuse_huge_headers_before_searching(capsys, tmp_path):
    path = tmp_path / "wide.odg"
    path.write_text("rows 200000\ncols 200000\ncircle 1 1\n")
    limit = ("a 200000 x 200000 grid exceeds the .sol limit "
             "of 10000000 cells\n")
    for argv in (["solve", str(path)], ["solve", str(path), "--all"],
                 ["another", str(path), str(tmp_path / "absent.sol")]):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (2, "", limit)
    code, out, err = run(capsys, "solve", str(path), "--count")
    assert (code, out, err) == (0, "2\n", "")


def test_solve_all(capsys, tmp_path):
    board = textio.parse_board(fixture_text("sample4x4.odg"))
    grids = [textio.write_coloring(c, board)
             for c in solver.enumerate(board, cap=10).solutions]
    code, out, err = run(capsys, "solve", SAMPLE, "--all")
    assert code == 0
    assert out == "\n".join(grids)
    assert err == ""
    assert out.count("\n\n") == 3

    code, out, err = run(capsys, "solve", SAMPLE, "--all", "--limit", "2")
    assert code == 0
    assert out == "\n".join(grids[:2])
    assert err == "stopped at --limit 2\n"

    code, out, _ = run(capsys, "solve", unsat_board(tmp_path), "--all")
    assert (code, out) == (1, "UNSAT\n")


def test_solve_usage_errors(capsys):
    for mode in (["--count"], ["--all"], []):
        code, out, err = run(capsys, "solve", SAMPLE, "--limit", "0", *mode)
        assert (code, out, err) == (2, "", "--limit must be at least 1\n")
    code, _, err = run(capsys, "solve", SAMPLE, "--all", "--count")
    assert code == 2
    assert "not allowed with" in err


def test_another_finds_and_exhausts(capsys):
    code, out, _ = run(capsys, "another", PAIR,
                       str(FIXTURES / "pairblock-first.sol"))
    assert code == 0
    assert out == fixture_text("pairblock-second.sol")

    code, out, _ = run(capsys, "another", PAIR,
                       str(FIXTURES / "pairblock-first.sol"),
                       str(FIXTURES / "pairblock-second.sol"))
    assert (code, out) == (1, "NONE\n")


def test_another_rejects_non_solution(capsys, tmp_path):
    bogus = tmp_path / "bogus.sol"
    bogus.write_text("BBB\nBBB\n")
    code, out, err = run(capsys, "another", PAIR, str(bogus))
    assert code == 2
    assert out == ""
    assert "not a solution" in err


def test_lp_export(capsys, tmp_path):
    board = textio.parse_board(fixture_text("pairblock.odg"))
    expected = ilp.export_lp(ilp.build_model(board))
    code, out, _ = run(capsys, "lp", PAIR)
    assert (code, out) == (0, expected)

    target = tmp_path / "model.lp"
    code, out, _ = run(capsys, "lp", PAIR, "-o", str(target))
    assert (code, out) == (0, "")
    assert target.read_text() == expected


def test_reduce_writes_board_and_map(capsys, tmp_path):
    board_path = tmp_path / "reduced.odg"
    map_path = tmp_path / "cells.map"
    code, out, err = run(capsys, "reduce", CNF, "-o", str(board_path),
                         "--map", str(map_path))
    assert (code, out, err) == (0, "", "")
    board = textio.parse_board(board_path.read_text())
    assert (board.rows, board.cols, len(board.circles)) == (14, 17, 97)
    assert map_path.read_text().splitlines()[0] == "literal 1 1 1 2"
    assert map_path.read_text().splitlines()[-1] == "readout 4 3 15"

    code, out, _ = run(capsys, "reduce", CNF)
    assert code == 0
    assert textio.parse_board(out) == board


def test_reduce_then_solve_round_trip(capsys, tmp_path):
    board_path = tmp_path / "reduced.odg"
    run(capsys, "reduce", CNF, "-o", str(board_path))
    code, out, _ = run(capsys, "solve", str(board_path), "--count")
    assert (code, out) == (0, "1\n")


def test_reduce_rejects_unused_variable(capsys, tmp_path):
    cnf = tmp_path / "gap.c13"
    cnf.write_text("p 1in3 4 1\n1 2 3 0\n")
    code, _, err = run(capsys, "reduce", str(cnf))
    assert code == 2
    assert "in no clause" in err


def test_verify_reduction_pass_line(capsys):
    code, out, err = run(capsys, "verify-reduction", CNF)
    assert (code, out, err) == (0, "PASS puzzle=1 assignments=1\n", "")


def test_verify_reduction_fail_line(capsys, monkeypatch):
    code, out, err = run(capsys, "verify-reduction", TWO_CNF)
    assert (code, out, err) == (0, "PASS puzzle=2 assignments=2\n", "")
    # a board missing the guard circle under the negative column of x1
    reduce_without(monkeypatch, (2, 3))
    code, out, err = run(capsys, "verify-reduction", TWO_CNF)
    assert (code, out) == (1, "FAIL puzzle=1 assignments=2\n")
    assert err.splitlines() == [
        "board has 1 solutions, instance accepts 2 assignments",
        "assignment (0, 0, 1, 0) encodes to a non-solution"]


def test_verify_reduction_fail_line_marks_a_capped_count(capsys,
                                                        monkeypatch):
    # without this clause-row circle the board has 4 solutions, and the
    # enumeration stops at 3, one past the 2 accepted assignments
    reduce_without(monkeypatch, (1, 6))
    code, out, err = run(capsys, "verify-reduction", TWO_CNF)
    assert (code, out) == (1, "FAIL puzzle=>=3 assignments=2\n")
    assert err.splitlines()[0] \
        == "board has >=3 solutions, instance accepts 2 assignments"


def test_verify_reduction_rejects_large_instances(capsys, tmp_path):
    cnf = tmp_path / "wide.c13"
    cnf.write_text("p 1in3 7 3\n1 2 3 0\n4 5 6 0\n5 6 7 0\n")
    code, _, err = run(capsys, "verify-reduction", str(cnf))
    assert code == 2
    assert "limited" in err


def test_time_flag_goes_to_stderr(capsys):
    code, out, err = run(capsys, "validate", SAMPLE, "--time")
    assert code == 0
    assert out.startswith("OK ")
    assert err.startswith("time_ms=")


def test_usage_errors_exit_two(capsys):
    assert run(capsys, *[])[0] == 2
    assert run(capsys, "solve")[0] == 2
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "solve", SAMPLE, "--limit", "abc")[0] == 2


@pytest.mark.parametrize("clause,column,message", [
    ("1 2 4 0", 5, "literal 4 exceeds the 3 declared variables"),
    ("1 0 2 0", 3, "zero literal"),
    ("3  -3 2 0", 1, "three distinct variables"),
])
@pytest.mark.parametrize("command", ["reduce", "verify-reduction"])
def test_bad_clause_exits_two_at_the_offending_literal(capsys, tmp_path,
                                                       command, clause,
                                                       column, message):
    cnf = tmp_path / "bad.c13"
    cnf.write_text(f"p 1in3 3 2\n1 2 3 0\n# note\n{clause}\n")
    code, out, err = run(capsys, command, str(cnf))
    assert (code, out) == (2, "")
    assert err.startswith(f"{cnf}:4:{column}: ")
    assert message in err and err.count("\n") == 1


def test_writes_into_a_missing_directory_exit_two(capsys, tmp_path):
    missing = tmp_path / "absent" / "out.txt"
    code, _, err = run(capsys, "lp", PAIR, "-o", str(missing))
    assert code == 2
    assert err.startswith(f"cannot write {missing}: ")
    code, _, err = run(capsys, "reduce", CNF, "--map", str(missing))
    assert code == 2
    assert err.startswith(f"cannot write {missing}: ")
    assert not missing.parent.exists()


def test_reduce_writes_no_board_when_the_map_cannot_be_written(capsys,
                                                               tmp_path):
    board_path = tmp_path / "board.odg"
    missing = tmp_path / "missing" / "x.map"
    code, out, err = run(capsys, "reduce", CNF, "-o", str(board_path),
                         "--map", str(missing))
    assert code == 2
    assert out == ""
    assert err.startswith(f"cannot write {missing}: ")
    assert not board_path.exists()

    board_path.write_text("kept\n")
    code, _, _ = run(capsys, "reduce", CNF, "-o", str(board_path),
                     "--map", str(missing))
    assert code == 2
    assert board_path.read_text() == "kept\n"

    code, out, _ = run(capsys, "reduce", CNF, "--map", str(missing))
    assert (code, out) == (2, "")


@pytest.mark.skipif(not Path("/dev/full").exists(),
                    reason="needs the /dev/full device")
def test_reduce_removes_its_board_when_the_map_write_fails(capsys, tmp_path):
    # /dev/full opens, but every write to it fails with ENOSPC
    board_path = tmp_path / "out.odg"
    code, out, err = run(capsys, "reduce", CNF, "-o", str(board_path),
                         "--map", "/dev/full")
    assert (code, out) == (2, "")
    assert err.startswith("cannot write /dev/full: ")
    assert not board_path.exists()

    code, out, _ = run(capsys, "reduce", CNF, "--map", "/dev/full")
    assert (code, out) == (2, "")


def test_one_path_cannot_take_two_outputs(capsys, tmp_path):
    target = tmp_path / "out"
    same = tmp_path / "sub" / ".." / "out"
    (tmp_path / "sub").mkdir()
    for board, cells in ((target, target), (target, same)):
        code, out, err = run(capsys, "reduce", CNF, "-o", str(board),
                             "--map", str(cells))
        assert (code, out) == (2, "")
        assert err == (f"cannot write {cells}: one path cannot take two "
                       "outputs\n")
        assert not target.exists()

    target.write_text("kept\n")
    code, _, _ = run(capsys, "reduce", CNF, "-o", str(target),
                     "--map", str(target))
    assert code == 2
    assert target.read_text() == "kept\n"


BASE_MODULES = ["oredango", "oredango.cli", "oredango.core",
                "oredango.solver", "oredango.textio"]

IMPORT_PROBE = """
import contextlib, io, sys
start = set(sys.modules)

def loaded():
    print(*sorted(k for k in sys.modules if k.partition(".")[0] == "oredango"))
    # `dataclasses` and the standard modules it loads
    print(*(m for m in ("ast", "dataclasses", "dis", "inspect")
            if m in sys.modules and m not in start))

import oredango.cli as cli
loaded()
for argv in (["lp", {sample!r}], ["reduce", {cnf!r}],
             ["solve", "--count", "--limit", "2", {sample!r}]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    print(code)
    loaded()
"""


def test_commands_import_only_the_modules_they_run():
    proc = fresh_python("-c", IMPORT_PROBE.format(sample=SAMPLE, cnf=CNF))
    assert proc.returncode == 0, proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()]
    after_lp = sorted(BASE_MODULES + ["oredango.ilp"])
    after_reduce = sorted(after_lp + ["oredango.reduction"])
    assert lines == [BASE_MODULES, [], ["0"], after_lp, [],
                     ["0"], after_reduce, [], ["0"], after_reduce, []]


def library_output(command: str) -> str:
    """What `lp PAIR` or `reduce CNF` prints, computed in this process."""
    if command == "lp":
        board = textio.parse_board(fixture_text("pairblock.odg"))
        return ilp.export_lp(ilp.build_model(board))
    instance = textio.parse_one_in_three(fixture_text("three-clauses.c13"))
    return textio.write_board(reduction.reduce(instance).board)


@pytest.mark.parametrize("argv,code,out,err", [
    (["validate", SAMPLE], 0, "OK rows=4 cols=4 circles=13 skewers=4\n", ""),
    (["check", SAMPLE, str(FIXTURES / "sample4x4-wrong-counts.sol")], 1,
     "".join(line + "\n" for line in CHECK_LINES), ""),
    (["solve", "--count", "--limit", "2", SAMPLE], 0, ">=2\n", ""),
    (["another", PAIR, str(FIXTURES / "pairblock-first.sol")], 0,
     fixture_text("pairblock-second.sol"), ""),
    (["lp", PAIR], 0, None, ""),
    (["reduce", CNF], 0, None, ""),
    (["verify-reduction", CNF], 0, "PASS puzzle=1 assignments=1\n", ""),
    (["reduce", "gap.c13"], 2, "", "variables in no clause: [4]\n"),
    (["verify-reduction", "wide.c13"], 2, "",
     "verification is exhaustive; limited to 6 variables and 5 clauses\n"),
], ids=["validate", "check", "solve-count", "another", "lp", "reduce",
        "verify-reduction", "reduce-unused-variable",
        "verify-reduction-7-variables"])
def test_cold_cli_runs_print_what_the_commands_always_printed(
        tmp_path, monkeypatch, argv, code, out, err):
    (tmp_path / "gap.c13").write_text("p 1in3 4 1\n1 2 3 0\n")
    (tmp_path / "wide.c13").write_text(
        "p 1in3 7 3\n1 2 3 0\n4 5 6 0\n5 6 7 0\n")
    monkeypatch.chdir(tmp_path)
    proc = fresh_python("-m", "oredango.cli", *argv)
    if out is None:
        out = library_output(argv[0])
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
