"""Command-line front end.

Subcommands: validate, check, solve, another, lp, reduce, and
verify-reduction.  Results go to stdout (or the file named by `-o`);
diagnostics and progress notes go to stderr.  Exit codes: 0 for success,
a found solution, or a passed verification; 1 for unsatisfiable boards,
rule violations, exhausted solution sets, or failed verification; 2 for
unusable input or bad usage.

The board commands run on `core`, `solver` and `textio` alone; `lp` and
the two reduction commands import `ilp` or `reduction` when they run, so
a cold board command neither compiles nor executes those modules.  No
command imports `dataclasses` (and with it `inspect`, `ast` and `dis`),
and no class is made by generating its methods at import.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import core, solver, textio


class _Fail(Exception):
    def __init__(self, code: int, *messages: str):
        super().__init__(messages[0] if messages else "")
        self.code = code
        self.messages = messages


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as err:
        raise _Fail(2, f"cannot read {path}: {err}") from err


def _load(parse, path: str, *context):
    """Parse the file at `path`; a structural ParseError exits 1, any
    other unusable text exits 2.  The diagnostics the error holds (the
    reader keeps the first `textio.MAX_DIAGNOSTICS`) print as
    FILE:LINE:COL, then one line `FILE: (+K more)` counts the rest."""
    try:
        return parse(_read(path), *context)
    except textio.ParseError as err:
        lines = [f"{path}:{d.line}:{d.column}: {d.message}"
                 for d in err.diagnostics]
        if err.more:
            lines.append(f"{path}: (+{err.more} more)")
        raise _Fail(1 if err.structural else 2, *lines) from err


def _emit(*outputs: tuple[str, str | None]) -> None:
    """Write each (text, path) pair, to stdout where the path is None.

    Two paths that resolve to one file exit 2 before anything is touched.
    Every path is opened before any text is written, in append mode, which
    creates a missing file and changes no existing one, and every file is
    written before stdout.  When one cannot be opened or written, the files
    this call created are removed again, so a run that exits 2 leaves none
    of its outputs behind and prints nothing.  A file that existed before
    the run is not restored: one written before the failure keeps its new
    text, and the one whose write failed may be left empty or cut short.
    """
    named: set[Path] = set()
    for _, output in outputs:
        if output is not None:
            target = Path(output).resolve()
            if target in named:
                raise _Fail(2, f"cannot write {output}: one path cannot "
                               "take two outputs")
            named.add(target)
    files = [(text, output) for text, output in outputs if output is not None]
    created: list[Path] = []
    try:
        for _, output in files:
            path = Path(output)
            existed = path.exists()
            path.open("a").close()
            if not existed:
                created.append(path)
        for text, output in files:
            Path(output).write_text(text)
    except OSError as err:
        for made in created:
            made.unlink(missing_ok=True)
        raise _Fail(2, f"cannot write {output}: {err}") from err
    for text, output in outputs:
        if output is None:
            sys.stdout.write(text)


def _check_grid(board: core.Board) -> None:
    try:
        textio.check_grid_size(board)
    except core.ColoringError as err:
        raise _Fail(2, str(err)) from err


def _cmd_validate(args: argparse.Namespace) -> int:
    board = _load(textio.parse_board, args.board)
    print(f"OK rows={board.rows} cols={board.cols} "
          f"circles={len(board.circles)} skewers={len(board.skewers)}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    board = _load(textio.parse_board, args.board)
    coloring = _load(textio.parse_coloring, args.solution, board)
    report = core.check_coloring(board, coloring)
    for violation in report:
        print(violation.describe())
    return 0 if report.ok else 1


def _cmd_solve(args: argparse.Namespace) -> int:
    board = _load(textio.parse_board, args.board)
    if not args.count:
        _check_grid(board)
    if args.limit < 1:
        raise _Fail(2, "--limit must be at least 1")
    if not (args.count or args.all):
        outcome = solver.solve(board)
    else:
        outcome = solver.enumerate(board, args.limit)
    capped = outcome.status is solver.SolveStatus.CAP_REACHED
    if args.count:
        print(solver.count_text(len(outcome.solutions), capped))
        return 0 if outcome.solutions else 1
    if capped:
        print(f"stopped at --limit {args.limit}", file=sys.stderr)
    if not outcome.solutions:
        print("UNSAT")
        return 1
    sys.stdout.write("\n".join(textio.write_coloring(c, board)
                               for c in outcome.solutions))
    return 0


def _cmd_another(args: argparse.Namespace) -> int:
    board = _load(textio.parse_board, args.board)
    _check_grid(board)
    known = [_load(textio.parse_coloring, path, board)
             for path in args.solutions]
    try:
        extra = solver.another_solution(board, known)
    except ValueError as err:
        raise _Fail(2, str(err)) from err
    if extra is None:
        print("NONE")
        return 1
    sys.stdout.write(textio.write_coloring(extra, board))
    return 0


def _cmd_lp(args: argparse.Namespace) -> int:
    from . import ilp

    board = _load(textio.parse_board, args.board)
    _emit((ilp.export_lp(ilp.build_model(board)), args.output))
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    from . import reduction

    try:
        reduced = reduction.reduce(_load(textio.parse_one_in_three, args.cnf))
    except reduction.ReductionError as err:
        raise _Fail(2, str(err)) from err
    outputs = [(textio.write_board(reduced.board), args.output)]
    if args.map:
        outputs.append((reduction.format_reduction_map(reduced), args.map))
    _emit(*outputs)
    return 0


def _cmd_verify_reduction(args: argparse.Namespace) -> int:
    from . import reduction

    try:
        result = reduction.verify_reduction(
            _load(textio.parse_one_in_three, args.cnf))
    except reduction.ReductionError as err:
        raise _Fail(2, str(err)) from err
    word = "PASS" if result.ok else "FAIL"
    print(f"{word} puzzle={result.puzzle_count} "
          f"assignments={result.assignments}")
    for problem in result.problems:
        print(problem, file=sys.stderr)
    return 0 if result.ok else 1


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--time", action="store_true",
                        help="report wall-clock milliseconds on stderr")

    parser = argparse.ArgumentParser(
        prog="oredango",
        description="Rule checker, solver, LP exporter, and 1-in-3 "
                    "satisfiability reducer for the Oredango puzzle.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="COMMAND")

    p = sub.add_parser("validate", parents=[common],
                       help="parse a board file and confirm its structure")
    p.add_argument("board")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("check", parents=[common],
                       help="list every rule violation of a coloring")
    p.add_argument("board")
    p.add_argument("solution")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("solve", parents=[common],
                       help="solve a board, or count/list its solutions")
    p.add_argument("board")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true",
                       help="print every solution up to --limit")
    group.add_argument("--count", action="store_true",
                       help="print the number of solutions up to --limit")
    p.add_argument("--limit", type=int, default=10000, metavar="K",
                   help="solution cap for --all/--count (default 10000)")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("another", parents=[common],
                       help="find a solution besides the given ones")
    p.add_argument("board")
    p.add_argument("solutions", nargs="+")
    p.set_defaults(handler=_cmd_another)

    p = sub.add_parser("lp", parents=[common],
                       help="export the board's 0-1 model as LP text")
    p.add_argument("board")
    p.add_argument("-o", "--output", metavar="PATH")
    p.set_defaults(handler=_cmd_lp)

    p = sub.add_parser("reduce", parents=[common],
                       help="translate a 1-in-3 instance into a board")
    p.add_argument("cnf")
    p.add_argument("-o", "--output", metavar="PATH")
    p.add_argument("--map", metavar="PATH",
                   help="also write the literal/readout cell map")
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("verify-reduction", parents=[common],
                       help="cross-check a small instance against its board")
    p.add_argument("cnf")
    p.set_defaults(handler=_cmd_verify_reduction)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    start = time.perf_counter()
    try:
        code = args.handler(args)
    except _Fail as fail:
        for line in fail.messages:
            print(line, file=sys.stderr)
        code = fail.code
    finally:
        if getattr(args, "time", False):
            elapsed = (time.perf_counter() - start) * 1000.0
            print(f"time_ms={elapsed:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
