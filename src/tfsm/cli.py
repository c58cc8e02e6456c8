"""The ``tfsm`` command line tool.

Subcommands operate on machine files (see :mod:`tfsm.formats`) and follow a
uniform exit-code convention: 0 for success or a positive decision, 1 for a
negative decision (a rejected word, inequivalent machines), 2 for anything
that prevented a decision (unreadable files, syntax errors, invalid
machines, mismatched machine kinds).
"""

import argparse
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

from .abstraction import abstract
from .core import TimedWord, validate_fsm, validate_tfsm
from .export import export_dot, export_timed_automaton
from .formats import MachineDocument, parse_document, serialize
from .fsm_algebra import equivalent, minimize, product
from .pipelines import tfsm_equivalent, tfsm_intersect
from .refinement import refine
from .semantics import run


_KIND_NAMES = {"tfsm": "a timed machine", "fsm": "an untimed machine"}


class _Invalid(Exception):
    """A machine broke its invariants; the violations are printed and the command exits 2."""


def _load(path: str, needs: str | None = None, command: str = "") -> MachineDocument:
    """Parse a machine file; with ``needs`` set, refuse a machine of the other kind, then validate it."""
    doc = parse_document(Path(path).read_text())
    if needs is not None:
        if doc.kind != needs:
            raise ValueError(f"{path}: {command} needs {_KIND_NAMES[needs]}")
        _require_valid(doc, path)
    return doc


def _require_valid(doc: MachineDocument, path: str) -> None:
    """Print each violation of the machine to stderr; if there is one, end the command with exit 2."""
    problems = validate_tfsm(doc.body) if doc.kind == "tfsm" else validate_fsm(doc.body)
    for problem in problems:
        print(f"{path}: {problem}", file=sys.stderr)
    if problems:
        raise _Invalid


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text)


def _parse_word(text: str) -> TimedWord:
    """Parse a word like ``i@0 j@3/2``: SYMBOL@TIME entries, times rational."""
    entries = []
    for token in text.split():
        symbol, sep, stamp = token.rpartition("@")
        if not sep or not symbol:
            raise ValueError(f"malformed word entry {token!r}: expected SYMBOL@TIME, like i@3/2")
        try:
            entries.append((symbol, Fraction(stamp)))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"malformed timestamp {stamp!r} in {token!r}") from None
    return TimedWord(tuple(entries))


def _cmd_validate(args) -> int:
    _require_valid(_load(args.file), args.file)
    print("ok")
    return 0


def _cmd_simulate(args) -> int:
    doc = _load(args.file, "tfsm", "simulate")
    word = _parse_word(args.word)
    result = run(doc.body, word)
    consumed = word.entries[: len(result.outputs)]
    line = " ".join(f"({o}, {t})" for o, (_, t) in zip(result.outputs, consumed))
    if line:
        print(line)
    if result.accepted:
        return 0
    symbol, stamp = word[result.rejection_point]
    print(
        f"rejected at index {result.rejection_point}: "
        f"no transition for ({symbol}, {stamp}) in {result.final}"
    )
    return 1


def _cmd_abstract(args) -> int:
    doc = _load(args.file, "tfsm", "abstract")
    fsm = abstract(doc.body, keep_unreachable=args.full)
    _emit(serialize(fsm, name=f"{doc.name}_abstract"), args.output)
    return 0


def _cmd_refine(args) -> int:
    doc = _load(args.file, "fsm", "refine")
    machine = refine(doc.body, merge=not args.no_merge)
    _emit(serialize(machine, name=f"{doc.name}_refined"), args.output)
    return 0


def _cmd_minimize(args) -> int:
    doc = _load(args.file, "fsm", "minimize")
    _emit(serialize(minimize(doc.body), name=f"{doc.name}_min"), args.output)
    return 0


def _load_pair(args, verb: str) -> tuple[MachineDocument, MachineDocument]:
    """Load both files, refuse mixed kinds, then validate the first and only then the second."""
    a, b = _load(args.file1), _load(args.file2)
    if a.kind != b.kind:
        raise ValueError(f"cannot {verb} a timed machine with an untimed machine")
    _require_valid(a, args.file1)
    _require_valid(b, args.file2)
    return a, b


def _cmd_intersect(args) -> int:
    a, b = _load_pair(args, "intersect")
    meet = (tfsm_intersect if a.kind == "tfsm" else product)(a.body, b.body)
    _emit(serialize(meet, name=f"{a.name}_meet_{b.name}"), args.output)
    return 0


def _cmd_equiv(args) -> int:
    a, b = _load_pair(args, "compare")
    verdict = (tfsm_equivalent if a.kind == "tfsm" else equivalent)(a.body, b.body)
    if verdict.equivalent:
        print("equivalent")
        return 0
    cx = verdict.counterexample
    word, detail = (cx, verdict.detail) if a.kind == "tfsm" else (" ".join(cx.word), cx.detail)
    print(f"not equivalent\ncounterexample: {word}\n{detail}")
    return 1


def _cmd_export_dot(args) -> int:
    doc = _load(args.file)
    _emit(export_dot(doc.body, name=doc.name), args.output)
    return 0


def _cmd_export_ta(args) -> int:
    doc = _load(args.file, "tfsm", "export-ta")
    _emit(export_timed_automaton(doc.body, name=doc.name), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tfsm",
        description="Work with deterministic single-clock timed finite state machines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a machine file for structural problems")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("simulate", help="run a timed word on a timed machine")
    p.add_argument("file")
    p.add_argument("--word", required=True, help='timed word, e.g. "i@0 i@3/2"')
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("abstract", help="build the tick Mealy machine of a timed machine")
    p.add_argument("file")
    p.add_argument("-o", "--output", help="write to this file instead of stdout")
    p.add_argument("--full", action="store_true", help="keep unreachable (state, interval) pairs")
    p.set_defaults(handler=_cmd_abstract)

    p = sub.add_parser("refine", help="rebuild a timed machine from a tick Mealy machine")
    p.add_argument("file")
    p.add_argument("-o", "--output", help="write to this file instead of stdout")
    p.add_argument("--no-merge", action="store_true", help="keep guards as the delay walk found them")
    p.set_defaults(handler=_cmd_refine)

    p = sub.add_parser("minimize", help="minimize an untimed machine")
    p.add_argument("file")
    p.add_argument("-o", "--output", help="write to this file instead of stdout")
    p.set_defaults(handler=_cmd_minimize)

    p = sub.add_parser("intersect", help="machine realizing the behavior common to two machines")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("-o", "--output", help="write to this file instead of stdout")
    p.set_defaults(handler=_cmd_intersect)

    p = sub.add_parser("equiv", help="decide behavioral equivalence of two machines")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(handler=_cmd_equiv)

    p = sub.add_parser("export-dot", help="render a machine as a Graphviz digraph")
    p.add_argument("file")
    p.add_argument("-o", "--output", help="write to this file instead of stdout")
    p.set_defaults(handler=_cmd_export_dot)

    p = sub.add_parser("export-ta", help="render a timed machine as a timed automaton")
    p.add_argument("file")
    p.add_argument("-o", "--output", help="write to this file instead of stdout")
    p.set_defaults(handler=_cmd_export_ta)

    return parser


_parser = cache(build_parser)  # built on the first call of main, not at import


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _Invalid:
        return 2


def entry() -> None:
    sys.exit(main())
