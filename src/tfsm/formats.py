"""Plain-text machine files: parsing and canonical serialization.

Timed machines::

    tfsm handover            # comment to end of line
    inputs i
    outputs o1 o2
    states A B C
    initial A
    timeout A 2 -> C
    timeout B inf
    timeout C 1 -> A
    trans A i [0,1) / o1 -> B
    trans A i [1,2) / o2 -> A

Untimed machines use ``fsm`` as the leading keyword, have no timeout or
guard syntax, and write each move as an input/output pair::

    fsm blink_abstract
    inputs i @t
    outputs o1 @t
    states a,[0,0] a,(0,1)
    initial a,[0,0]
    trans a,[0,0] i/o1 -> a,[0,0]
    trans a,[0,0] @t/@t -> a,(0,1)

``@t`` is the tick.  It may appear in the alphabets of an untimed machine,
and nowhere in a timed one.  Guards take the forms ``[a,b] [a,b) (a,b]
(a,b) [a,inf) (a,inf)``.  Tokens are whitespace-separated, so state and
symbol names may use any other printable characters except ``#`` (comment)
and ``/`` in symbols.

Parse errors carry 1-based line and column positions.  Serialization is
canonical: states in declaration order, transitions sorted by source
position, input and guard, so parse/serialize round-trips are stable.
"""

import re
from dataclasses import dataclass

from .core import Guard, MealyMachine, TimedMachine, Timeout, Transition, TICK


class ParseError(ValueError):
    """A syntax error with its 1-based position in the source text."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class MachineDocument:
    """A parsed machine file: its kind (``tfsm`` or ``fsm``), name, and machine."""

    kind: str
    name: str
    body: TimedMachine | MealyMachine


_TOKEN_RE = re.compile(r"\S+")


class _Reader:
    """A document's non-empty lines as (lineno, [token, ...]), comments stripped.

    The text is split into lines and tokens once; each parser reads the
    lines from here.  A token's column is found only for an error.
    """

    def __init__(self, text: str):
        self.raw_lines = text.splitlines()
        self.lines = []
        for lineno, raw in enumerate(self.raw_lines, start=1):
            tokens = raw.split("#", 1)[0].split()
            if tokens:
                self.lines.append((lineno, tokens))
        self.pos = 0
        self.end_line = max(1, len(self.raw_lines))

    def column(self, lineno: int, k: int) -> int:
        """The 1-based column of the ``k``-th token on line ``lineno``."""
        matches = _TOKEN_RE.finditer(self.raw_lines[lineno - 1].split("#", 1)[0])
        return [m.start() + 1 for m in matches][k]

    def error(self, message: str, lineno: int, k: int = 0) -> ParseError:
        """An error located at the ``k``-th token of line ``lineno``."""
        return ParseError(message, lineno, self.column(lineno, k))

    def peek(self):
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def take(self, keyword: str):
        entry = self.peek()
        if entry is None:
            raise ParseError(f"unexpected end of file: expected a {keyword!r} line", self.end_line, 1)
        lineno, tokens = entry
        if tokens[0] != keyword:
            raise self.error(f"expected {keyword!r}, found {tokens[0]!r}", lineno)
        self.pos += 1
        return lineno, tokens


def _usage(reader, tokens, lineno, expected_len, usage):
    if len(tokens) != expected_len:
        raise reader.error(f"usage: {usage}", lineno)


def _symbols(reader, tokens, lineno, *, forbid_tick):
    if forbid_tick and TICK in tokens[1:]:
        raise reader.error(f"the tick symbol {TICK!r} is reserved here", lineno, tokens.index(TICK, 1))
    return tuple(tokens[1:])


_GUARD_RE = re.compile(r"^([\[\(])(\d+),(\d+|inf)([\]\)])$")


def _parse_guard(reader, token: str, lineno: int, k: int) -> Guard:
    m = _GUARD_RE.match(token)
    if m is None:
        raise reader.error(
            f"malformed guard {token!r}: expected forms like [0,2), (1,3] or (2,inf)",
            lineno, k,
        )
    left, low, high, right = m.groups()
    upper = None if high == "inf" else int(high)
    if upper is None and right == "]":
        raise reader.error("a guard unbounded above must close with ')'", lineno, k)
    try:
        return Guard(int(low), upper, left == "[", right == "]")
    except ValueError as exc:
        raise reader.error(str(exc), lineno, k) from exc


def _parse_header(reader: _Reader, kind: str, tick_in_alphabets: bool):
    lineno, tokens = reader.take(kind)
    _usage(reader, tokens, lineno, 2, f"{kind} NAME")
    name = tokens[1]
    lineno, tokens = reader.take("inputs")
    inputs = _symbols(reader, tokens, lineno, forbid_tick=not tick_in_alphabets)
    lineno, tokens = reader.take("outputs")
    outputs = _symbols(reader, tokens, lineno, forbid_tick=not tick_in_alphabets)
    lineno, tokens = reader.take("states")
    states = _symbols(reader, tokens, lineno, forbid_tick=True)
    lineno, tokens = reader.take("initial")
    _usage(reader, tokens, lineno, 2, "initial STATE")
    return name, inputs, outputs, states, tokens[1]


def parse_tfsm(text: str) -> MachineDocument:
    """Parse a ``tfsm`` document; raises :class:`ParseError` on bad syntax."""
    return _parse_tfsm(_Reader(text))


def _parse_tfsm(reader: _Reader) -> MachineDocument:
    name, inputs, outputs, states, initial = _parse_header(reader, "tfsm", tick_in_alphabets=False)
    timeouts: dict[str, Timeout] = {}
    transitions: list[Transition] = []
    for lineno, tokens in reader.lines[reader.pos:]:
        keyword = tokens[0]
        if keyword == "timeout":
            if len(tokens) == 3 and tokens[2] == "inf":
                state, timeout = tokens[1], Timeout(None)
            elif len(tokens) == 5 and tokens[3] == "->":
                state = tokens[1]
                try:
                    bound = int(tokens[2])
                except ValueError:
                    raise reader.error(
                        f"timeout bound must be a positive integer or 'inf', got {tokens[2]!r}",
                        lineno, 2,
                    ) from None
                try:
                    timeout = Timeout(bound, tokens[4])
                except ValueError as exc:
                    raise reader.error(str(exc), lineno, 2) from exc
            else:
                raise reader.error("usage: timeout STATE inf | timeout STATE BOUND -> STATE", lineno)
            if state in timeouts:
                raise reader.error(f"timeout for state {state} declared twice", lineno, 1)
            timeouts[state] = timeout
        elif keyword == "trans":
            _usage(reader, tokens, lineno, 8, "trans SOURCE INPUT GUARD / OUTPUT -> TARGET")
            if tokens[4] != "/":
                raise reader.error(f"expected '/', found {tokens[4]!r}", lineno, 4)
            if tokens[6] != "->":
                raise reader.error(f"expected '->', found {tokens[6]!r}", lineno, 6)
            for k in (2, 5):
                if tokens[k] == TICK:
                    raise reader.error(f"the tick symbol {TICK!r} is reserved here", lineno, k)
            guard = _parse_guard(reader, tokens[3], lineno, 3)
            transitions.append(Transition(tokens[1], tokens[2], guard, tokens[5], tokens[7]))
        else:
            raise reader.error(f"expected 'timeout' or 'trans', found {keyword!r}", lineno)
    machine = TimedMachine(states, inputs, outputs, initial, tuple(transitions), timeouts)
    return MachineDocument("tfsm", name, machine)


def parse_fsm(text: str) -> MachineDocument:
    """Parse an ``fsm`` document; raises :class:`ParseError` on bad syntax."""
    return _parse_fsm(_Reader(text))


def _parse_fsm(reader: _Reader) -> MachineDocument:
    name, inputs, outputs, states, initial = _parse_header(reader, "fsm", tick_in_alphabets=True)
    transitions: dict[tuple[str, str], tuple[str, str]] = {}
    for lineno, tokens in reader.lines[reader.pos:]:
        if tokens[0] != "trans":
            raise reader.error(f"expected 'trans', found {tokens[0]!r}", lineno)
        _usage(reader, tokens, lineno, 5, "trans SOURCE INPUT/OUTPUT -> TARGET")
        if tokens[3] != "->":
            raise reader.error(f"expected '->', found {tokens[3]!r}", lineno, 3)
        pair = tokens[2].split("/")
        if len(pair) != 2 or not pair[0] or not pair[1]:
            raise reader.error(f"expected an input/output pair like i/o1, found {tokens[2]!r}", lineno, 2)
        key = (tokens[1], pair[0])
        if key in transitions:
            raise reader.error(f"transition for state {key[0]} on input {key[1]} declared twice", lineno, 1)
        transitions[key] = (pair[1], tokens[4])
    machine = MealyMachine(states, inputs, outputs, initial, transitions)
    return MachineDocument("fsm", name, machine)


def parse_document(text: str) -> MachineDocument:
    """Parse either kind of machine file, dispatching on the leading keyword."""
    reader = _Reader(text)
    first = reader.peek()
    if first is None:
        raise ParseError("empty document: expected 'tfsm' or 'fsm'", 1, 1)
    lineno, tokens = first
    keyword = tokens[0]
    if keyword == "tfsm":
        return _parse_tfsm(reader)
    if keyword == "fsm":
        return _parse_fsm(reader)
    raise reader.error(f"expected 'tfsm' or 'fsm', found {keyword!r}", lineno)


def serialize(machine: TimedMachine | MealyMachine, name: str = "machine") -> str:
    """Render a machine in its canonical file form (ends with a newline)."""
    if isinstance(machine, TimedMachine):
        return _serialize_tfsm(machine, name)
    if isinstance(machine, MealyMachine):
        return _serialize_fsm(machine, name)
    raise TypeError(f"cannot serialize {type(machine).__name__}")


def _header(kind: str, machine: TimedMachine | MealyMachine, name: str) -> list[str]:
    return [
        f"{kind} {name}",
        "inputs " + " ".join(machine.inputs),
        "outputs " + " ".join(machine.outputs),
        "states " + " ".join(machine.states),
        f"initial {machine.initial}",
    ]


def _serialize_tfsm(machine: TimedMachine, name: str) -> str:
    lines = _header("tfsm", machine, name)
    for s in machine.states:
        timeout = machine.timeouts.get(s)
        if timeout is None:
            continue
        if timeout.bound is None:
            lines.append(f"timeout {s} inf")
        else:
            lines.append(f"timeout {s} {timeout.bound} -> {timeout.target}")
    for t in machine.transitions:
        lines.append(f"trans {t.source} {t.input} {t.guard} / {t.output} -> {t.target}")
    return "\n".join(lines) + "\n"


def _serialize_fsm(machine: MealyMachine, name: str) -> str:
    lines = _header("fsm", machine, name)
    for (source, i), (o, target) in machine.ordered_transitions():
        lines.append(f"trans {source} {i}/{o} -> {target}")
    return "\n".join(lines) + "\n"
