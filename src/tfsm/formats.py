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

from .core import (
    Guard,
    MealyMachine,
    TimedMachine,
    Timeout,
    Transition,
    TICK,
)


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
    """A document's non-empty lines as (lineno, [(token, column), ...]), comments stripped.

    The text is tokenized once; each parser reads the lines from here.
    """

    def __init__(self, text: str):
        raw_lines = text.splitlines()
        self.lines = []
        for lineno, raw in enumerate(raw_lines, start=1):
            tokens = [(m.group(), m.start() + 1) for m in _TOKEN_RE.finditer(raw.split("#", 1)[0])]
            if tokens:
                self.lines.append((lineno, tokens))
        self.pos = 0
        self.end_line = max(1, len(raw_lines))

    def peek(self):
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def take(self, keyword: str):
        entry = self.peek()
        if entry is None:
            raise ParseError(f"unexpected end of file: expected a {keyword!r} line", self.end_line, 1)
        lineno, tokens = entry
        if tokens[0][0] != keyword:
            raise ParseError(f"expected {keyword!r}, found {tokens[0][0]!r}", lineno, tokens[0][1])
        self.pos += 1
        return lineno, tokens


def _usage(tokens, lineno, expected_len, usage):
    if len(tokens) != expected_len:
        raise ParseError(f"usage: {usage}", lineno, tokens[0][1])


def _single(tokens, lineno, usage):
    _usage(tokens, lineno, 2, usage)
    return tokens[1][0]


def _symbols(tokens, *, forbid_tick, lineno):
    out = []
    for text, col in tokens[1:]:
        if forbid_tick and text == TICK:
            raise ParseError(f"the tick symbol {TICK!r} is reserved here", lineno, col)
        out.append(text)
    return tuple(out)


_GUARD_RE = re.compile(r"^([\[\(])(\d+),(\d+|inf)([\]\)])$")


def _parse_guard(token: str, lineno: int, col: int) -> Guard:
    m = _GUARD_RE.match(token)
    if m is None:
        raise ParseError(
            f"malformed guard {token!r}: expected forms like [0,2), (1,3] or (2,inf)",
            lineno, col,
        )
    left, low, high, right = m.groups()
    upper = None if high == "inf" else int(high)
    if upper is None and right == "]":
        raise ParseError("a guard unbounded above must close with ')'", lineno, col)
    try:
        return Guard(int(low), upper, left == "[", right == "]")
    except ValueError as exc:
        raise ParseError(str(exc), lineno, col) from exc


def _parse_header(reader: _Reader, kind: str, tick_in_alphabets: bool):
    _, tokens = reader.take(kind)
    name = _single(tokens, tokens[0][1], f"{kind} NAME")
    lineno, tokens = reader.take("inputs")
    inputs = _symbols(tokens, forbid_tick=not tick_in_alphabets, lineno=lineno)
    lineno, tokens = reader.take("outputs")
    outputs = _symbols(tokens, forbid_tick=not tick_in_alphabets, lineno=lineno)
    lineno, tokens = reader.take("states")
    states = _symbols(tokens, forbid_tick=True, lineno=lineno)
    lineno, tokens = reader.take("initial")
    initial = _single(tokens, lineno, "initial STATE")
    return name, inputs, outputs, states, initial


def parse_tfsm(text: str) -> MachineDocument:
    """Parse a ``tfsm`` document; raises :class:`ParseError` on bad syntax."""
    return _parse_tfsm(_Reader(text))


def _parse_tfsm(reader: _Reader) -> MachineDocument:
    name, inputs, outputs, states, initial = _parse_header(reader, "tfsm", tick_in_alphabets=False)
    timeouts: dict[str, Timeout] = {}
    transitions: list[Transition] = []
    while reader.peek() is not None:
        lineno, tokens = reader.lines[reader.pos]
        reader.pos += 1
        keyword = tokens[0][0]
        if keyword == "timeout":
            if len(tokens) == 3 and tokens[2][0] == "inf":
                state, timeout = tokens[1][0], Timeout(None)
            elif len(tokens) == 5 and tokens[3][0] == "->":
                state = tokens[1][0]
                try:
                    bound = int(tokens[2][0])
                except ValueError:
                    raise ParseError(
                        f"timeout bound must be a positive integer or 'inf', got {tokens[2][0]!r}",
                        lineno, tokens[2][1],
                    ) from None
                try:
                    timeout = Timeout(bound, tokens[4][0])
                except ValueError as exc:
                    raise ParseError(str(exc), lineno, tokens[2][1]) from exc
            else:
                raise ParseError("usage: timeout STATE inf | timeout STATE BOUND -> STATE", lineno, tokens[0][1])
            if state in timeouts:
                raise ParseError(f"timeout for state {state} declared twice", lineno, tokens[1][1])
            timeouts[state] = timeout
        elif keyword == "trans":
            _usage(tokens, lineno, 8, "trans SOURCE INPUT GUARD / OUTPUT -> TARGET")
            if tokens[4][0] != "/":
                raise ParseError(f"expected '/', found {tokens[4][0]!r}", lineno, tokens[4][1])
            if tokens[6][0] != "->":
                raise ParseError(f"expected '->', found {tokens[6][0]!r}", lineno, tokens[6][1])
            for k in (2, 5):
                if tokens[k][0] == TICK:
                    raise ParseError(f"the tick symbol {TICK!r} is reserved here", lineno, tokens[k][1])
            guard = _parse_guard(tokens[3][0], lineno, tokens[3][1])
            transitions.append(Transition(tokens[1][0], tokens[2][0], guard, tokens[5][0], tokens[7][0]))
        else:
            raise ParseError(f"expected 'timeout' or 'trans', found {keyword!r}", lineno, tokens[0][1])
    machine = TimedMachine(states, inputs, outputs, initial, tuple(transitions), timeouts)
    return MachineDocument("tfsm", name, machine)


def parse_fsm(text: str) -> MachineDocument:
    """Parse an ``fsm`` document; raises :class:`ParseError` on bad syntax."""
    return _parse_fsm(_Reader(text))


def _parse_fsm(reader: _Reader) -> MachineDocument:
    name, inputs, outputs, states, initial = _parse_header(reader, "fsm", tick_in_alphabets=True)
    transitions: dict[tuple[str, str], tuple[str, str]] = {}
    while reader.peek() is not None:
        lineno, tokens = reader.lines[reader.pos]
        reader.pos += 1
        if tokens[0][0] != "trans":
            raise ParseError(f"expected 'trans', found {tokens[0][0]!r}", lineno, tokens[0][1])
        _usage(tokens, lineno, 5, "trans SOURCE INPUT/OUTPUT -> TARGET")
        if tokens[3][0] != "->":
            raise ParseError(f"expected '->', found {tokens[3][0]!r}", lineno, tokens[3][1])
        pair = tokens[2][0].split("/")
        if len(pair) != 2 or not pair[0] or not pair[1]:
            raise ParseError(
                f"expected an input/output pair like i/o1, found {tokens[2][0]!r}",
                lineno, tokens[2][1],
            )
        key = (tokens[1][0], pair[0])
        if key in transitions:
            raise ParseError(
                f"transition for state {key[0]} on input {key[1]} declared twice",
                lineno, tokens[1][1],
            )
        transitions[key] = (pair[1], tokens[4][0])
    machine = MealyMachine(states, inputs, outputs, initial, transitions)
    return MachineDocument("fsm", name, machine)


def parse_document(text: str) -> MachineDocument:
    """Parse either kind of machine file, dispatching on the leading keyword."""
    reader = _Reader(text)
    first = reader.peek()
    if first is None:
        raise ParseError("empty document: expected 'tfsm' or 'fsm'", 1, 1)
    lineno, tokens = first
    keyword = tokens[0][0]
    if keyword == "tfsm":
        return _parse_tfsm(reader)
    if keyword == "fsm":
        return _parse_fsm(reader)
    raise ParseError(f"expected 'tfsm' or 'fsm', found {keyword!r}", lineno, tokens[0][1])


def serialize(machine: TimedMachine | MealyMachine, name: str = "machine") -> str:
    """Render a machine in its canonical file form (ends with a newline)."""
    if isinstance(machine, TimedMachine):
        return _serialize_tfsm(machine, name)
    if isinstance(machine, MealyMachine):
        return _serialize_fsm(machine, name)
    raise TypeError(f"cannot serialize {type(machine).__name__}")


def _serialize_tfsm(machine: TimedMachine, name: str) -> str:
    lines = [
        f"tfsm {name}",
        "inputs " + " ".join(machine.inputs),
        "outputs " + " ".join(machine.outputs),
        "states " + " ".join(machine.states),
        f"initial {machine.initial}",
    ]
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
    lines = [
        f"fsm {name}",
        "inputs " + " ".join(machine.inputs),
        "outputs " + " ".join(machine.outputs),
        "states " + " ".join(machine.states),
        f"initial {machine.initial}",
    ]
    state_pos = {s: k for k, s in enumerate(machine.states)}
    input_pos = {i: k for k, i in enumerate(machine.inputs)}
    ordered = sorted(
        machine.transitions.items(),
        key=lambda item: (
            state_pos.get(item[0][0], len(state_pos)),
            item[0][0],
            input_pos.get(item[0][1], len(input_pos)),
            item[0][1],
        ),
    )
    for (source, i), (o, target) in ordered:
        lines.append(f"trans {source} {i}/{o} -> {target}")
    return "\n".join(lines) + "\n"
