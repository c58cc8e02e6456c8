"""Domain types for timed and untimed machines.

A timed finite state machine (TFSM) is a Mealy-style transducer with a single
clock.  Transitions carry *guards* -- integer-bounded intervals restricting
the clock values at which an input may be consumed -- and every state has a
*timeout*: when the clock reaches the timeout bound with no input, the
machine jumps to the timeout target and the clock resets to zero.

All time values (clock readings, timestamps, delays) are exact rationals;
no floating point is involved in any time comparison.  ``fractions.Fraction``
provides exactly the arithmetic needed, so it is used directly as the time
type.

Construction-time ``ValueError`` is reserved for values that make no sense at
all (an empty guard, a timeout bound of zero, a decreasing timed word).
Machine-level consistency -- determinism, alphabet disjointness, guards
fitting below timeouts -- is checked by :func:`validate_tfsm`, which returns
violations as data so that broken machines can be inspected and reported.
"""

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import inf

#: The reserved tick symbol of untimed machines, standing for the passage of
#: half a time unit.  It is spelled the same way in machine files, and it is
#: rejected as an ordinary user symbol everywhere.
TICK = "@t"


@dataclass(frozen=True)
class Guard:
    """A clock interval attached to a transition.

    ``upper is None`` means the interval is unbounded above (written
    ``inf`` in files).  Endpoint closedness is stored separately, so all
    shapes ``[a,b] [a,b) (a,b] (a,b) [a,inf) (a,inf)`` are representable.
    A guard is never empty: ``lower <= upper``, and a point interval
    (``lower == upper``) must be closed on both ends.
    """

    lower: int
    upper: int | None
    lower_closed: bool
    upper_closed: bool

    def __post_init__(self):
        if self.lower < 0:
            raise ValueError(f"guard lower bound must be non-negative, got {self.lower}")
        if self.upper is None:
            if self.upper_closed:
                raise ValueError("a guard unbounded above cannot be closed above")
        elif self.lower > self.upper:
            raise ValueError(f"empty guard: lower bound {self.lower} exceeds upper bound {self.upper}")
        elif self.lower == self.upper and not (self.lower_closed and self.upper_closed):
            raise ValueError(f"empty guard: point interval at {self.lower} must be closed on both ends")

    @classmethod
    def point(cls, n: int) -> "Guard":
        """The point interval [n,n]."""
        return cls(n, n, True, True)

    @property
    def regions(self) -> tuple:
        """The clock regions covered, as ``(first, last)`` inclusive.

        Region ``2n`` is the clock value ``n`` and region ``2n + 1`` the open
        interval (n,n+1): the one-clock regions of Alur and Dill, numbered as
        in :func:`tfsm.semantics.tick_encode_delay`.  ``last`` is ``inf``
        for a guard unbounded above.
        """
        first = 2 * self.lower + (not self.lower_closed)
        if self.upper is None:
            return first, inf
        return first, 2 * self.upper - (not self.upper_closed)

    @classmethod
    def of_regions(cls, first: int, last) -> "Guard":
        """The guard covering clock regions ``first`` to ``last`` (``inf`` for no upper bound)."""
        lower, lower_open = divmod(first, 2)
        if last == inf:
            return cls(lower, None, not lower_open, False)
        upper, upper_closed = divmod(last + 1, 2)
        return cls(lower, upper, not lower_open, bool(upper_closed))

    def __str__(self):
        left = "[" if self.lower_closed else "("
        if self.upper is None:
            return f"{left}{self.lower},inf)"
        right = "]" if self.upper_closed else ")"
        return f"{left}{self.lower},{self.upper}{right}"


def _guard_sort_key(g: Guard):
    return (
        g.lower,
        not g.lower_closed,
        g.upper is None,
        g.upper if g.upper is not None else 0,
        not g.upper_closed,
    )


@dataclass(frozen=True)
class Timeout:
    """Per-state timeout.

    ``bound is None`` means the state may wait forever and carries no
    target.  A finite bound is a positive integer together with the state
    entered when the clock reaches it.
    """

    bound: int | None
    target: str | None = None

    def __post_init__(self):
        if self.bound is None:
            if self.target is not None:
                raise ValueError("an infinite timeout carries no target state")
        else:
            if self.bound < 1:
                raise ValueError(f"finite timeout bound must be at least 1, got {self.bound}")
            if self.target is None:
                raise ValueError("a finite timeout needs a target state")


@dataclass(frozen=True)
class Transition:
    """One guarded input/output transition of a timed machine."""

    source: str
    input: str
    guard: Guard
    output: str
    target: str

    def __str__(self):
        return f"{self.source} {self.input} {self.guard} / {self.output} -> {self.target}"


@dataclass(frozen=True)
class TimedMachine:
    """A deterministic single-clock timed finite state machine.

    ``states`` keeps declaration order (it is the canonical order used by
    the serializer).  ``transitions`` is stored sorted by (source position,
    input, guard, output, target position), so two machines with the same
    transition set compare equal regardless of construction order.
    ``timeouts`` must map every state -- totality is one of the things
    :func:`validate_tfsm` checks.
    """

    states: tuple[str, ...]
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    initial: str
    transitions: tuple[Transition, ...]
    timeouts: dict[str, Timeout]

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        object.__setattr__(self, "timeouts", dict(self.timeouts))
        position = {s: k for k, s in enumerate(self.states)}
        fallback = len(position)

        def key(t: Transition):
            return (
                position.get(t.source, fallback),
                t.source,
                t.input,
                _guard_sort_key(t.guard),
                t.output,
                position.get(t.target, fallback),
                t.target,
            )

        object.__setattr__(self, "transitions", tuple(sorted(self.transitions, key=key)))
        index = {}
        for t in self.transitions:
            starts, ends, group = index.setdefault(t.source, {}).setdefault(t.input, ([], [], []))
            first, last = t.guard.regions
            starts.append(first)
            ends.append(last)
            group.append(t)
        object.__setattr__(self, "_guard_index", index)

    def guard_index(self) -> dict:
        """The guards of each (state, input) as clock-region ranges, built with the machine.

        ``index[state][input]`` is ``(starts, ends, transitions)`` in
        transition order: the k-th guard covers the regions
        ``starts[k]`` to ``ends[k]`` of its :attr:`Guard.regions`.
        """
        return self._guard_index


def _covering(entry, region: int) -> "Transition | None":
    """The transition of a :meth:`TimedMachine.guard_index` entry whose guard covers ``region``, by bisection."""
    starts, ends, group = entry
    k = bisect_right(starts, region) - 1
    return group[k] if k >= 0 and region <= ends[k] else None


@dataclass(frozen=True)
class MealyMachine:
    """A partial deterministic untimed Mealy machine.

    Both alphabets include the reserved tick symbol :data:`TICK`.
    ``transitions`` maps (state, input) to (output, next state); pairs
    without an entry are undefined, making the machine's behavior a
    partial function.  Determinism is guaranteed by the map shape.
    """

    states: tuple[str, ...]
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    initial: str
    transitions: dict[tuple[str, str], tuple[str, str]]

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        object.__setattr__(self, "transitions", dict(self.transitions))

    def ordered_transitions(self) -> list:
        """``transitions.items()`` by source in state order, then by input in alphabet order.

        Undeclared names sort after the declared ones, by name.  This is the
        order of machine files and exports.
        """
        state_pos = {s: k for k, s in enumerate(self.states)}
        input_pos = {i: k for k, i in enumerate(self.inputs)}
        return sorted(
            self.transitions.items(),
            key=lambda item: (
                state_pos.get(item[0][0], len(state_pos)),
                item[0][0],
                input_pos.get(item[0][1], len(input_pos)),
                item[0][1],
            ),
        )

    @property
    def user_inputs(self) -> tuple[str, ...]:
        return tuple(i for i in self.inputs if i != TICK)

    @property
    def user_outputs(self) -> tuple[str, ...]:
        return tuple(o for o in self.outputs if o != TICK)


@dataclass(frozen=True)
class TimedWord:
    """A finite sequence of (symbol, timestamp) pairs.

    Timestamps are exact rationals, non-negative and non-decreasing.
    Equal consecutive timestamps are allowed (a delay of zero between
    symbols).  The delay sequence is measured from time zero.
    """

    entries: tuple[tuple[str, Fraction], ...] = ()

    def __post_init__(self):
        fixed = tuple((sym, Fraction(t)) for sym, t in self.entries)
        object.__setattr__(self, "entries", fixed)
        previous = Fraction(0)
        for sym, t in fixed:
            if t < 0:
                raise ValueError(f"negative timestamp {t} on symbol {sym!r}")
            if t < previous:
                raise ValueError(f"timestamps must be non-decreasing, got {previous} then {t}")
            previous = t

    @classmethod
    def of(cls, *pairs) -> "TimedWord":
        """Build a word from (symbol, time) pairs; times may be strings like '3/2'."""
        return cls(tuple((sym, Fraction(t)) for sym, t in pairs))

    def delays(self) -> tuple[Fraction, ...]:
        """Consecutive timestamp differences, the first measured from 0."""
        out = []
        previous = Fraction(0)
        for _, t in self.entries:
            out.append(t - previous)
            previous = t
        return tuple(out)

    def symbols(self) -> tuple[str, ...]:
        return tuple(sym for sym, _ in self.entries)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, index):
        return self.entries[index]

    def __str__(self):
        return " ".join(f"({sym}, {t})" for sym, t in self.entries)


@dataclass(frozen=True)
class TimedState:
    """A machine state together with the current clock value.

    For a valid configuration the clock is strictly below the state's
    timeout bound; that is a machine-relative condition maintained by the
    semantics operations rather than checked here.
    """

    state: str
    clock: Fraction

    def __post_init__(self):
        clock = Fraction(self.clock)
        if clock < 0:
            raise ValueError(f"negative clock value {clock}")
        object.__setattr__(self, "clock", clock)

    def __str__(self):
        return f"({self.state}, {self.clock})"


def _header_problems(machine: TimedMachine | MealyMachine) -> list[str]:
    """The checks both validators run first: repeated names, empty alphabets, states named as symbols."""
    problems = []
    seen = set()
    for s in machine.states:
        if s in seen:
            problems.append(f"state {s!r} declared more than once")
        seen.add(s)
    for label, alphabet in (("input", machine.inputs), ("output", machine.outputs)):
        for a in sorted(a for a, count in Counter(alphabet).items() if count > 1):
            problems.append(f"{label} symbol {a!r} declared more than once")
    if not machine.states:
        problems.append("machine has no states")
    if not machine.inputs:
        problems.append("machine has an empty input alphabet")
    if not machine.outputs:
        problems.append("machine has an empty output alphabet")
    state_set, input_set, output_set = set(machine.states), set(machine.inputs), set(machine.outputs)
    for x in sorted(state_set & input_set):
        problems.append(f"{x!r} is both a state and an input symbol")
    for x in sorted(state_set & output_set):
        problems.append(f"{x!r} is both a state and an output symbol")
    return problems


def validate_tfsm(machine: TimedMachine) -> list[str]:
    """Check every structural invariant of a timed machine.

    Returns a list of human-readable violations; an empty list means the
    machine is valid.  Nothing is raised: violations are data.
    """
    problems = _header_problems(machine)
    states = machine.states
    state_set, input_set, output_set = set(states), set(machine.inputs), set(machine.outputs)
    for x in sorted(input_set & output_set):
        problems.append(f"{x!r} is both an input and an output symbol")
    if machine.initial not in state_set:
        problems.append(f"initial state {machine.initial!r} is not a declared state")

    for s in states:
        if s not in machine.timeouts:
            problems.append(f"state {s} has no timeout entry")
    for s, timeout in machine.timeouts.items():
        if s not in state_set:
            problems.append(f"timeout declared for unknown state {s!r}")
        elif timeout.bound is not None and timeout.target not in state_set:
            problems.append(f"timeout of state {s} targets unknown state {timeout.target!r}")

    for t in machine.transitions:
        if t.source not in state_set:
            problems.append(f"transition ({t}) leaves unknown state {t.source!r}")
        if t.target not in state_set:
            problems.append(f"transition ({t}) enters unknown state {t.target!r}")
        if t.input not in input_set:
            problems.append(f"transition ({t}) uses undeclared input {t.input!r}")
        if t.output not in output_set:
            problems.append(f"transition ({t}) uses undeclared output {t.output!r}")

    # Determinism: guards of a (state, input) group must be pairwise disjoint.
    for s, by_input in machine.guard_index().items():
        for i, (starts, ends, group) in by_input.items():
            for a in range(len(group)):
                for b in range(a + 1, len(group)):
                    # The group is sorted by first region, so once group[b]
                    # starts past the end of group[a], every later guard does too.
                    if ends[a] < starts[b]:
                        break
                    problems.append(
                        f"nondeterministic: guards {group[a].guard} and {group[b].guard} "
                        f"overlap on input {i} at state {s}"
                    )

    # Every guard must lie strictly below its source state's timeout bound.
    for t in machine.transitions:
        timeout = machine.timeouts.get(t.source)
        if timeout is None or timeout.bound is None:
            continue
        if t.guard.regions[1] >= 2 * timeout.bound:
            problems.append(
                f"guard {t.guard} on transition ({t}) admits clock values not below "
                f"the timeout bound {timeout.bound} of state {t.source}"
            )

    return problems


def validate_fsm(machine: MealyMachine) -> list[str]:
    """Check the structural invariants of a partial Mealy machine.

    Same contract as :func:`validate_tfsm`: violations come back as a list
    of messages, empty when the machine is consistent.
    """
    problems = _header_problems(machine)
    state_set, input_set, output_set = set(machine.states), set(machine.inputs), set(machine.outputs)
    if machine.initial not in state_set:
        problems.append(f"initial state {machine.initial!r} is not a declared state")
    for (s, i), (o, target) in sorted(machine.transitions.items()):
        if s not in state_set:
            problems.append(f"transition from unknown state {s!r}")
        if target not in state_set:
            problems.append(f"transition ({s}, {i}) enters unknown state {target!r}")
        if i not in input_set:
            problems.append(f"transition at {s} uses undeclared input {i!r}")
        if o not in output_set:
            problems.append(f"transition ({s}, {i}) uses undeclared output {o!r}")
    return problems


def breadth_first(starts, successors) -> list:
    """The nodes reachable from ``starts`` in breadth-first discovery order, repeated starts once.

    ``successors(node)`` is called once per node, in that order, so a search
    that needs its edges records them there.  The returned list is the queue.
    """
    order = list(dict.fromkeys(starts))
    seen = set(order)
    for node in order:
        for succ in successors(node):
            if succ not in seen:
                seen.add(succ)
                order.append(succ)
    return order
