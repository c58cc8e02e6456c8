"""Tick abstraction: collapsing a timed machine onto a finite Mealy machine.

With all guard endpoints and timeout bounds drawn from the integers up to
some ``N``, two clock values that lie in the same member of the interval
partition

    [0,0], (0,1), [1,1], (1,2), ..., [N,N], (N,inf)

are indistinguishable: they enable the same guards and sit on the same side
of every timeout bound.  The abstraction of a timed machine therefore has
one state per (machine state, clock interval) pair.  A reserved tick symbol
moves a configuration to the interval holding clock values half a time unit
later (firing the timeout when the bound is hit), and an input symbol whose
guard covers the whole interval fires the corresponding guarded transition.

Correctness of the construction is witnessed by a tick bisimulation: a
relation between timed configurations ``(state, clock interval)`` and
untimed states under which delay moves match tick transitions and guarded
moves match input/output transitions, in both directions.
:func:`canonical_bisimulation` builds the natural such relation by a
synchronized search, and :func:`check_bisimulation` verifies an arbitrary
relation, reporting which of the four matching conditions breaks first.
"""

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from math import floor

from .core import MealyMachine, TimedMachine, TICK
from .semantics import tick_encode_delay

_KINDS = ("point", "open", "tail")


@total_ordering
@dataclass(frozen=True)
class ClockInterval:
    """One member of the clock-value partition.

    ``point n`` is the singleton [n,n], ``open n`` is (n,n+1), and
    ``tail n`` is the unbounded (n,inf) closing the partition at its
    largest constant.  Intervals are totally ordered left to right.
    """

    kind: str
    n: int

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown interval kind {self.kind!r}")
        if self.n < 0:
            raise ValueError(f"negative interval index {self.n}")

    @classmethod
    def point(cls, n: int) -> "ClockInterval":
        return cls("point", n)

    @classmethod
    def open(cls, n: int) -> "ClockInterval":
        return cls("open", n)

    @classmethod
    def tail(cls, n: int) -> "ClockInterval":
        return cls("tail", n)

    @property
    def sort_key(self):
        return (self.n, 0 if self.kind == "point" else 1)

    def __lt__(self, other):
        if not isinstance(other, ClockInterval):
            return NotImplemented
        return self.sort_key < other.sort_key

    def representative(self) -> Fraction:
        """A canonical clock value inside the interval."""
        if self.kind == "point":
            return Fraction(self.n)
        return Fraction(2 * self.n + 1, 2)

    def contains(self, x) -> bool:
        x = Fraction(x)
        if self.kind == "point":
            return x == self.n
        if self.kind == "open":
            return self.n < x < self.n + 1
        return x > self.n

    def __str__(self):
        if self.kind == "point":
            return f"[{self.n},{self.n}]"
        if self.kind == "open":
            return f"({self.n},{self.n + 1})"
        return f"({self.n},inf)"


def max_constant(machine: TimedMachine) -> int:
    """The largest integer appearing in any guard or finite timeout bound."""
    constants = [0]
    for t in machine.transitions:
        constants.append(t.guard.lower)
        if t.guard.upper is not None:
            constants.append(t.guard.upper)
    for timeout in machine.timeouts.values():
        if timeout.bound is not None:
            constants.append(timeout.bound)
    return max(constants)


def interval_set(n_max: int) -> tuple[ClockInterval, ...]:
    """The full partition up to ``n_max``: 2*n_max + 2 intervals."""
    if n_max < 0:
        raise ValueError(f"negative partition bound {n_max}")
    out = []
    for n in range(n_max):
        out.append(ClockInterval.point(n))
        out.append(ClockInterval.open(n))
    out.append(ClockInterval.point(n_max))
    out.append(ClockInterval.tail(n_max))
    return tuple(out)


def interval_of(x, n_max: int) -> ClockInterval:
    """The partition member containing clock value ``x``."""
    x = Fraction(x)
    if x < 0:
        raise ValueError(f"negative clock value {x}")
    if x > n_max:
        return ClockInterval.tail(n_max)
    if x.denominator == 1:
        return ClockInterval.point(int(x))
    return ClockInterval.open(floor(x))


def abstract_state_name(state: str, interval: ClockInterval) -> str:
    """The untimed state standing for (state, interval), e.g. ``s1,(0,1)``."""
    return f"{state},{interval}"


def admissible(machine: TimedMachine, state: str, interval: ClockInterval) -> bool:
    """True iff every clock value in the interval is below the state's timeout."""
    bound = machine.timeouts[state].bound
    if bound is None:
        return True
    if interval.kind == "point":
        return interval.n < bound
    if interval.kind == "open":
        return interval.n + 1 <= bound
    return False


def tick_successor(machine: TimedMachine, n_max: int, state: str, interval: ClockInterval):
    """Where half a time unit of delay leads from (state, interval).

    Returns the successor ``(state, interval)`` pair, or ``None`` when the
    configuration is not admissible (no clock value in the interval is a
    valid configuration of the state).
    """
    bound = machine.timeouts[state].bound
    if interval.kind == "point":
        n = interval.n
        if n < n_max:
            if bound is None or n + 1 <= bound:
                return (state, ClockInterval.open(n))
            return None
        # At the largest constant the only admissible way onward is the tail.
        if bound is None:
            return (state, ClockInterval.tail(n_max))
        return None
    if interval.kind == "open":
        n = interval.n
        if bound is None or bound > n + 1:
            return (state, ClockInterval.point(n + 1))
        if bound == n + 1:
            return (machine.timeouts[state].target, ClockInterval.point(0))
        return None
    if bound is None:
        return (state, interval)
    return None


def input_moves(machine: TimedMachine, state: str, interval: ClockInterval):
    """The guarded moves enabled on the whole interval, as (input, output, target).

    Moves come in transition order, one per input at most: each is looked
    up in the machine's guard index, so the machine must pass
    :func:`~tfsm.core.validate_tfsm`.
    """
    if not admissible(machine, state, interval):
        return []
    region = tick_encode_delay(interval.representative())
    moves = []
    for i in machine.guard_index().get(state, ()):
        t = machine.enabled(state, i, region)
        if t is not None:
            moves.append((i, t.output, t.target))
    return moves


def abstract(machine: TimedMachine, keep_unreachable: bool = False) -> MealyMachine:
    """The untimed Mealy machine simulating ``machine`` tick by tick.

    By default only configurations reachable from (initial, [0,0]) become
    states.  With ``keep_unreachable`` every (state, interval) pair is kept,
    the inadmissible ones as dead states with no outgoing transitions.
    The machine must pass :func:`~tfsm.core.validate_tfsm`, since guards
    are looked up as in :func:`input_moves`.
    """
    n_max = max_constant(machine)
    intervals = interval_set(n_max)
    point0 = intervals[0]

    def edges_from(state, interval):
        out = []
        tick = tick_successor(machine, n_max, state, interval)
        if tick is not None:
            out.append((TICK, TICK, tick))
        for i, o, target in input_moves(machine, state, interval):
            out.append((i, o, (target, point0)))
        return out

    start = (machine.initial, point0)
    if keep_unreachable:
        configs = [(s, interval) for s in machine.states for interval in intervals]
    else:
        configs = [start]
    names = {config: abstract_state_name(*config) for config in configs}
    queue = deque(configs)
    transitions = {}
    while queue:
        config = queue.popleft()
        source = names[config]
        for i, o, succ in edges_from(*config):
            if succ not in names:
                names[succ] = abstract_state_name(*succ)
                queue.append(succ)
            transitions[(source, i)] = (o, names[succ])
    return MealyMachine(
        states=tuple(names.values()),
        inputs=machine.inputs + (TICK,),
        outputs=machine.outputs + (TICK,),
        initial=names[start],
        transitions=transitions,
    )


@dataclass(frozen=True)
class BisimRelation:
    """A relation between timed configurations and untimed states.

    Members are pairs ``((state, ClockInterval), fsm_state)``.
    """

    pairs: frozenset

    def __post_init__(self):
        object.__setattr__(self, "pairs", frozenset(self.pairs))

    def __contains__(self, pair):
        return pair in self.pairs

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self):
        return len(self.pairs)


@dataclass(frozen=True)
class BisimCheck:
    """Verdict of a bisimulation check.

    On failure, ``condition`` tells which matching requirement broke:
    0 the initial configurations are unrelated, 1 a timed delay move has
    no tick match, 2 a tick transition has no delay match, 3 a guarded
    move has no input/output match, 4 an input/output transition has no
    guarded match.  ``pair`` is the offending relation member.
    """

    ok: bool
    condition: int | None = None
    pair: tuple | None = None
    detail: str = ""


def canonical_bisimulation(machine: TimedMachine, fsm: MealyMachine) -> BisimRelation:
    """The relation pairing configurations reached on the same tick words.

    Starting from ((initial, [0,0]), fsm initial), successors are paired
    whenever both sides can move on the same symbol.  For an fsm that
    faithfully abstracts the machine this is a tick bisimulation; for one
    that does not, :func:`check_bisimulation` pinpoints the mismatch.
    """
    n_max = max_constant(machine)
    point0 = ClockInterval.point(0)
    start = ((machine.initial, point0), fsm.initial)
    pairs = {start}
    queue = deque([start])
    while queue:
        (state, interval), r = queue.popleft()
        successors = []
        tick = tick_successor(machine, n_max, state, interval)
        tick_edge = fsm.transitions.get((r, TICK))
        if tick is not None and tick_edge is not None:
            successors.append((tick, tick_edge[1]))
        for i, _, target in input_moves(machine, state, interval):
            edge = fsm.transitions.get((r, i))
            if edge is not None:
                successors.append(((target, point0), edge[1]))
        for pair in successors:
            if pair not in pairs:
                pairs.add(pair)
                queue.append(pair)
    return BisimRelation(frozenset(pairs))


def check_bisimulation(machine: TimedMachine, fsm: MealyMachine, relation: BisimRelation) -> BisimCheck:
    """Verify that ``relation`` is a tick bisimulation for the two machines.

    Every pair must match moves both ways: delays against tick transitions
    (conditions 1 and 2) and guarded moves against input/output transitions
    (conditions 3 and 4), with related successors.  The initial
    configurations must be related (condition 0).  The first violation in a
    deterministic sweep is reported.
    """
    n_max = max_constant(machine)
    point0 = ClockInterval.point(0)
    initial_pair = ((machine.initial, point0), fsm.initial)
    if initial_pair not in relation:
        return BisimCheck(False, 0, initial_pair, "initial configurations are not related")

    def pair_key(pair):
        (state, interval), r = pair
        return (state, interval.sort_key, r)

    fsm_states = set(fsm.states)
    edges_by_source = {}
    for (source, i), edge in sorted(fsm.transitions.items()):
        edges_by_source.setdefault(source, []).append((i, edge))

    for pair in sorted(relation.pairs, key=pair_key):
        (state, interval), r = pair
        if state not in machine.timeouts:
            return BisimCheck(False, None, pair, f"unknown timed state {state!r} in relation")
        if r not in fsm_states:
            return BisimCheck(False, None, pair, f"unknown untimed state {r!r} in relation")

        timed_tick = tick_successor(machine, n_max, state, interval)
        tick_edge = fsm.transitions.get((r, TICK))
        moves = input_moves(machine, state, interval)

        # 1: every delay move needs a tick/tick transition to a related state.
        if timed_tick is not None:
            if tick_edge is None:
                return BisimCheck(
                    False, 1, pair,
                    f"time can pass in ({state},{interval}) but {r} has no tick transition",
                )
            if tick_edge[0] != TICK:
                return BisimCheck(
                    False, 1, pair,
                    f"tick transition of {r} outputs {tick_edge[0]!r} instead of the tick symbol",
                )
            if (timed_tick, tick_edge[1]) not in relation:
                return BisimCheck(
                    False, 1, pair,
                    f"delay successors ({timed_tick[0]},{timed_tick[1]}) and {tick_edge[1]} are not related",
                )

        # 2: every tick/tick transition needs a delay move to a related state.
        if tick_edge is not None and tick_edge[0] == TICK:
            if timed_tick is None:
                return BisimCheck(
                    False, 2, pair,
                    f"{r} has a tick transition but no time can pass in ({state},{interval})",
                )
            if (timed_tick, tick_edge[1]) not in relation:
                return BisimCheck(
                    False, 2, pair,
                    f"delay successors ({timed_tick[0]},{timed_tick[1]}) and {tick_edge[1]} are not related",
                )

        # 3: every guarded move needs a matching input/output transition.
        for i, o, target in moves:
            edge = fsm.transitions.get((r, i))
            if edge is None:
                return BisimCheck(
                    False, 3, pair,
                    f"input {i} is enabled in ({state},{interval}) but {r} has no {i} transition",
                )
            if edge[0] != o:
                return BisimCheck(
                    False, 3, pair,
                    f"input {i} outputs {o} in ({state},{interval}) but {edge[0]} at {r}",
                )
            if ((target, point0), edge[1]) not in relation:
                return BisimCheck(
                    False, 3, pair,
                    f"successors ({target},{point0}) and {edge[1]} on input {i} are not related",
                )

        # 4: every input/output transition needs a matching guarded move.
        for i, (o, r2) in edges_by_source.get(r, ()):
            if i == TICK:
                if o != TICK:
                    return BisimCheck(
                        False, 4, pair,
                        f"{r} answers the tick with output {o!r}, which no timed move matches",
                    )
                continue
            match = next((m for m in moves if m[0] == i), None)
            if match is None:
                return BisimCheck(
                    False, 4, pair,
                    f"{r} consumes input {i} but no guard admits it in ({state},{interval})",
                )
            if match[1] != o:
                return BisimCheck(
                    False, 4, pair,
                    f"input {i} outputs {o} at {r} but {match[1]} in ({state},{interval})",
                )
            if ((match[2], point0), r2) not in relation:
                return BisimCheck(
                    False, 4, pair,
                    f"successors ({match[2]},{point0}) and {r2} on input {i} are not related",
                )

    return BisimCheck(True)
