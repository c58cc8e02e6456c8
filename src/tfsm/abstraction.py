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

    @classmethod
    def of_region(cls, k: int, n_max: int) -> "ClockInterval":
        """The interval of clock region ``k`` in the partition up to ``n_max``."""
        if k > 2 * n_max:
            return cls.tail(n_max)
        return cls("open" if k % 2 else "point", k // 2)

    @property
    def region(self) -> int:
        """The clock region: ``2n`` for [n,n], ``2n + 1`` for (n,n+1) and for the tail (n,inf)."""
        return 2 * self.n + (self.kind != "point")

    def __lt__(self, other):
        if not isinstance(other, ClockInterval):
            return NotImplemented
        return self.region < other.region

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
    """The full partition up to ``n_max``: 2*n_max + 2 intervals, left to right."""
    if n_max < 0:
        raise ValueError(f"negative partition bound {n_max}")
    return tuple(ClockInterval.of_region(k, n_max) for k in range(2 * n_max + 2))


def interval_of(x, n_max: int) -> ClockInterval:
    """The partition member containing clock value ``x``."""
    x = Fraction(x)
    if x < 0:
        raise ValueError(f"negative clock value {x}")
    return ClockInterval.of_region(tick_encode_delay(x), n_max)


def abstract_state_name(state: str, interval: ClockInterval) -> str:
    """The untimed state standing for (state, interval), e.g. ``s1,(0,1)``."""
    return f"{state},{interval}"


def _tick(machine: TimedMachine, top: int, state: str, k: int):
    """Half a time unit on from (state, region k), or None if inadmissible; ``top`` is the tail."""
    timeout = machine.timeouts[state]
    if timeout.bound is None:
        return (state, min(k + 1, top))
    if k + 1 < 2 * timeout.bound:
        return (state, k + 1)
    if k + 1 == 2 * timeout.bound:
        return (timeout.target, 0)
    return None


class TickView:
    """The tick abstraction of a timed machine, computed on demand.

    It reads like the :class:`~tfsm.core.MealyMachine` that :func:`abstract`
    builds, over configurations ``(state, k)`` with ``k`` the clock region
    (:attr:`ClockInterval.region`); ``transitions.get`` computes each move.
    """

    def __init__(self, machine: TimedMachine):
        self.machine = machine
        self.n_max = max_constant(machine)
        self.initial = (machine.initial, 0)
        self.inputs = machine.inputs + (TICK,)
        self.outputs = machine.outputs + (TICK,)
        self.transitions = self

    def get(self, key):
        (state, k), symbol = key
        if symbol == TICK:
            succ = _tick(self.machine, 2 * self.n_max + 1, state, k)
            return None if succ is None else (TICK, succ)
        t = self.machine.enabled(state, symbol, k)
        return None if t is None else (t.output, (t.target, 0))

    def moves(self, config):
        """``(symbol, (output, successor))`` per move: the tick first, then inputs in guard-index order."""
        for i in (TICK, *self.machine.guard_index().get(config[0], ())):
            edge = self.get((config, i))
            if edge is not None:
                yield i, edge


def admissible(machine: TimedMachine, state: str, interval: ClockInterval) -> bool:
    """True iff every clock value in the interval is below the state's timeout."""
    bound = machine.timeouts[state].bound
    return bound is None or interval.region < 2 * bound


def tick_successor(machine: TimedMachine, n_max: int, state: str, interval: ClockInterval):
    """Where half a time unit of delay leads from (state, interval).

    Returns the successor ``(state, interval)`` pair, or ``None`` when the
    configuration is not admissible (no clock value in the interval is a
    valid configuration of the state).
    """
    succ = _tick(machine, 2 * n_max + 1, state, interval.region)
    return None if succ is None else (succ[0], ClockInterval.of_region(succ[1], n_max))


def input_moves(machine: TimedMachine, state: str, interval: ClockInterval):
    """The guarded moves enabled on the whole interval, as (input, output, target).

    Moves come in transition order, one per input at most: each is looked
    up in the machine's guard index, so the machine must pass
    :func:`~tfsm.core.validate_tfsm`.  Its guards then lie below the
    timeouts, so an inadmissible configuration has no moves.
    """
    moves = []
    for i in machine.guard_index().get(state, ()):
        t = machine.enabled(state, i, interval.region)
        if t is not None:
            moves.append((i, t.output, t.target))
    return moves


def abstract(machine: TimedMachine, keep_unreachable: bool = False) -> MealyMachine:
    """The untimed Mealy machine simulating ``machine`` tick by tick.

    A breadth-first search of :class:`TickView` that names each
    configuration when it first reaches it.  By default only configurations
    reachable from (initial, [0,0]) become states.  With ``keep_unreachable``
    every (state, interval) pair is kept, the inadmissible ones as dead
    states with no outgoing transitions.  The machine must pass
    :func:`~tfsm.core.validate_tfsm`, as for :func:`input_moves`.
    """
    view = TickView(machine)

    def name(config):
        return abstract_state_name(config[0], ClockInterval.of_region(config[1], view.n_max))

    start = view.initial
    if keep_unreachable:
        configs = [(s, k) for s in machine.states for k in range(2 * view.n_max + 2)]
    else:
        configs = [start]
    names = {config: name(config) for config in configs}
    queue = deque(configs)
    transitions = {}
    while queue:
        config = queue.popleft()
        source = names[config]
        for i, (o, succ) in view.moves(config):
            if succ not in names:
                names[succ] = name(succ)
                queue.append(succ)
            transitions[(source, i)] = (o, names[succ])
    return MealyMachine(
        states=tuple(names.values()),
        inputs=view.inputs,
        outputs=view.outputs,
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
    view = TickView(machine)
    start = (view.initial, fsm.initial)
    pairs = {start}
    queue = deque([start])
    while queue:
        config, r = queue.popleft()
        for i, (_, succ) in view.moves(config):
            fsm_edge = fsm.transitions.get((r, i))
            if fsm_edge is None:
                continue
            pair = (succ, fsm_edge[1])
            if pair not in pairs:
                pairs.add(pair)
                queue.append(pair)
    return BisimRelation(frozenset(((s, ClockInterval.of_region(k, view.n_max)), r) for (s, k), r in pairs))


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
        return (state, interval.region, r)

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
