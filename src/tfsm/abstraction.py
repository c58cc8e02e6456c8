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

from bisect import bisect_right
from dataclasses import dataclass
from functools import total_ordering
from math import inf

from .core import MealyMachine, TimedMachine, TICK, breadth_first, _covering

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


def abstract_state_name(state: str, interval: ClockInterval) -> str:
    """The untimed state standing for (state, interval), e.g. ``s1,(0,1)``."""
    return f"{state},{interval}"


class TickView:
    """The tick abstraction of a timed machine, computed on demand.

    Its configurations ``(state, k)``, with ``k`` the clock region
    (:attr:`ClockInterval.region`), stand for the states of the
    :class:`~tfsm.core.MealyMachine` that :func:`abstract` builds.  Read it
    with :meth:`tick`, :meth:`stretch` (:meth:`moves` joins the two),
    :meth:`lasso` and :meth:`after`.
    """

    def __init__(self, machine: TimedMachine):
        self.machine = machine
        self.n_max = max_constant(machine)
        self.initial = (machine.initial, 0)
        self.inputs = machine.inputs + (TICK,)
        self.outputs = machine.outputs + (TICK,)
        self._stretches = {}

    def tick(self, config, d=1):
        """The configuration ``d`` ticks on from ``config``, within its :meth:`stretch`; None if inadmissible."""
        (state, k), timeout = config, self.machine.timeouts[config[0]]
        if timeout.bound is None:
            return state, min(k + d, 2 * self.n_max + 1)
        if k + d < 2 * timeout.bound:
            return state, k + d
        if k + d == 2 * timeout.bound:
            return timeout.target, 0
        return None

    def stretch(self, config):
        """``(d, edges)``: ``d`` ticks to the next breakpoint, or ``inf``, and each input's ``(output, successor)``.

        At a breakpoint a guard starts or ends, or the timeout fires (region ``2 * bound``).
        Each state keeps its breakpoints, closed by ``inf`` (an inadmissible ``d``), and
        one edge dict per stretch in guard-index order, filled on first use and shared: read only.
        """
        state, k = config
        if state not in self._stretches:
            entry = self.machine.guard_index().get(state, {})
            found = {inf, 2 * (self.machine.timeouts[state].bound or inf)}
            for starts, ends, _ in entry.values():
                found.update(starts, (e + 1 for e in ends))
            self._stretches[state] = (sorted(found), [None] * len(found), entry)
        breaks, edges, entry = self._stretches[state]
        j = bisect_right(breaks, k)
        if edges[j] is None:
            edges[j] = {}
            for i, guards in entry.items():
                if (t := _covering(guards, k)) is not None:
                    edges[j][i] = (t.output, (t.target, 0))
        return breaks[j] - k, edges[j]

    def moves(self, config):
        """``(symbol, (output, successor))`` per move: the tick first, then inputs in guard-index order."""
        if (succ := self.tick(config)) is not None:
            yield TICK, (TICK, succ)
        yield from self.stretch(config)[1].items()

    def lasso(self, config):
        """``(mu, lam)``: the tick chain from ``config`` is periodic from step ``mu`` on, with period ``lam``."""
        timeouts, (state, k) = self.machine.timeouts, config
        entered, at = {}, -k
        while state not in entered:
            if timeouts[state].bound is None:
                return at + 2 * self.n_max + 1, 1
            entered[state] = at
            at += 2 * timeouts[state].bound
            state = timeouts[state].target
        return max(entered[state], 0), at - entered[state]

    def after(self, config, n):
        """The configuration ``n`` ticks on from ``config``; ``n`` is first reduced modulo its :meth:`lasso`'s cycle."""
        mu, lam = self.lasso(config)
        timeouts, state, at = self.machine.timeouts, config[0], -config[1]
        n = min(n, mu + (n - mu) % lam)
        while (bound := timeouts[state].bound) is not None and n >= at + 2 * bound:
            state, at = timeouts[state].target, at + 2 * bound
        return state, min(n - at, 2 * self.n_max + 1)


def abstract(machine: TimedMachine, keep_unreachable: bool = False) -> MealyMachine:
    """The untimed Mealy machine simulating ``machine`` tick by tick.

    A breadth-first search of :class:`TickView` that names configurations
    in discovery order.  By default only configurations reachable from
    (initial, [0,0]) become states.  With ``keep_unreachable`` every
    (state, interval) pair is kept, the inadmissible ones as dead states
    with no outgoing transitions.  The machine must pass
    :func:`~tfsm.core.validate_tfsm`: guarded moves are looked up in
    :meth:`~tfsm.core.TimedMachine.guard_index`, which needs disjoint guards.
    """
    view = TickView(machine)
    start = view.initial
    if keep_unreachable:
        configs = [(s, k) for s in machine.states for k in range(2 * view.n_max + 2)]
    else:
        configs = [start]
    edges = []

    def successors(config):
        for i, (o, succ) in view.moves(config):
            edges.append((config, i, o, succ))
            yield succ

    names = {
        config: abstract_state_name(config[0], ClockInterval.of_region(config[1], view.n_max))
        for config in breadth_first(configs, successors)
    }
    return MealyMachine(
        states=tuple(names.values()),
        inputs=view.inputs,
        outputs=view.outputs,
        initial=names[start],
        transitions={(names[config], i): (o, names[succ]) for config, i, o, succ in edges},
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

    def successors(pair):
        config, r = pair
        for i, (_, succ) in view.moves(config):
            fsm_edge = fsm.transitions.get((r, i))
            if fsm_edge is not None:
                yield (succ, fsm_edge[1])

    pairs = breadth_first([(view.initial, fsm.initial)], successors)
    return BisimRelation(frozenset(((s, ClockInterval.of_region(k, view.n_max)), r) for (s, k), r in pairs))


def check_bisimulation(machine: TimedMachine, fsm: MealyMachine, relation: BisimRelation) -> BisimCheck:
    """Verify that ``relation`` is a tick bisimulation for the two machines.

    Every pair must match moves both ways: delays against tick transitions
    (conditions 1 and 2) and guarded moves against input/output transitions
    (conditions 3 and 4), with related successors.  The initial
    configurations must be related (condition 0).  The first violation in a
    deterministic sweep is reported.  A pair's moves are the :meth:`TickView.tick`
    and :meth:`TickView.stretch` edges at its interval's region.
    """
    view = TickView(machine)
    n_max = view.n_max
    sweep = []
    related = set()
    for pair in relation.pairs:
        (state, interval), r = pair
        k = interval.region
        # Sweep in (state, region, r, kind) order; the kind parts open(N) and
        # tail(N), which share a region.  Only partition members are related:
        # every successor is one.  The rest are still swept.
        sweep.append((state, k, r, interval.kind, pair))
        if (interval.n == n_max) if interval.kind == "tail" else (k <= 2 * n_max):
            related.add(((state, k), r))
    if ((machine.initial, 0), fsm.initial) not in related:
        initial_pair = ((machine.initial, ClockInterval.point(0)), fsm.initial)
        return BisimCheck(False, 0, initial_pair, "initial configurations are not related")

    def config_str(config):
        return f"({config[0]},{ClockInterval.of_region(config[1], n_max)})"

    fsm_states = set(fsm.states)
    # Condition 4 reads each state's edges in input order, undeclared inputs and the tick included.
    fsm_inputs = sorted({i for _, i in fsm.transitions})

    sweep.sort()
    for state, k, r, _, pair in sweep:
        interval = pair[0][1]
        if state not in machine.timeouts:
            return BisimCheck(False, None, pair, f"unknown timed state {state!r} in relation")
        if r not in fsm_states:
            return BisimCheck(False, None, pair, f"unknown untimed state {r!r} in relation")

        timed_tick, edges = view.tick((state, k)), view.stretch((state, k))[1]
        tick_edge = fsm.transitions.get((r, TICK))

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
            if (timed_tick, tick_edge[1]) not in related:
                return BisimCheck(
                    False, 1, pair,
                    f"delay successors {config_str(timed_tick)} and {tick_edge[1]} are not related",
                )

        # 2: every tick/tick transition needs a delay move (whose successor
        # condition 1 has already related).
        if tick_edge is not None and tick_edge[0] == TICK and timed_tick is None:
            return BisimCheck(
                False, 2, pair,
                f"{r} has a tick transition but no time can pass in ({state},{interval})",
            )

        # 3: every guarded move needs a matching input/output transition.
        for i, (o, succ) in edges.items():
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
            if (succ, edge[1]) not in related:
                return BisimCheck(
                    False, 3, pair,
                    f"successors {config_str(succ)} and {edge[1]} on input {i} are not related",
                )

        # 4: every input/output transition needs a guarded move; condition 3 matched outputs and successors.
        for i in fsm_inputs:
            edge = fsm.transitions.get((r, i))
            if edge is None:
                continue
            if i == TICK and edge[0] != TICK:
                return BisimCheck(
                    False, 4, pair,
                    f"{r} answers the tick with output {edge[0]!r}, which no timed move matches",
                )
            if i != TICK and i not in edges:
                return BisimCheck(
                    False, 4, pair,
                    f"{r} consumes input {i} but no guard admits it in ({state},{interval})",
                )

    return BisimCheck(True)
