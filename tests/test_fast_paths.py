"""Guard lookups, on-demand searches and minimization against the code they replaced.

``step`` finds a guard by bisection in the machine's index of clock
regions, the tick view reads its input moves off that index once per
stretch, from one breakpoint to the next, ``refine`` walks only the
states its result reaches, with the delay walk of ``tfsm_intersect`` run
over a machine's tick chain against itself, whose runs come out merged,
``minimize`` refines partitions by Hopcroft's algorithm, ``abstract``,
``tfsm_equivalent`` and ``check_bisimulation`` read the tick abstraction on
integer clock regions, the first two without building it,
``tfsm_equivalent`` decides and spells a shortest separating word by one
walk from breakpoint to breakpoint, ``tfsm_intersect``
walks only the pairs its result keeps, from breakpoint to breakpoint, each
walk ending where ``TickView.lasso`` finds both timeout chains repeating,
``equivalent`` keeps one parent pointer per pair, ``validate_tfsm`` reads
the overlapping guards off the guard index, and ``product``,
``reachable``, ``canonical_fsm`` and ``canonical_tfsm`` search through the
shared ``breadth_first``.  The functions below are the earlier linear
guard scans, the eager refinement loop over the tick-by-tick delay walk
(merged by ``machine_gen.interval_merge_guards``, by cases on endpoints),
the Moore-round minimization, the abstraction and the bisimulation checker
over clock intervals, the equivalence search that carries a prefix per
pair, the timed equivalence that searches region by region (``equivalent``
over both tick views, read as Mealy machines through ``RegionView``), the
paper's intersection (``refine`` of the ``product`` of both abstractions)
and a tick-by-tick chain, the searches with their own deque loops and the
validator that grouped transitions itself, kept as references: the fast
paths must return equal results, in equal order.
"""

import math
import os
import random
import subprocess
import sys
from collections import deque
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from tfsm import (
    DEFINEDNESS_MISMATCH,
    OUTPUT_MISMATCH,
    TICK,
    BisimCheck,
    BisimRelation,
    ClockInterval,
    Counterexample,
    EquivalenceVerdict,
    Guard,
    MealyMachine,
    TimedEquivalenceVerdict,
    TimedMachine,
    TimedState,
    Timeout,
    Transition,
    abstract,
    abstract_state_name,
    canonical_bisimulation,
    canonical_fsm,
    canonical_tfsm,
    check_bisimulation,
    decode_tick_word,
    equivalent,
    interval_set,
    max_constant,
    minimize,
    parse_document,
    product,
    refine,
    run,
    step,
    tfsm_equivalent,
    tfsm_intersect,
    validate_tfsm,
)
from tfsm import refinement
from tfsm.abstraction import TickView
from tfsm.core import _header_problems, breadth_first
from tfsm.fsm_algebra import _merged_alphabet, reachable
from tfsm.refinement import _delay_walk, _TickChain, is_time_progressive
from conftest import MACHINES, budget
from machine_gen import (
    admissible,
    edited_ring_texts,
    guard_contains,
    guards_disjoint,
    interval_merge_guards,
    machine_pool,
    random_tfsm,
    random_time_progressive_fsm,
    random_timed_word,
    representative,
)


def scan_step(machine, config, symbol):
    """``step`` by testing every transition's guard at the clock value."""
    for t in machine.transitions:
        if t.source == config.state and t.input == symbol and guard_contains(t.guard, config.clock):
            return t.output, TimedState(t.target, Fraction(0))
    return None


def scan_input_moves(machine, state, interval):
    """The guarded moves on the whole interval, as (input, output, target), by testing every guard."""
    if not admissible(machine, state, interval):
        return []
    x = representative(interval)
    moves = []
    for t in machine.transitions:
        if t.source == state and guard_contains(t.guard, x):
            moves.append((t.input, t.output, t.target))
    return moves


def _user_moves(fsm, state):
    for i in fsm.user_inputs:
        edge = fsm.transitions.get((state, i))
        if edge is not None:
            yield i, edge[0], edge[1]


def tick_by_tick_refine_state(fsm, start):
    """One state's delay walk over visited states, a guard per tick, and its own emission for an exit in (n,n+1)."""
    transitions = []
    marked = {start}
    state = start
    position = 0
    while True:
        guard = Guard.of_regions(position, position)
        for i, o, target in _user_moves(fsm, state):
            transitions.append(Transition(start, i, guard, o, target))
        nxt = fsm.transitions[(state, TICK)][1]
        position += 1
        if nxt in marked:
            n, parity = divmod(position, 2)
            if parity == 0:
                return transitions, Timeout(n, nxt)
            guard = Guard.of_regions(position, position)
            for i, o, target in _user_moves(fsm, nxt):
                transitions.append(Transition(start, i, guard, o, target))
            return transitions, Timeout(n + 1, fsm.transitions[(nxt, TICK)][1])
        marked.add(nxt)
        state = nxt


def eager_refine(fsm, merge=True):
    """``refine`` walking every state first, then dropping those the result does not reach."""
    progress = is_time_progressive(fsm)
    if not progress.ok:
        names = ", ".join(progress.offenders)
        raise ValueError(f"machine is not time-progressive: time cannot pass in {names}")
    for (s, i), (o, _) in sorted(fsm.transitions.items()):
        if i != TICK and o == TICK:
            raise ValueError(f"input {i} at state {s} outputs the tick symbol; cannot be a guarded move")

    refined = {s: tick_by_tick_refine_state(fsm, s) for s in fsm.states}

    reachable = {fsm.initial}
    queue = [fsm.initial]
    while queue:
        s = queue.pop(0)
        transitions, timeout = refined[s]
        targets = [t.target for t in transitions] + [timeout.target]
        for target in targets:
            if target is not None and target not in reachable:
                reachable.add(target)
                queue.append(target)

    states = tuple(s for s in fsm.states if s in reachable)
    machine = TimedMachine(
        states=states,
        inputs=fsm.user_inputs,
        outputs=fsm.user_outputs,
        initial=fsm.initial,
        transitions=tuple(t for s in states for t in refined[s][0]),
        timeouts={s: refined[s][1] for s in states},
    )
    return interval_merge_guards(machine) if merge else machine


def interval_tick_successor(machine, n_max, state, interval):
    """``tick_successor`` by cases on the interval's kind."""
    bound = machine.timeouts[state].bound
    if interval.kind == "point":
        n = interval.n
        if n < n_max:
            if bound is None or n + 1 <= bound:
                return (state, ClockInterval.open(n))
            return None
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


def eager_abstract(machine, keep_unreachable=False):
    """``abstract`` over ``ClockInterval`` configurations, with the guard scan for input moves."""
    n_max = max_constant(machine)
    intervals = interval_set(n_max)
    point0 = intervals[0]

    def edges_from(state, interval):
        out = []
        tick = interval_tick_successor(machine, n_max, state, interval)
        if tick is not None:
            out.append((TICK, TICK, tick))
        for i, o, target in scan_input_moves(machine, state, interval):
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


def interval_canonical_bisimulation(machine, fsm):
    """``canonical_bisimulation`` over ``ClockInterval`` configurations."""
    n_max = max_constant(machine)
    point0 = ClockInterval.point(0)
    start = ((machine.initial, point0), fsm.initial)
    pairs = {start}
    queue = deque([start])
    while queue:
        (state, interval), r = queue.popleft()
        successors = []
        tick = interval_tick_successor(machine, n_max, state, interval)
        tick_edge = fsm.transitions.get((r, TICK))
        if tick is not None and tick_edge is not None:
            successors.append((tick, tick_edge[1]))
        for i, _, target in scan_input_moves(machine, state, interval):
            edge = fsm.transitions.get((r, i))
            if edge is not None:
                successors.append(((target, point0), edge[1]))
        for pair in successors:
            if pair not in pairs:
                pairs.add(pair)
                queue.append(pair)
    return frozenset(pairs)


def interval_check_bisimulation(machine, fsm, relation):
    """``check_bisimulation`` over ``ClockInterval`` pairs, with the interval cases and the guard scan.

    An interval outside the partition moves as the partition member of
    its clock region.
    """
    n_max = max_constant(machine)
    point0 = ClockInterval.point(0)
    initial_pair = ((machine.initial, point0), fsm.initial)
    if initial_pair not in relation:
        return BisimCheck(False, 0, initial_pair, "initial configurations are not related")

    def pair_key(pair):
        (state, interval), r = pair
        return (state, interval.region, r, interval.kind)

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

        member = ClockInterval.of_region(interval.region, n_max)
        timed_tick = interval_tick_successor(machine, n_max, state, member)
        tick_edge = fsm.transitions.get((r, TICK))
        moves = scan_input_moves(machine, state, interval)

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


def grouped_validate_tfsm(machine):
    """``validate_tfsm`` grouping transitions by (state, input) itself and testing overlap with ``guards_disjoint``."""
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

    groups = {}
    for t in machine.transitions:
        groups.setdefault((t.source, t.input), []).append(t)
    for (s, i), group in groups.items():
        for a in range(len(group)):
            for b in range(a + 1, len(group)):
                if guards_disjoint(group[a].guard, group[b].guard):
                    break
                problems.append(
                    f"nondeterministic: guards {group[a].guard} and {group[b].guard} "
                    f"overlap on input {i} at state {s}"
                )

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


def every_guard(top):
    """Every guard whose finite endpoints are at most ``top``."""
    for lower in range(top + 1):
        for lower_closed in (True, False):
            yield Guard(lower, None, lower_closed, False)
            for upper in range(lower, top + 1):
                for upper_closed in (True, False):
                    if lower < upper or (lower_closed and upper_closed):
                        yield Guard(lower, upper, lower_closed, upper_closed)


def grid_regions(g):
    """The regions whose half-integer point ``Fraction(k, 2)`` the guard contains, up to region 19.

    Region 19 is past every endpoint up to 8, so this is exact for ``every_guard(8)``.
    """
    return [k for k in range(20) if guard_contains(g, Fraction(k, 2))]


def random_guard(rng, top):
    lower = rng.randint(0, top)
    lower_closed = rng.random() < 0.5
    if rng.random() < 0.2:
        return Guard(lower, None, lower_closed, False)
    upper = rng.randint(lower, top)
    if upper == lower:
        return Guard.point(lower)
    return Guard(lower, upper, lower_closed, rng.random() < 0.5)


def prefix_equivalent(a, b):
    """``equivalent`` carrying the whole input prefix of every pair it reaches."""
    inputs = _merged_alphabet(a.inputs, b.inputs)
    start = (a.initial, b.initial)
    prefixes = {start: ()}
    queue = deque([start])
    while queue:
        pair = queue.popleft()
        sa, sb = pair
        prefix = prefixes[pair]
        for i in inputs:
            ea = a.transitions.get((sa, i))
            eb = b.transitions.get((sb, i))
            if ea is None and eb is None:
                continue
            word = prefix + (i,)
            if ea is None or eb is None:
                where = "the first machine" if eb is None else "the second machine"
                return EquivalenceVerdict(False, Counterexample(
                    word, DEFINEDNESS_MISMATCH,
                    f"input {i} after {' '.join(prefix) or 'the empty word'} "
                    f"is defined only in {where}",
                ))
            if ea[0] != eb[0]:
                return EquivalenceVerdict(False, Counterexample(
                    word, OUTPUT_MISMATCH,
                    f"input {i} after {' '.join(prefix) or 'the empty word'} "
                    f"outputs {ea[0]} in the first machine but {eb[0]} in the second",
                ))
            succ = (ea[1], eb[1])
            if succ not in prefixes:
                prefixes[succ] = word
                queue.append(succ)
    return EquivalenceVerdict(True)


def eager_tfsm_equivalent(a, b):
    """``tfsm_equivalent`` comparing both abstractions, built in full first."""
    return timed_verdict(a, b, prefix_equivalent(eager_abstract(a), eager_abstract(b)))


class RegionView:
    """A machine's :class:`TickView` read as the Mealy machine ``equivalent`` searches: ``transitions.get`` computes each move."""

    def __init__(self, machine):
        self.view = TickView(machine)
        self.initial, self.inputs, self.transitions = self.view.initial, self.view.inputs, self

    def get(self, key):
        config, symbol = key
        if symbol == TICK:
            succ = self.view.tick(config)
            return None if succ is None else (TICK, succ)
        return self.view.stretch(config)[1].get(symbol)


def region_tfsm_equivalent(a, b):
    """``tfsm_equivalent`` deciding by the exact search over both tick views, region by region."""
    return timed_verdict(a, b, equivalent(RegionView(a), RegionView(b)))


def timed_verdict(a, b, verdict):
    """The timed verdict for an untimed one: its counterexample decoded, run on both machines and explained."""
    if verdict.equivalent:
        return TimedEquivalenceVerdict(True)
    word = decode_tick_word(verdict.counterexample.word)
    run_a, run_b = run(a, word), run(b, word)
    if run_a.accepted and run_b.accepted:
        assert run_a.outputs != run_b.outputs
        kind = OUTPUT_MISMATCH
        detail = (
            f"on {word}: outputs {' '.join(run_a.outputs)} in the first machine "
            f"but {' '.join(run_b.outputs)} in the second"
        )
    else:
        assert run_a.accepted != run_b.accepted
        kind = DEFINEDNESS_MISMATCH
        rejecting = run_b if run_a.accepted else run_a
        which = "second" if run_a.accepted else "first"
        symbol, stamp = word[rejecting.rejection_point]
        detail = (
            f"on {word}: the {which} machine rejects ({symbol}, {stamp}) "
            f"in configuration {rejecting.final}"
        )
    return TimedEquivalenceVerdict(False, word, kind, detail)


def moore_minimize(fsm):
    """``minimize`` by Moore rounds: re-split every block by its successors' blocks until stable."""
    fsm = reachable(fsm)
    block = {s: 0 for s in fsm.states}
    while True:
        signatures = {}
        for s in fsm.states:
            sig = [block[s]]
            for i in fsm.inputs:
                edge = fsm.transitions.get((s, i))
                sig.append(None if edge is None else (edge[0], block[edge[1]]))
            signatures[s] = tuple(sig)
        relabel = {}
        new_block = {}
        for s in fsm.states:
            sig = signatures[s]
            if sig not in relabel:
                relabel[sig] = len(relabel)
            new_block[s] = relabel[sig]
        if new_block == block:
            break
        block = new_block

    representative = {}
    for s in fsm.states:
        representative.setdefault(block[s], s)
    states = tuple(representative[b] for b in sorted(representative, key=lambda b: fsm.states.index(representative[b])))
    transitions = {}
    for s in states:
        for i in fsm.inputs:
            edge = fsm.transitions.get((s, i))
            if edge is not None:
                transitions[(s, i)] = (edge[0], representative[block[edge[1]]])
    return MealyMachine(
        states=states,
        inputs=fsm.inputs,
        outputs=fsm.outputs,
        initial=representative[block[fsm.initial]],
        transitions=transitions,
    )


def assert_minimize_matches_moore(fsm):
    fast, slow = minimize(fsm), moore_minimize(fsm)
    assert fast == slow, f"{fsm}"
    assert list(fast.transitions.items()) == list(slow.transitions.items())
    return len(reachable(fsm).states) - len(fast.states)


def deque_product(a, b):
    """``product`` with its own deque loop."""
    start = (a.initial, b.initial)
    order = [start]
    seen = {start}
    edges = {}
    queue = deque([start])
    while queue:
        pair = queue.popleft()
        sa, sb = pair
        for i in a.inputs:
            ea = a.transitions.get((sa, i))
            eb = b.transitions.get((sb, i))
            if ea is None or eb is None or ea[0] != eb[0]:
                continue
            succ = (ea[1], eb[1])
            edges[(pair, i)] = (ea[0], succ)
            if succ not in seen:
                seen.add(succ)
                order.append(succ)
                queue.append(succ)
    names = {pair: str(k) for k, pair in enumerate(order)}
    outputs = a.outputs + tuple(o for o in b.outputs if o not in a.outputs)
    return MealyMachine(
        states=tuple(names[pair] for pair in order),
        inputs=a.inputs,
        outputs=outputs,
        initial=names[start],
        transitions={(names[pair], i): (o, names[succ]) for (pair, i), (o, succ) in edges.items()},
    )


def deque_reachable(fsm):
    """``reachable`` with its own deque loop."""
    seen = {fsm.initial}
    queue = deque([fsm.initial])
    while queue:
        s = queue.popleft()
        for i in fsm.inputs:
            edge = fsm.transitions.get((s, i))
            if edge is not None and edge[1] not in seen:
                seen.add(edge[1])
                queue.append(edge[1])
    return MealyMachine(
        states=tuple(s for s in fsm.states if s in seen),
        inputs=fsm.inputs,
        outputs=fsm.outputs,
        initial=fsm.initial,
        transitions={(s, i): e for (s, i), e in fsm.transitions.items() if s in seen},
    )


def deque_canonical_fsm(fsm):
    """``canonical_fsm`` with its own deque loop, naming states as it reaches them."""
    inputs = tuple(sorted(fsm.inputs))
    names = {fsm.initial: "0"}
    order = [fsm.initial]
    queue = deque([fsm.initial])
    while queue:
        s = queue.popleft()
        for i in inputs:
            edge = fsm.transitions.get((s, i))
            if edge is not None and edge[1] not in names:
                names[edge[1]] = str(len(names))
                order.append(edge[1])
                queue.append(edge[1])
    return MealyMachine(
        states=tuple(names[s] for s in order),
        inputs=inputs,
        outputs=tuple(sorted(fsm.outputs)),
        initial="0",
        transitions={(names[s], i): (o, names[t]) for (s, i), (o, t) in fsm.transitions.items() if s in names},
    )


def deque_canonical_tfsm(machine):
    """``canonical_tfsm`` with its own deque loop, scanning all transitions for each state's targets."""
    names = {machine.initial: "0"}
    order = [machine.initial]
    queue = deque([machine.initial])
    while queue:
        s = queue.popleft()
        targets = [t.target for t in machine.transitions if t.source == s]
        timeout = machine.timeouts[s]
        if timeout.target is not None:
            targets.append(timeout.target)
        for target in targets:
            if target not in names:
                names[target] = str(len(names))
                order.append(target)
                queue.append(target)
    return TimedMachine(
        states=tuple(names[s] for s in order),
        inputs=tuple(sorted(machine.inputs)),
        outputs=tuple(sorted(machine.outputs)),
        initial="0",
        transitions=tuple(
            Transition(names[t.source], t.input, t.guard, t.output, names[t.target])
            for t in machine.transitions
            if t.source in names
        ),
        timeouts={
            names[s]: Timeout(
                machine.timeouts[s].bound,
                names[machine.timeouts[s].target] if machine.timeouts[s].target is not None else None,
            )
            for s in order
        },
    )


def assert_same_fsm(fast, slow):
    """Equal machines, with states and transitions in equal order."""
    assert fast == slow
    assert list(fast.transitions.items()) == list(slow.transitions.items())


def clock_values(n, rng):
    """Each integer up to past ``n``, each open-interval midpoint, far past ``n``, and random rationals."""
    values = [Fraction(k) for k in range(n + 3)]
    values += [Fraction(2 * k + 1, 2) for k in range(n + 2)]
    values += [Fraction(10 ** 6), Fraction(3 * 10 ** 6 + 1, 3)]
    for _ in range(8):
        den = rng.randint(1, 7)
        values.append(Fraction(rng.randint(0, (n + 2) * den), den))
    return values


def test_step_matches_the_linear_scan():
    rng = random.Random(57721)
    compared = 0
    for machine in machine_pool():
        values = clock_values(max_constant(machine), rng)
        for s in machine.states:
            for symbol in machine.inputs + ("undeclared",):
                for x in values:
                    config = TimedState(s, x)
                    assert step(machine, config, symbol) == scan_step(machine, config, symbol), (
                        f"{machine}\nat {config} on {symbol}"
                    )
                    compared += 1
    assert compared > 50_000


def test_input_moves_match_the_guard_scan():
    compared = 0
    for machine in machine_pool():
        view = TickView(machine)
        for s in machine.states:
            for interval in interval_set(view.n_max):
                moves = [(i, edge) for i, edge in view.moves((s, interval.region)) if i != TICK]
                scanned = scan_input_moves(machine, s, interval)
                assert moves == [(i, (o, (target, 0))) for i, o, target in scanned], (
                    f"{machine}\nat ({s},{interval})"
                )
                compared += 1
    assert compared > 10_000


def test_tick_successor_matches_the_interval_cases():
    compared = 0
    for machine in machine_pool():
        view = TickView(machine)
        n = view.n_max
        for s in machine.states:
            for interval in interval_set(n):
                succ = view.tick((s, interval.region))
                expected = interval_tick_successor(machine, n, s, interval)
                if expected is not None:
                    expected = (expected[0], expected[1].region)
                assert succ == expected, f"{machine}\nat ({s},{interval})"
                assert (succ is not None) == admissible(machine, s, interval)
                compared += 1
    assert compared > 10_000


def test_guard_regions_round_trip_and_cover_exactly_the_guard():
    guards = list(every_guard(8))
    assert len(guards) == 171
    for g in guards:
        first, last = g.regions
        assert Guard.of_regions(first, last) == g
        assert grid_regions(g) == list(range(first, min(last, 19) + 1)), g


def test_guards_disjoint_matches_the_half_integer_grid():
    covered = {g: set(grid_regions(g)) for g in every_guard(8)}
    for g1, points1 in covered.items():
        for g2, points2 in covered.items():
            assert guards_disjoint(g1, g2) == points1.isdisjoint(points2), (g1, g2)


def test_timeout_fit_matches_the_half_integer_grid():
    for g in every_guard(8):
        covered = grid_regions(g)
        for bound in range(1, 10):
            machine = TimedMachine(
                ("s",), ("i",), ("o",), "s",
                (Transition("s", "i", g, "o", "s"),), {"s": Timeout(bound, "s")},
            )
            reported = any("not below the timeout bound" in p for p in validate_tfsm(machine))
            assert reported == any(k >= 2 * bound for k in covered), (g, bound)


def test_merge_guards_matches_the_endpoint_cases_on_refined_machines():
    # The 200 tick machines of the refinement criterion: the same seed, and
    # the same 20 words drawn after each machine, so the same machines.
    rng = random.Random(16180)
    merged = 0
    for _ in range(200):
        fsm = random_time_progressive_fsm(rng)
        unmerged, fast = refine(fsm, merge=False), refine(fsm)
        assert fast == interval_merge_guards(unmerged), f"{fsm}"
        merged += len(unmerged.transitions) - len(fast.transitions)
        for _ in range(20):
            random_timed_word(rng, fast.inputs)
    assert merged > 0


def random_overlapping_tfsm(rng):
    """A machine with overlapping guards per (state, input).

    Guards tie in their first region, run unbounded, overlap three or more
    at a time, and leave states that are not declared.
    """
    states = ("s0", "s1", "s2")
    sources = states + ("ghost",)
    transitions = []
    for _ in range(rng.randint(2, 10)):
        source, i = rng.choice(sources), rng.choice(("i1", "i2"))
        guard = random_guard(rng, 4)
        group = [guard]
        if rng.random() < 0.4:
            # Same first region, a different end.
            group.append(Guard(guard.lower, None, guard.lower_closed, False))
        group += [random_guard(rng, 4) for _ in range(rng.randint(0, 3))]
        for g in group:
            transitions.append(Transition(source, i, g, rng.choice(("o1", "o2")), rng.choice(sources)))
    timeouts = {s: rng.choice((Timeout(None), Timeout(rng.randint(1, 5), rng.choice(sources)))) for s in states}
    return TimedMachine(states, ("i1", "i2"), ("o1", "o2"), "s0", tuple(transitions), timeouts)


def test_validate_tfsm_matches_the_grouped_overlap_scan():
    rng = random.Random(141421)
    corpus = [parse_document(path.read_text()).body for path in sorted(MACHINES.glob("*.tfsm"))]
    for machine in [*machine_pool(), *corpus]:
        assert validate_tfsm(machine) == grouped_validate_tfsm(machine) == []
    seen = {"overlapping": 0, "tied": 0, "unbounded": 0, "three-way": 0, "undeclared source": 0}
    for _ in range(1200):
        machine = random_overlapping_tfsm(rng)
        problems = validate_tfsm(machine)
        assert problems == grouped_validate_tfsm(machine), f"{machine}"
        if any(p.startswith("nondeterministic") for p in problems):
            seen["overlapping"] += 1
        for s, by_input in machine.guard_index().items():
            for starts, ends, _ in by_input.values():
                overlaps = {(a, b) for a, b in combinations(range(len(starts)), 2) if ends[a] >= starts[b]}
                seen["tied"] += any(starts[a] == starts[b] for a, b in overlaps)
                seen["unbounded"] += any(ends[a] == math.inf for a, _ in overlaps)
                triples = combinations(range(len(starts)), 3)
                seen["three-way"] += any({(a, b), (a, c), (b, c)} <= overlaps for a, b, c in triples)
                seen["undeclared source"] += bool(overlaps) and s not in machine.states
    assert seen["overlapping"] >= 1000 and min(seen.values()) > 100, seen


def bisimulation_variants(machine, fsm, rng):
    """Relations near the canonical one: itself, drops, redirects, intervals outside the partition, unknown states."""
    base = canonical_bisimulation(machine, fsm).pairs
    yield base
    n = max_constant(machine)
    outside = [ClockInterval.open(n), ClockInterval.point(n + 2)]
    if n > 0:
        outside.append(ClockInterval.tail(n - 1))
    ordered = sorted(base, key=lambda p: (p[0][0], p[0][1].region, p[1]))
    for pair in rng.sample(ordered, min(len(ordered), 6)):
        (state, interval), r = pair
        dropped = base - {pair}
        yield dropped
        yield dropped | {((state, interval), rng.choice(fsm.states))}
        for other in outside:
            yield base | {((state, other), r)}
            yield dropped | {((state, other), r)}
        yield base | {(("ghost", interval), r)}
        yield base | {((state, interval), "ghost")}


def dead_tick_variants(machine, rng):
    """The full abstraction with a tick edge added at an inadmissible configuration, related to it.

    Some variants also give that configuration an edge on a declared input
    or on the undeclared input ``!u``, so condition 4 has two violations
    there and reports the one whose input sorts first.
    """
    full = abstract(machine, keep_unreachable=True)
    n = max_constant(machine)
    dead = [(s, iv) for s in machine.states for iv in interval_set(n) if not admissible(machine, s, iv)]
    for config in rng.sample(dead, min(len(dead), 2)):
        name = abstract_state_name(*config)
        # A tick answered with the tick, then with an ordinary output.
        for output in (TICK, machine.outputs[0]):
            for extra in (None, machine.inputs[0], "!u"):
                transitions = dict(full.transitions)
                transitions[(name, TICK)] = (output, name)
                if extra is not None:
                    transitions[(name, extra)] = (machine.outputs[0], name)
                fsm = MealyMachine(full.states, full.inputs, full.outputs, full.initial, transitions)
                yield fsm, canonical_bisimulation(machine, fsm).pairs | {(config, name)}


def renamed_inputs(machine):
    """The same machine with its inputs renamed to ``0`` and ``!a``, which sort before the tick symbol."""
    rename = dict(zip(machine.inputs, ("0", "!a")))
    return TimedMachine(
        machine.states, tuple(rename[i] for i in machine.inputs), machine.outputs, machine.initial,
        tuple(Transition(t.source, rename[t.input], t.guard, t.output, t.target) for t in machine.transitions),
        machine.timeouts,
    )


def test_check_bisimulation_matches_the_interval_checker():
    rng = random.Random(1414213)
    pool = machine_pool()[:80]
    # Inputs renamed to sort before the tick, so condition 4 meets the tick among them.
    renamed = [renamed_inputs(machine) for machine in pool[:40]]
    verdicts = {}
    tick_or_input = {}
    for machine, other in [*zip(pool, pool[1:] + pool[:1]), *zip(renamed, renamed[1:] + renamed[:1])]:
        # Its own abstraction, and another machine's, where more pairs fail.
        cases = [
            (fsm, pairs)
            for fsm in (abstract(machine), abstract(other))
            for pairs in bisimulation_variants(machine, fsm, rng)
        ]
        cases += dead_tick_variants(machine, rng)
        for fsm, pairs in cases:
            relation = BisimRelation(pairs)
            fast = check_bisimulation(machine, fsm, relation)
            assert fast == interval_check_bisimulation(machine, fsm, relation), f"{machine}\n{sorted(pairs, key=str)}"
            kind = (fast.ok, fast.condition)
            verdicts[kind] = verdicts.get(kind, 0) + 1
            if fast.condition == 4:
                r = fast.pair[1]
                bad_tick = fsm.transitions.get((r, TICK), (TICK,))[0] != TICK
                if bad_tick and any(source == r and i != TICK for source, i in fsm.transitions):
                    # A bad tick and an input edge at a dead configuration: the first in input order is named.
                    first = "tick" if "answers the tick" in fast.detail else fast.detail.split()[3]
                    tick_or_input[first] = tick_or_input.get(first, 0) + 1
    # Acceptance, each of the five conditions and the unknown-state reports must all occur.
    assert set(verdicts) == {(True, None), (False, None), (False, 0), (False, 1), (False, 2), (False, 3), (False, 4)}, (
        verdicts
    )
    assert sum(verdicts.values()) > 5_000
    # The tick is reported before i1, and after 0 and the undeclared !u.
    assert set(tick_or_input) == {"tick", "0", "!u"}, tick_or_input
@pytest.mark.parametrize("merge", [True, False])
def test_refine_matches_the_eager_loop_on_intersections(merge):
    rng = random.Random(264575)
    # Two independent pairs at N=32, whose products have about a thousand states.
    wide = [tuple(random_tfsm(rng, max_constant=32, inputs=("i1", "i2")) for _ in range(2)) for _ in range(2)]
    dropped = 0
    with budget(30):
        for a, b in [*criterion_pairs(173205, 100), *wide]:
            fsm = product(abstract(a), abstract(b))
            fast, slow = refine(fsm, merge), eager_refine(fsm, merge)
            assert fast == slow
            assert fast.states == slow.states
            dropped += len(fsm.states) - len(fast.states)
    # Unreachable product states must occur, or the on-demand walk is not exercised.
    assert dropped > 0


def exits_inside_an_interval(fsm, start):
    """Does the delay walk from ``start`` re-enter a visited state inside some (n,n+1)?"""
    seen, state = {start}, start
    while (state := fsm.transitions[(state, TICK)][1]) not in seen:
        seen.add(state)
    return len(seen) % 2 == 1


def chain_walk(fsm, s):
    """The delay walk of ``s`` over its tick chain against itself, as a machine with ``s``'s transitions and timeout."""
    chain = _TickChain(fsm)
    runs, (bound, (target, _)) = _delay_walk(chain, chain, (s, 0), (s, 0), fsm.user_inputs)
    transitions = [Transition(s, i, g, o, t[0]) for i, g, (o, (t, _)) in runs]
    return TimedMachine(fsm.states, fsm.user_inputs, fsm.user_outputs, s, transitions, {s: Timeout(bound, target[0])})


def test_refine_state_matches_the_tick_by_tick_walk():
    rng = random.Random(223606)
    machines = [random_time_progressive_fsm(rng) for _ in range(2000)]
    machines += [minimize(abstract(machine)) for machine in machine_pool()]
    walks = inside = 0
    for fsm in machines:
        for s in fsm.states:
            transitions, timeout = tick_by_tick_refine_state(fsm, s)
            slow = TimedMachine(fsm.states, fsm.user_inputs, fsm.user_outputs, s, transitions, {s: timeout})
            assert chain_walk(fsm, s) == interval_merge_guards(slow), f"{fsm}\n{s}"
            walks += 1
            inside += exits_inside_an_interval(fsm, s)
    # Both exits must occur often, or one branch of the walk is not exercised.
    assert inside > 1000 and walks - inside > 1000


def open_tail_tie():
    """Pool machine 1 (N=4) with its canonical relation plus open(4) and tail(4) pairs, which share region 9."""
    machine = machine_pool()[1]
    fsm = abstract(machine)
    extra = {(("s1", interval), "s0,[0,0]") for interval in (ClockInterval.open(4), ClockInterval.tail(4))}
    return machine, fsm, BisimRelation(canonical_bisimulation(machine, fsm).pairs | extra)


def test_check_bisimulation_sweep_order_does_not_depend_on_the_hash_seed():
    script = (
        "from test_fast_paths import open_tail_tie; from tfsm import check_bisimulation; "
        "print(check_bisimulation(*open_tail_tie()))"
    )
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    verdicts = {
        subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": path},
            capture_output=True, text=True, check=True,
        ).stdout
        for seed in range(1, 5)
    }
    # Both extra pairs fail condition 1; the sweep must report the same one under every seed.
    assert verdicts == {f"{interval_check_bisimulation(*open_tail_tie())}\n"}, verdicts
    assert "kind='open', n=4" in verdicts.pop()


@pytest.mark.parametrize("keep_unreachable", [False, True])
def test_minimize_matches_moore_on_pool_abstractions(keep_unreachable):
    merged = sum(
        assert_minimize_matches_moore(abstract(machine, keep_unreachable=keep_unreachable))
        for machine in machine_pool()
    )
    # Reachable states must merge, or the splitting is not exercised.
    assert merged > 0


def test_minimize_matches_moore_on_partial_machines():
    rng = random.Random(141421)
    merged = 0
    for k in range(2000):
        fsm = random_time_progressive_fsm(rng, max_states=rng.choice((4, 12, 30)))
        if k % 2:
            # Drop tick edges too, so that every input is partial.
            fsm = MealyMachine(
                fsm.states, fsm.inputs, fsm.outputs, fsm.initial,
                {key: edge for key, edge in fsm.transitions.items() if key[1] != TICK or rng.random() < 0.5},
            )
        merged += assert_minimize_matches_moore(fsm)
    assert merged > 0


def test_minimize_matches_moore_on_the_handover_blinker_product(handover, blinker):
    assert assert_minimize_matches_moore(product(abstract(handover), abstract(blinker))) > 0


def test_minimize_keeps_a_long_tick_chain_in_time():
    # Each state is one tick further from the only state that reads ``i``,
    # so nothing merges, and Moore rounds would need one round per state.
    states = tuple(f"c{k}" for k in range(2000))
    transitions = {(s, TICK): (TICK, t) for s, t in zip(states, states[1:] + states[-1:])}
    transitions[(states[-1], "i")] = ("o", states[0])
    chain = MealyMachine(states, ("i", TICK), ("o", TICK), states[0], transitions)
    with budget(1):
        small = minimize(chain)
    assert small == chain


def reversed_inputs(machine):
    """The same machine with its inputs declared in reverse order."""
    return TimedMachine(
        machine.states, machine.inputs[::-1], machine.outputs, machine.initial,
        machine.transitions, machine.timeouts,
    )


@pytest.mark.parametrize("keep_unreachable", [False, True])
def test_abstract_matches_the_interval_abstraction(keep_unreachable):
    for machine in machine_pool():
        for m in (machine, reversed_inputs(machine)):
            fast, slow = abstract(m, keep_unreachable), eager_abstract(m, keep_unreachable)
            assert fast == slow, f"{m}"
            assert list(fast.transitions.items()) == list(slow.transitions.items())


def test_tfsm_equivalent_matches_the_built_abstractions():
    rng = random.Random(662607015)
    apart = other_n = other_inputs = 0
    for k in range(400):
        # Every third machine declares its inputs out of sorted order.
        inputs = ("b", "a") if k % 3 == 0 else None
        a = random_tfsm(rng, max_constant=rng.choice((2, 4)), inputs=inputs)
        shape = k % 5
        if shape == 0:
            b = refine(abstract(a))
        elif shape == 1:
            b = reversed_inputs(a)
        elif shape == 2:
            # The same machine with one timeout bound moved: mismatches lie deep.
            timeouts = dict(a.timeouts)
            s = rng.choice(a.states)
            t = timeouts[s]
            if t.bound is not None:
                timeouts[s] = Timeout(t.bound + 1, t.target)
            b = TimedMachine(a.states, a.inputs, a.outputs, a.initial, a.transitions, timeouts)
        elif shape == 3:
            b = random_tfsm(rng, max_constant=rng.choice((1, 3, 6)), inputs=a.inputs)
        else:
            b = random_tfsm(rng, max_constant=rng.choice((2, 4)))
        fast, slow = tfsm_equivalent(a, b), eager_tfsm_equivalent(a, b)
        assert fast == slow, f"{a}\n{b}"
        apart += not fast.equivalent
        other_n += max_constant(a) != max_constant(b)
        other_inputs += set(a.inputs) != set(b.inputs)
    # Both verdicts, and pairs across N and across alphabets, must occur.
    assert 0 < apart < 400
    assert other_n > 50 and other_inputs > 20


def split_at_timeout(machine, state, bound):
    """``machine`` with ``state`` (which never times out) handing over at ``bound`` to a copy of its later part.

    The copy keeps the guards from ``bound`` on, shifted down by it, and
    never times out itself, so the behavior is unchanged.
    """
    copy, cut = f"{state}'", 2 * bound
    transitions = []
    for t in machine.transitions:
        if t.source != state:
            transitions.append(t)
            continue
        first, last = t.guard.regions
        if first < cut:
            early = Guard.of_regions(first, min(last, cut - 1))
            transitions.append(Transition(state, t.input, early, t.output, t.target))
        if last >= cut:
            late = Guard.of_regions(max(first, cut) - cut, last - cut)
            transitions.append(Transition(copy, t.input, late, t.output, t.target))
    timeouts = {**machine.timeouts, state: Timeout(bound, copy), copy: Timeout(None)}
    return TimedMachine(
        machine.states + (copy,), machine.inputs, machine.outputs, machine.initial, transitions, timeouts,
    )


def one_edit(rng, machine):
    """``machine`` with one output, target, timeout bound (+-1) or guard endpoint (one region) changed.

    The result is valid; ``machine`` itself comes back when fifty tries find no such edit.
    """
    for _ in range(50):
        transitions, timeouts = list(machine.transitions), dict(machine.timeouts)
        kind = rng.randrange(4)
        if kind == 2 or not transitions:
            state = rng.choice(machine.states)
            t = timeouts[state]
            if t.bound is None:
                continue
            timeouts[state] = Timeout(max(1, t.bound + rng.choice((-1, 1))), t.target)
        else:
            k = rng.randrange(len(transitions))
            t = transitions[k]
            if kind == 0:
                transitions[k] = Transition(t.source, t.input, t.guard, rng.choice(machine.outputs), t.target)
            elif kind == 1:
                transitions[k] = Transition(t.source, t.input, t.guard, t.output, rng.choice(machine.states))
            else:
                first, last = t.guard.regions
                if last == math.inf or rng.random() < 0.5:
                    first += rng.choice((-1, 1))
                else:
                    last += rng.choice((-1, 1))
                if not 0 <= first <= last:
                    continue
                transitions[k] = Transition(t.source, t.input, Guard.of_regions(first, last), t.output, t.target)
        edited = TimedMachine(machine.states, machine.inputs, machine.outputs, machine.initial, transitions, timeouts)
        if edited != machine and not validate_tfsm(edited):
            return edited
    return machine


def with_unreachable_state(machine, top):
    """``machine`` plus the input ``x`` and a state nothing enters, whose constants raise the largest to ``top``."""
    timeouts = {**machine.timeouts, "u": Timeout(top, machine.initial)}
    guard = Transition("u", machine.inputs[0], Guard(top - 1, top, False, False), machine.outputs[0], "u")
    return TimedMachine(
        machine.states + ("u",), machine.inputs + ("x",), machine.outputs, machine.initial,
        machine.transitions + (guard,), timeouts,
    )


def breakpoint_walk_pairs(seed, count):
    """Seeded pairs for the breakpoint walk: round trips, one-edit perturbations, other N and alphabets."""
    rng = random.Random(seed)
    for k in range(count):
        n = rng.choice((1, 2, 3, 4, 4, 6, 8, 12, 16, 24, 32, 64) if k % 4 else (2, 4))
        a = random_tfsm(rng, max_constant=n)
        shape = k % 6
        if shape == 0:
            b = refine(abstract(a), merge=rng.random() < 0.5)
        elif shape == 1:
            b = one_edit(rng, a)
        elif shape == 2:
            # Equal behavior over a larger N and one more declared input, or another machine.
            if rng.random() < 0.6:
                b = with_unreachable_state(a, max_constant(a) + rng.randint(1, 64 - n + 1))
            else:
                b = random_tfsm(rng, max_constant=rng.choice((1, 3, 6, 16)), inputs=a.inputs)
        elif shape == 3:
            # Another input alphabet: one more input, undefined or defined at one state, or a machine over others.
            if rng.random() < 0.6:
                extra = [Transition(rng.choice(a.states), "x", Guard.point(0), a.outputs[0], a.initial)]
                transitions = a.transitions + tuple(extra[: rng.randrange(2)])
                b = TimedMachine(a.states, a.inputs + ("x",), a.outputs, a.initial, transitions, a.timeouts)
            else:
                b = random_tfsm(rng, max_constant=n, max_inputs=3)
        elif shape == 4:
            # A state waiting forever on one side only: cut at a timeout, or its bound made infinite.
            patient = [s for s in a.states if a.timeouts[s].bound is None]
            if patient and rng.random() < 0.7:
                b = split_at_timeout(a, rng.choice(patient), rng.randint(1, n + 1))
            else:
                timeouts = {**a.timeouts, rng.choice(a.states): Timeout(None)}
                b = TimedMachine(a.states, a.inputs, a.outputs, a.initial, a.transitions, timeouts)
        else:
            b = one_edit(rng, refine(abstract(a)))
        yield a, b


def test_tfsm_equivalent_matches_the_region_by_region_search():
    pairs = 0
    verdicts = [0, 0]
    other_n = other_inputs = infinite_one_side = 0
    for a, b in breakpoint_walk_pairs(299792458, 3000):
        assert not validate_tfsm(a) and not validate_tfsm(b)
        for x, y in ((a, b), (b, a)):
            fast, slow = tfsm_equivalent(x, y), region_tfsm_equivalent(x, y)
            assert fast == slow, f"{x}\n{y}"
        pairs += 1
        verdicts[fast.equivalent] += 1
        other_n += max_constant(a) != max_constant(b)
        other_inputs += set(a.inputs) != set(b.inputs)
        infinite_one_side += any(
            s in b.timeouts and (a.timeouts[s].bound is None) != (b.timeouts[s].bound is None) for s in a.states
        )
    # Both verdicts make up at least a fifth; pairs across N, alphabets and waiting states occur.
    assert min(verdicts) >= pairs // 5, verdicts
    assert other_n > 1000 and other_inputs > 500 and infinite_one_side > 500


def _tfsm(name, inputs, states, lines):
    """A timed machine from its header fields and its timeout and transition lines."""
    text = f"tfsm {name}\ninputs {inputs}\noutputs o1 o2\nstates {states}\ninitial {states.split()[0]}\n"
    return parse_document(text + "".join(f"{line}\n" for line in lines)).body


# Hand-written pairs: states, the lines both machines share, the first's inputs and lines, the second's,
# and the separating word both searches must give with the first machine named first.
SEPARATION_CASES = {
    # From A, "i i i" and "@t @t i" both part the machines: the input comes before the tick.
    "an input and the tick tie": (
        "A B C D",
        ["timeout A 1 -> C", "timeout B inf", "timeout C inf", "timeout D inf",
         "trans A i [0,1) / o1 -> B", "trans B i [0,inf) / o1 -> D"],
        ("i", ["trans C i [0,inf) / o1 -> C", "trans D i [0,inf) / o1 -> D"]),
        ("i", ["trans C i [0,inf) / o2 -> C", "trans D i [0,inf) / o2 -> D"]),
        "(i, 0) (i, 0) (i, 0)",
    ),
    # Only the second machine declares x, which B answers once A has timed out.
    "only an input of the second machine parts them": (
        "A B",
        ["timeout A 1 -> B", "timeout B inf", "trans A i [0,1) / o1 -> A"],
        ("i", []),
        ("i x", ["trans B x [0,inf) / o1 -> B"]),
        "(x, 1)",
    ),
    # At B the machines disagree on i and on x: the first machine's input comes first.
    "an input of the first machine before one of the second": (
        "A B",
        ["timeout A 1 -> B", "timeout B inf", "trans A i [0,1) / o1 -> A"],
        ("i", []),
        ("i x", ["trans B x [0,inf) / o1 -> B", "trans B i [0,inf) / o1 -> B"]),
        "(i, 1)",
    ),
    # The first machine's A never times out, so its stretch from (0,1) on has no end; the second's ends at 3.
    "the mismatch lies behind a tail": (
        "A B",
        ["timeout B inf", "trans A i [0,1) / o1 -> A", "trans B i [0,inf) / o2 -> B"],
        ("i", ["timeout A inf"]),
        ("i", ["timeout A 3 -> B"]),
        "(i, 3)",
    ),
    # "@t i @t @t @t i" reaches X and "@t @t @t i @t i" reaches Y: four ticks each, split 1 + 3 and 3 + 1.
    "tick runs of equal total length": (
        "A X Y",
        ["timeout A inf", "timeout X inf", "timeout Y inf", "trans A i (0,1) / o1 -> X", "trans A i (1,2) / o1 -> Y"],
        ("i", ["trans X i (1,2) / o1 -> X", "trans Y i (0,1) / o1 -> Y"]),
        ("i", ["trans X i (1,2) / o2 -> X", "trans Y i (0,1) / o2 -> Y"]),
        "(i, 1/2) (i, 2)",
    ),
    # Ten ticks reach E, four inputs reach D: a tick run costs its length, not one step.
    "a long tick run against several inputs": (
        "A B C D E",
        ["timeout A 5 -> E", "timeout B inf", "timeout C inf", "timeout D inf", "timeout E inf",
         "trans A i [0,5) / o1 -> B", "trans B i [0,inf) / o1 -> C", "trans C i [0,inf) / o1 -> D"],
        ("i", ["trans D i [0,inf) / o1 -> D", "trans E i [0,inf) / o1 -> E"]),
        ("i", ["trans D i [0,inf) / o2 -> D", "trans E i [0,inf) / o2 -> E"]),
        "(i, 0) (i, 0) (i, 0) (i, 0)",
    ),
}


@pytest.mark.parametrize("case", SEPARATION_CASES)
def test_tfsm_equivalent_breaks_ties_as_the_region_by_region_search(case):
    states, common, (inputs_a, lines_a), (inputs_b, lines_b), expected = SEPARATION_CASES[case]
    a, b = _tfsm("a", inputs_a, states, common + lines_a), _tfsm("b", inputs_b, states, common + lines_b)
    assert not validate_tfsm(a) and not validate_tfsm(b)
    for x, y in ((a, b), (b, a)):
        fast = tfsm_equivalent(x, y)
        assert fast == region_tfsm_equivalent(x, y)
        assert str(fast.counterexample) == expected


def test_tfsm_equivalent_matches_the_region_by_region_search_at_wide_n():
    rng = random.Random(662607)
    verdicts, longest = [0, 0], 0
    with budget(10):
        for k in range(90):
            n, inputs = rng.choice((128, 256, 512)), ("i1", "i2")[: rng.randint(1, 2)]
            if k % 2 == 0:
                a = random_tfsm(rng, max_states=3, max_constant=n, inputs=inputs)
            else:
                bounds = coprime_bounds(rng)
                a = lasso_machine(rng, [x * (n // 5) for x in bounds], rng.randrange(len(bounds)), inputs)
            shape = k % 6 // 2
            if shape == 0:
                b = one_edit(rng, a)
            elif shape == 1:
                b = reversed_inputs(one_edit(rng, a) if rng.random() < 0.3 else a)
            else:
                # A timeout lasso whose bounds are one more than multiples of N/5: its cycle is out of step with a's.
                bounds = coprime_bounds(rng, 5)
                b = lasso_machine(rng, [x * (n // 5) + 1 for x in bounds], rng.randrange(len(bounds)), inputs[::-1])
            for x, y in ((a, b), (b, a)):
                fast = tfsm_equivalent(x, y)
                assert fast == region_tfsm_equivalent(x, y), f"{x}\n{y}"
            verdicts[fast.equivalent] += 1
            longest = max(longest, fast.counterexample[-1][1] if fast.counterexample else 0)
    # Both verdicts occur, and some separating word waits past several hundred time units.
    assert min(verdicts) >= 10 and longest > 300, (verdicts, longest)


def test_equivalent_matches_the_prefix_search():
    rng = random.Random(161803398)
    apart = 0
    for k in range(2000):
        a = random_time_progressive_fsm(rng, max_states=rng.choice((4, 12, 30)))
        if k % 3 == 0:
            b = minimize(a)
        elif k % 3 == 1:
            b = random_time_progressive_fsm(rng, max_states=rng.choice((4, 12, 30)))
        else:
            # One edge dropped or redirected: the machines may part far from the start.
            key = rng.choice(sorted(a.transitions))
            transitions = dict(a.transitions)
            if rng.random() < 0.5:
                del transitions[key]
            else:
                transitions[key] = (transitions[key][0], rng.choice(a.states))
            b = MealyMachine(a.states, a.inputs, a.outputs, a.initial, transitions)
        fast, slow = equivalent(a, b), prefix_equivalent(a, b)
        assert fast == slow
        apart += not fast.equivalent
    assert 0 < apart < 2000


def test_canonical_bisimulation_matches_the_interval_search():
    pool = machine_pool()
    for machine, other in zip(pool, pool[1:] + pool[:1]):
        # Its own abstraction, and another machine's: there the search stops where they part.
        for fsm in (abstract(machine), abstract(other)):
            relation = canonical_bisimulation(machine, fsm)
            assert relation.pairs == interval_canonical_bisimulation(machine, fsm), f"{machine}"


def test_breadth_first_visits_each_node_once_in_discovery_order():
    graph = {0: [1, 2], 1: [3, 0], 2: [3, 4], 3: [0], 4: [4], 5: [0]}
    calls = []

    def successors(node):
        calls.append(node)
        return graph[node]

    # A repeated start counts once; 5 is never reached.
    order = breadth_first([2, 0, 2], successors)
    assert order == [2, 0, 3, 4, 1]
    assert calls == order
    assert breadth_first([], successors) == []


def criterion_pairs(seed, count):
    """Pairs of random timed machines over one input alphabet, as the intersection criterion draws them."""
    rng = random.Random(seed)
    for _ in range(count):
        inputs = tuple(f"i{k + 1}" for k in range(rng.randint(1, 2)))
        yield random_tfsm(rng, inputs=inputs), random_tfsm(rng, inputs=inputs)


@pytest.mark.parametrize("keep_unreachable", [False, True])
def test_reachable_and_canonical_fsm_match_the_deque_loops(keep_unreachable):
    dropped = 0
    for machine in machine_pool():
        fsm = abstract(machine, keep_unreachable=keep_unreachable)
        for m in (fsm, minimize(fsm)):
            fast = reachable(m)
            assert_same_fsm(fast, deque_reachable(m))
            assert_same_fsm(canonical_fsm(m), deque_canonical_fsm(m))
            dropped += len(m.states) - len(fast.states)
    # Unreachable states must occur exactly when they are kept.
    assert (dropped > 0) == keep_unreachable


def test_product_matches_the_deque_loop():
    sizes = set()
    for a, b in criterion_pairs(14142, 100):
        fa, fb = abstract(a), abstract(b)
        for left, right in ((fa, fb), (fa, minimize(fa)), (minimize(fb), fa)):
            meet = product(left, right)
            assert_same_fsm(meet, deque_product(left, right))
            sizes.add(len(meet.states))
    assert len(sizes) > 20


def test_canonical_tfsm_matches_the_deque_loop():
    machines = list(machine_pool())
    machines += [refine(product(abstract(a), abstract(b))) for a, b in criterion_pairs(173205, 100)]
    dropped = 0
    for machine in machines:
        fast, slow = canonical_tfsm(machine), deque_canonical_tfsm(machine)
        assert fast == slow, f"{machine}"
        assert list(fast.timeouts.items()) == list(slow.timeouts.items())
        dropped += len(machine.states) - len(fast.states)
    # Unreachable states must occur, or the search is not exercised.
    assert dropped > 0


def paper_tfsm_intersect(a, b):
    """``tfsm_intersect`` as the paper builds it: untime both machines, intersect the Mealy machines, retime."""
    return refine(product(abstract(a), abstract(b)))


def lasso_machine(rng, bounds, back_to, inputs, outputs=("o1", "o2")):
    """States ``s0, s1, ...`` that time out each to the next with ``bounds``; the last goes back to ``s<back_to>``.

    A bound of ``None`` waits forever there.  Each (state, input) gets up to
    two random guards below the state's bound.
    """
    states = tuple(f"s{k}" for k in range(len(bounds)))
    timeouts = {
        s: Timeout(bound, states[k + 1] if k + 1 < len(states) else states[back_to]) if bound else Timeout(None)
        for k, (s, bound) in enumerate(zip(states, bounds))
    }
    transitions = []
    for s, bound in zip(states, bounds):
        top = 2 * bound - 1 if bound else 2 * max(b or 1 for b in bounds) + 1
        for i in inputs:
            first, last = sorted(rng.randint(0, top) for _ in range(2))
            mid = rng.randint(first, last)
            if not bound and rng.random() < 0.5:
                last = math.inf
            for guard in ((first, mid), (mid + 1, last)):
                if guard[0] <= guard[1] and rng.random() < 0.7:
                    g = Guard.of_regions(*guard)
                    transitions.append(Transition(s, i, g, rng.choice(outputs), rng.choice(states)))
    return TimedMachine(states, inputs, outputs, states[0], transitions, timeouts)


def coprime_bounds(rng, other_total=None):
    """Two to four timeout bounds whose sum is coprime to ``other_total``."""
    while True:
        bounds = [rng.randint(1, 5) for _ in range(rng.randint(2, 4))]
        if other_total is None or math.gcd(sum(bounds), other_total) == 1:
            return bounds


def intersect_pairs(seed, count):
    """Seeded pairs for the intersection walk.

    Criterion pairs, mixed N with inputs declared in either order, a state
    waiting forever on one side only, timeout cycles of coprime lengths, a
    long lead into a cycle or a tail against a short cycle, round trips and
    one-edit copies; every fifth second machine declares its outputs in
    another order.
    """
    rng = random.Random(seed)
    criterion = criterion_pairs(seed, count)
    for k in range(count):
        shape = k % 7
        inputs = ("i1", "i2")[: rng.randint(1, 2)]
        swapped = inputs[::-1] if rng.random() < 0.5 else inputs
        if shape == 0:
            a, b = next(criterion)
        elif shape == 1:
            n1, n2 = rng.choice((1, 2, 4, 8, 16)), rng.choice((1, 2, 3, 6, 12))
            a = random_tfsm(rng, max_constant=n1, inputs=inputs)
            b = random_tfsm(rng, max_constant=n2, inputs=swapped)
        elif shape == 2:
            a = random_tfsm(rng, max_constant=rng.choice((2, 4, 8)), inputs=inputs)
            patient = [s for s in a.states if a.timeouts[s].bound is None]
            if patient and rng.random() < 0.5:
                b = split_at_timeout(a, rng.choice(patient), rng.randint(1, 6))
            else:
                timeouts = {**a.timeouts, rng.choice(a.states): Timeout(None)}
                b = TimedMachine(a.states, a.inputs, a.outputs, a.initial, a.transitions, timeouts)
            if rng.random() < 0.5:
                b = one_edit(rng, b)
        elif shape == 3:
            bounds_a = coprime_bounds(rng)
            a = lasso_machine(rng, bounds_a, rng.randrange(len(bounds_a)), inputs)
            bounds_b = coprime_bounds(rng, sum(bounds_a[a.states.index(a.timeouts[a.states[-1]].target):]))
            b = lasso_machine(rng, bounds_b, 0, swapped)
        elif shape == 4:
            lead = [rng.randint(4, 12) for _ in range(rng.randint(1, 3))]
            a = lasso_machine(rng, lead + [rng.choice((None, 1, 2))], len(lead), inputs)
            b = lasso_machine(rng, [rng.randint(1, 2) for _ in range(rng.randint(1, 2))], 0, swapped)
            if rng.random() < 0.5:
                a, b = b, a
        elif shape == 5:
            a = random_tfsm(rng, max_constant=rng.choice((1, 2, 4, 8)), inputs=inputs)
            b = rng.choice((a, refine(abstract(a), merge=rng.random() < 0.5), minimize_round_trip(a)))
        else:
            a = random_tfsm(rng, max_constant=rng.choice((2, 4, 8)), inputs=inputs)
            b = one_edit(rng, rng.choice((a, refine(abstract(a)))))
        if k % 5 == 0:
            # Outputs declared in another order, one of them used by neither machine.
            b = TimedMachine(b.states, b.inputs, ("o3",) + b.outputs[::-1], b.initial, b.transitions, b.timeouts)
        yield a, b


def minimize_round_trip(machine):
    return refine(minimize(abstract(machine)))


def assert_same_intersection(a, b):
    fast, slow = tfsm_intersect(a, b), paper_tfsm_intersect(a, b)
    assert fast == slow, f"{a}\n{b}"
    assert fast.states == slow.states and list(fast.timeouts) == list(slow.timeouts)
    return fast


def test_tfsm_intersect_matches_the_paper_construction(monkeypatch):
    walks = []
    delay_walk = refinement._delay_walk

    def recording(a, b, ca, cb, inputs):
        result = delay_walk(a, b, ca, cb, inputs)
        # Only the walks over tick views; the oracle's refine walks its own chains.
        if isinstance(a, TickView):
            (chain_a, mu_a), (chain_b, mu_b) = tick_chain(a, ca), tick_chain(b, cb)
            lam_a, lam_b = len(chain_a) - mu_a, len(chain_b) - mu_b
            end = max(mu_a, mu_b) + math.lcm(lam_a, lam_b)
            # The walk times out where the tick-by-tick chains stand after mu (+1 if end is odd) ticks.
            n = max(mu_a, mu_b) + end % 2
            targets = (chain_a[mu_a + (n - mu_a) % lam_a], chain_b[mu_b + (n - mu_b) % lam_b])
            assert result[1] == ((end + end % 2) // 2, targets), f"{a.machine}\n{b.machine}\n{ca} {cb}"
            walks.append((end % 2, 1 in (lam_a, lam_b)))
        return result

    monkeypatch.setattr(refinement, "_delay_walk", recording)
    pairs = other_n = 0
    for a, b in intersect_pairs(271828, 3000):
        assert not validate_tfsm(a) and not validate_tfsm(b)
        assert_same_intersection(a, b)
        pairs += 1
        other_n += max_constant(a) != max_constant(b)
    # Odd and even exits each make up over a fifth of the walks; walks that reach a tail occur.
    odd, tails = sum(p for p, _ in walks), sum(t for _, t in walks)
    assert pairs == 3000 and other_n > 1000
    assert min(odd, len(walks) - odd) > len(walks) // 5, (odd, len(walks))
    assert tails > len(walks) // 10, (tails, len(walks))


def test_tfsm_intersect_matches_the_paper_construction_on_wide_pairs():
    rng = random.Random(314159)
    sizes = []
    with budget(30):
        # Independent three-state timeout lassos with bounds from N/2 to N: products of 7,000 to 12,000 states.
        for n in (32, 40, 48, 64):
            a, b = (lasso_machine(rng, [rng.randint(n // 2, n) for _ in range(3)], rng.randrange(3), ("i1", "i2"))
                    for _ in range(2))
            assert_same_intersection(a, b)
            sizes.append(len(product(abstract(a), abstract(b)).states))
    assert min(sizes) > 5000, sizes


def test_tfsm_intersect_keeps_the_alphabet_error_of_the_product():
    a, b = next(criterion_pairs(271828, 1))
    wider = TimedMachine(b.states, b.inputs + ("x",), b.outputs, b.initial, b.transitions, b.timeouts)
    for x, y in ((a, wider), (wider, a)):
        with pytest.raises(ValueError) as fast:
            tfsm_intersect(x, y)
        with pytest.raises(ValueError) as slow:
            paper_tfsm_intersect(x, y)
        assert str(fast.value) == str(slow.value)


@pytest.mark.parametrize("bound", [10, 1000])
def test_tfsm_intersect_of_an_edited_ring_matches_the_paper_construction(bound):
    a, b = (parse_document(text).body for text in edited_ring_texts(bound))
    assert len(assert_same_intersection(a, b).states) == 2


def tick_chain(view, config):
    """The configurations ``config`` ticks through, tick by tick, up to the first repeat, and the repeat's index."""
    chain, seen = [config], {config: 0}
    while (succ := view.tick(chain[-1])) not in seen:
        seen[succ] = len(chain)
        chain.append(succ)
    return chain, seen[succ]


def test_lasso_matches_the_tick_by_tick_loop():
    rng = random.Random(141421356)
    machines = machine_pool()[:200]
    for _ in range(100):
        bounds = [rng.randint(1, 9) for _ in range(rng.randint(1, 4))] + [rng.choice((None, 1, 3))]
        machines.append(lasso_machine(rng, bounds, rng.randrange(len(bounds)), ("i",)))
    configs = tails = 0
    for machine in machines:
        view = TickView(machine)
        for config in breadth_first([view.initial], lambda c: (succ for _, (_, succ) in view.moves(c))):
            chain, mu = tick_chain(view, config)
            lam = len(chain) - mu
            assert view.lasso(config) == (mu, lam), f"{machine}\n{config}"
            configs += 1
            tails += lam == 1
    # Both tails and timeout cycles must occur.
    assert configs > 5000 and 1000 < tails < configs - 1000, (configs, tails)


def test_chain_lasso_matches_the_tick_by_tick_loop():
    rng = random.Random(173205080)
    machines = [random_time_progressive_fsm(rng) for _ in range(300)]
    machines += [minimize(abstract(machine)) for machine in machine_pool()[:200]]
    starts = tails = 0
    for fsm in machines:
        chain = _TickChain(fsm)
        for s in fsm.states:
            states, mu = tick_chain(chain, (s, 0))
            lam = len(states) - mu
            assert chain.lasso((s, 0)) == (mu, lam), f"{fsm}\n{s}"
            starts += 1
            tails += lam == 1
    # Both self-ticking tails and longer cycles must occur.
    assert starts > 5000 and 1000 < tails < starts - 1000, (starts, tails)
