"""Guard lookups, on-demand refinement and minimization against the code they replaced.

``step`` and ``input_moves`` find a guard by bisection in the machine's
index of clock regions, ``refine`` walks only the states its result
reaches, and ``minimize`` refines partitions by Hopcroft's algorithm.  The
functions below are the earlier linear guard scans, the eager refinement
loop and the Moore-round minimization, kept as references: the fast paths
must return equal results, in equal order.
"""

import random
from fractions import Fraction

import pytest

from tfsm import (
    TICK,
    MealyMachine,
    TimedMachine,
    TimedState,
    abstract,
    interval_set,
    max_constant,
    merge_guards,
    minimize,
    product,
    refine,
    step,
)
from tfsm.abstraction import admissible, input_moves
from tfsm.fsm_algebra import reachable
from tfsm.refinement import _refine_state, is_time_progressive
from conftest import budget
from machine_gen import machine_pool, random_tfsm, random_time_progressive_fsm


def scan_step(machine, config, symbol):
    """``step`` by testing every transition's guard at the clock value."""
    for t in machine.transitions:
        if t.source == config.state and t.input == symbol and t.guard.contains(config.clock):
            return t.output, TimedState(t.target, Fraction(0))
    return None


def scan_input_moves(machine, state, interval):
    """``input_moves`` by testing every transition's guard at the interval's representative."""
    if not admissible(machine, state, interval):
        return []
    x = interval.representative()
    moves = []
    for t in machine.transitions:
        if t.source == state and t.guard.contains(x):
            moves.append((t.input, t.output, t.target))
    return moves


def eager_refine(fsm, merge=True):
    """``refine`` walking every state first, then dropping those the result does not reach."""
    progress = is_time_progressive(fsm)
    if not progress.ok:
        names = ", ".join(progress.offenders)
        raise ValueError(f"machine is not time-progressive: time cannot pass in {names}")
    for (s, i), (o, _) in sorted(fsm.transitions.items()):
        if i != TICK and o == TICK:
            raise ValueError(f"input {i} at state {s} outputs the tick symbol; cannot be a guarded move")

    refined = {s: _refine_state(fsm, s) for s in fsm.states}

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
    return merge_guards(machine) if merge else machine


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
        for s in machine.states:
            for interval in interval_set(max_constant(machine)):
                assert input_moves(machine, s, interval) == scan_input_moves(machine, s, interval), (
                    f"{machine}\nat ({s},{interval})"
                )
                compared += 1
    assert compared > 10_000


@pytest.mark.parametrize("merge", [True, False])
def test_refine_matches_the_eager_loop_on_intersections(merge):
    rng = random.Random(173205)
    dropped = 0
    for _ in range(100):
        inputs = tuple(f"i{k + 1}" for k in range(rng.randint(1, 2)))
        a = random_tfsm(rng, inputs=inputs)
        b = random_tfsm(rng, inputs=inputs)
        fsm = product(abstract(a), abstract(b))
        fast, slow = refine(fsm, merge), eager_refine(fsm, merge)
        assert fast == slow
        assert fast.states == slow.states
        dropped += len(fsm.states) - len(fast.states)
    # Unreachable product states must occur, or the on-demand walk is not exercised.
    assert dropped > 0


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
