"""Guard lookups, on-demand searches and minimization against the code they replaced.

``step`` and ``input_moves`` find a guard by bisection in the machine's
index of clock regions, ``refine`` walks only the states its result
reaches, ``minimize`` refines partitions by Hopcroft's algorithm,
``abstract`` and ``tfsm_equivalent`` read the tick abstraction on integer
clock regions, the latter without building it, and ``equivalent`` keeps one
parent pointer per pair.  The functions below are the earlier linear guard
scans, the eager refinement loop, the Moore-round minimization, the
abstraction over clock intervals and the equivalence search that carries a
prefix per pair, kept as references: the fast paths must return equal
results, in equal order.
"""

import random
from collections import deque
from fractions import Fraction

import pytest

from tfsm import (
    DEFINEDNESS_MISMATCH,
    OUTPUT_MISMATCH,
    TICK,
    ClockInterval,
    Counterexample,
    EquivalenceVerdict,
    MealyMachine,
    TimedEquivalenceVerdict,
    TimedMachine,
    TimedState,
    Timeout,
    abstract,
    abstract_state_name,
    canonical_bisimulation,
    decode_tick_word,
    equivalent,
    interval_set,
    max_constant,
    merge_guards,
    minimize,
    product,
    refine,
    run,
    step,
    tfsm_equivalent,
)
from tfsm.abstraction import admissible, input_moves, tick_successor
from tfsm.fsm_algebra import _input_order, reachable
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


def prefix_equivalent(a, b):
    """``equivalent`` carrying the whole input prefix of every pair it reaches."""
    inputs = _input_order(a, b)
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
    verdict = prefix_equivalent(eager_abstract(a), eager_abstract(b))
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


def test_tick_successor_matches_the_interval_cases():
    compared = 0
    for machine in machine_pool():
        n = max_constant(machine)
        for s in machine.states:
            for interval in interval_set(n):
                succ = tick_successor(machine, n, s, interval)
                assert succ == interval_tick_successor(machine, n, s, interval), f"{machine}\nat ({s},{interval})"
                assert (succ is not None) == admissible(machine, s, interval)
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
