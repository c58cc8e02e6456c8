"""Seeded random generators and shared helpers for property suites.

Machines come out structurally valid by construction: guards are unions of
contiguous atoms of the clock partition below the state's timeout, so they
are pairwise disjoint per (state, input) and always fit under the bound.
Everything is driven by a caller-supplied ``random.Random`` so failures
reproduce from the seed alone.  ``guards_disjoint``, ``admissible``,
``guard_contains``, ``interval_contains``, ``representative`` and
``interval_of`` are small facts about guards, clock intervals and
configurations that several suites check against, and
``interval_merge_guards`` joins touching guards of equal label, by cases
on their endpoints.
"""

import random
from fractions import Fraction

from tfsm import (
    ClockInterval,
    Guard,
    MealyMachine,
    TICK,
    TimedMachine,
    TimedWord,
    Timeout,
    Transition,
    mealy_run,
    run,
    tick_encode_delay,
    tick_encode_word,
)


def guards_disjoint(g1: Guard, g2: Guard) -> bool:
    """True iff no rational value belongs to both intervals, i.e. no clock region does."""
    (s1, e1), (s2, e2) = g1.regions, g2.regions
    return e1 < s2 or e2 < s1


def guard_contains(g: Guard, x) -> bool:
    """Exact membership of a rational clock value in a guard."""
    x = Fraction(x)
    if x < g.lower or (x == g.lower and not g.lower_closed):
        return False
    if g.upper is None:
        return True
    return x < g.upper or (x == g.upper and g.upper_closed)


def interval_contains(interval: ClockInterval, x) -> bool:
    """Exact membership of a rational clock value in a member of the clock partition."""
    x = Fraction(x)
    if interval.kind == "point":
        return x == interval.n
    if interval.kind == "open":
        return interval.n < x < interval.n + 1
    return x > interval.n


def representative(interval: ClockInterval) -> Fraction:
    """A canonical clock value inside the interval."""
    if interval.kind == "point":
        return Fraction(interval.n)
    return Fraction(2 * interval.n + 1, 2)


def interval_of(x, n_max: int) -> ClockInterval:
    """The partition member containing clock value ``x``."""
    x = Fraction(x)
    if x < 0:
        raise ValueError(f"negative clock value {x}")
    return ClockInterval.of_region(tick_encode_delay(x), n_max)


def admissible(machine: TimedMachine, state: str, interval: ClockInterval) -> bool:
    """True iff every clock value in the interval is below the state's timeout."""
    bound = machine.timeouts[state].bound
    return bound is None or interval.region < 2 * bound


def random_tfsm(rng: random.Random, max_states=5, max_inputs=2, max_constant=4,
                inputs=None) -> TimedMachine:
    """A valid timed machine within the given size bounds."""
    states = tuple(f"s{k}" for k in range(rng.randint(1, max_states)))
    if inputs is None:
        inputs = tuple(f"i{k + 1}" for k in range(rng.randint(1, max_inputs)))
    outputs = tuple(f"o{k + 1}" for k in range(rng.randint(1, 2)))

    timeouts = {}
    for s in states:
        if rng.random() < 0.35:
            timeouts[s] = Timeout(None)
        else:
            timeouts[s] = Timeout(rng.randint(1, max_constant), rng.choice(states))

    transitions = []
    for s in states:
        bound = timeouts[s].bound
        top = bound if bound is not None else max_constant
        atoms = []
        for n in range(top):
            atoms.append(Guard.point(n))
            atoms.append(Guard(n, n + 1, False, False))
        if bound is None:
            atoms.append(Guard.point(top))
            atoms.append(Guard(top, None, False, False))
        for i in inputs:
            included = [rng.random() < 0.4 for _ in atoms]
            k = 0
            while k < len(atoms):
                if not included[k]:
                    k += 1
                    continue
                j = k
                while j + 1 < len(atoms) and included[j + 1]:
                    j += 1
                first, last = atoms[k], atoms[j]
                guard = Guard(first.lower, last.upper, first.lower_closed, last.upper_closed)
                transitions.append(Transition(s, i, guard, rng.choice(outputs), rng.choice(states)))
                k = j + 1

    return TimedMachine(states, inputs, outputs, states[0], tuple(transitions), timeouts)


_POOL = []


def machine_pool():
    """500 seeded random timed machines, shared by the property suites."""
    if not _POOL:
        rng = random.Random(602214076)
        _POOL.extend(random_tfsm(rng) for _ in range(500))
    return _POOL


def random_timed_word(rng: random.Random, inputs, max_length=6, max_denominator=3) -> TimedWord:
    """A timed word over ``inputs`` with rational delays of small denominator."""
    entries = []
    now = Fraction(0)
    for _ in range(rng.randint(0, max_length)):
        den = rng.randint(1, max_denominator)
        now += Fraction(rng.randint(0, 3 * den), den)
        entries.append((rng.choice(tuple(inputs)), now))
    return TimedWord(tuple(entries))


def random_time_progressive_fsm(rng: random.Random, max_states=12) -> MealyMachine:
    """An untimed machine where every state lets time pass."""
    states = tuple(f"r{k}" for k in range(rng.randint(1, max_states)))
    user_inputs = tuple(f"i{k + 1}" for k in range(rng.randint(1, 2)))
    user_outputs = tuple(f"o{k + 1}" for k in range(rng.randint(1, 2)))
    transitions = {}
    for s in states:
        transitions[(s, TICK)] = (TICK, rng.choice(states))
        for i in user_inputs:
            if rng.random() < 0.5:
                transitions[(s, i)] = (rng.choice(user_outputs), rng.choice(states))
    return MealyMachine(
        states=states,
        inputs=user_inputs + (TICK,),
        outputs=user_outputs + (TICK,),
        initial=states[0],
        transitions=transitions,
    )


def edited_ring_texts(bound: int) -> tuple[str, str]:
    """Machine files of a two-state ring with timeout ``bound``, and of its renamed copy.

    The copy splits the first state's guard at 7 and changes the output of
    the later half, so on the first state the two agree only below clock value 7.
    """
    ring = (
        "tfsm {name}\ninputs i\noutputs o1 o2\nstates {a} {b}\ninitial {a}\n"
        "timeout {a} {n} -> {b}\ntimeout {b} {n} -> {a}\n"
        "{guards}trans {b} i [1,{n}) / o2 -> {a}\n"
    )
    first = ring.format(name="a", a="A", b="B", n=bound, guards=f"trans A i [0,{bound}) / o1 -> B\n")
    second = ring.format(
        name="b", a="P", b="Q", n=bound, guards=f"trans P i [0,7) / o1 -> Q\ntrans P i [7,{bound}) / o2 -> Q\n",
    )
    return first, second


def ticks_agree(machine: TimedMachine, fsm: MealyMachine, word: TimedWord) -> bool:
    """Does the fsm's answer to the tick encoding match the timed run?

    The timed run's output word, tick-encoded, must be what the fsm
    produces on the tick-encoded input word -- and the two sides must
    agree on whether the word is accepted at all.  On rejection the fsm
    is allowed the ticks of the final delay before refusing the symbol.
    """
    timed = run(machine, word)
    encoded_input = tick_encode_word(word)
    untimed = mealy_run(fsm, encoded_input)

    consumed = TimedWord(tuple(
        (o, stamp) for o, (_, stamp) in zip(timed.outputs, word.entries)
    ))
    expected = tick_encode_word(consumed)

    if timed.accepted:
        return untimed.accepted and untimed.outputs == expected
    if untimed.accepted:
        return False
    tail = untimed.outputs[len(expected):]
    return (
        untimed.outputs[: len(expected)] == expected
        and all(o == TICK for o in tail)
        and untimed.rejection_point is not None
        and encoded_input[untimed.rejection_point] == word[timed.rejection_point][0]
    )


def conjunction_agrees(meet: TimedMachine, a: TimedMachine, b: TimedMachine,
                       word: TimedWord) -> bool:
    """Does ``meet`` behave as the common behavior of ``a`` and ``b`` on ``word``?

    The common behavior consumes a symbol exactly while both machines
    consume it with the same output, and rejects at the first index where
    they diverge in definedness or output.
    """
    rm, ra, rb = run(meet, word), run(a, word), run(b, word)
    limit = min(len(ra.outputs), len(rb.outputs))
    k = 0
    while k < limit and ra.outputs[k] == rb.outputs[k]:
        k += 1
    if k == len(word):
        return rm.accepted and rm.outputs == ra.outputs[:k]
    return not rm.accepted and rm.rejection_point == k and rm.outputs == ra.outputs[:k]


def interval_merge_guards(machine):
    """Join the guards of transitions with one source, input, output and target wherever their union is one interval.

    Touch and union are decided by cases on the endpoints and their closedness.
    """

    def touching(g1, g2):
        if g1.upper is None:
            return True
        if g2.lower < g1.upper:
            return True
        return g2.lower == g1.upper and (g1.upper_closed or g2.lower_closed)

    def union(g1, g2):
        if g1.upper is None or (g2.upper is not None and g2.upper < g1.upper):
            upper, upper_closed = g1.upper, g1.upper_closed
        elif g2.upper is None or g2.upper > g1.upper:
            upper, upper_closed = g2.upper, g2.upper_closed
        else:
            upper, upper_closed = g1.upper, g1.upper_closed or g2.upper_closed
        return Guard(g1.lower, upper, g1.lower_closed, upper_closed)

    groups = {}
    for t in machine.transitions:
        groups.setdefault((t.source, t.input, t.output, t.target), []).append(t.guard)
    merged_transitions = []
    for (source, i, o, target), guards in groups.items():
        guards.sort(key=lambda g: (g.lower, not g.lower_closed))
        merged = [guards[0]]
        for g in guards[1:]:
            if touching(merged[-1], g):
                merged[-1] = union(merged[-1], g)
            else:
                merged.append(g)
        merged_transitions.extend(Transition(source, i, g, o, target) for g in merged)
    return TimedMachine(
        machine.states, machine.inputs, machine.outputs, machine.initial,
        tuple(merged_transitions), machine.timeouts,
    )
