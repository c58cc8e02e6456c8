"""Timed-machine decisions through the untimed detour.

Equivalence and intersection of timed machines reduce to the corresponding
untimed questions about their tick abstractions: two timed machines are
equivalent exactly when their abstractions are, and refining the product of
the abstractions yields a timed machine realizing the behavior common to
both.  Both read the abstractions on demand, from breakpoint to breakpoint.
Equivalence walks the pairs of configurations both reach together and
spells a shortest separating word from their distances to a mismatch;
intersection walks only the pairs that refining the product keeps, with
refinement's delay walk (:mod:`tfsm.refinement`).  A separating word
decodes back into a timed word -- each maximal block of ticks stands for
half its length in time units -- and is confirmed by running both machines.
"""

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import inf

# abstract, equivalent, product and refine are not called here; bench/spans.py still wraps them at this site.
from .abstraction import TickView, abstract
from .core import TimedMachine, TimedWord, Timeout, Transition, TICK, breadth_first
from .fsm_algebra import DEFINEDNESS_MISMATCH, OUTPUT_MISMATCH, _input_order, check_same_inputs, equivalent, product
from .refinement import refine, retime
from .semantics import run


@dataclass(frozen=True)
class TimedEquivalenceVerdict:
    """Outcome of a timed equivalence check.

    On inequivalence, ``counterexample`` is a timed word on which the two
    machines demonstrably disagree (it has been executed on both), ``kind``
    matching the untimed counterexample kinds.
    """

    equivalent: bool
    counterexample: TimedWord | None = None
    kind: str | None = None
    detail: str = ""


def _timed_word(runs) -> TimedWord:
    """The timed word of ``(ticks, input)`` runs: each run waits ``ticks/2`` time units, then reads its input."""
    entries, now = [], Fraction(0)
    for ticks, sym in runs:
        now += Fraction(ticks, 2)
        entries.append((sym, now))
    return TimedWord(tuple(entries))


def decode_tick_word(symbols) -> TimedWord:
    """Turn a sequence over user inputs and ticks back into a timed word.

    Each maximal run of ``k`` ticks contributes a delay of ``k/2`` time
    units before the following input symbol.
    """
    runs, ticks = [], 0
    for sym in symbols:
        if sym == TICK:
            ticks += 1
        else:
            runs.append((ticks, sym))
            ticks = 0
    if ticks:
        raise ValueError("a decodable tick word ends with a user input, not a tick")
    return _timed_word(runs)


def _separating_word(a: TickView, b: TickView) -> TimedWord | None:
    """The shortlex-least tick word that parts the views, decoded from its runs; None if none does.

    Nodes are pairs of configurations at stretch starts.  An input both
    take with one output costs 1, the ticks to the nearer breakpoint cost
    their number, and a pair whose stretch parts on an input ends the word.
    Each symbol is the least, in :func:`~tfsm.fsm_algebra._input_order`,
    one step nearer an end (distances by Dijkstra's search, backwards).
    """
    symbols, moves, parted = _input_order(a, b), {}, {}

    def successors(pair):
        (ca, cb), out = pair, []
        for i in symbols:
            if i != TICK:
                ta, tb = a.machine.enabled(ca[0], i, ca[1]), b.machine.enabled(cb[0], i, cb[1])
                if ta and tb and ta.output == tb.output:
                    out.append((i, 1, ((ta.target, 0), (tb.target, 0))))
                elif ta or tb:
                    parted[pair] = i
                    return ()
            elif (d := min(a.breakpoint(ca) - ca[1], b.breakpoint(cb) - cb[1])) < inf:
                # The tick out of the stretch's last region fires a timeout or stops at the tail.
                ea, eb = a.get(((ca[0], ca[1] + d - 1), TICK)), b.get(((cb[0], cb[1] + d - 1), TICK))
                out.append((TICK, d, (ea[1], eb[1])))
        moves[pair] = out
        return [succ for _, _, succ in out]

    start = (a.initial, b.initial)
    breadth_first([start], successors)
    if not parted:
        return None
    into = {}
    for before, out in moves.items():
        for _, cost, succ in out:
            into.setdefault(succ, []).append((cost, before))
    distance, heap = dict.fromkeys(parted, 0), [(0, end) for end in parted]
    while heap:
        dist, end = heapq.heappop(heap)
        for cost, before in into.get(end, ()):
            if dist + cost < distance.get(before, inf):
                distance[before] = dist + cost
                heapq.heappush(heap, (dist + cost, before))
    runs, ticks, pair = [], 0, start
    while pair not in parted:
        i, cost, pair = next(m for m in moves[pair] if m[1] + distance.get(m[2], inf) == distance[pair])
        if i != TICK:
            runs.append((ticks, i))
        ticks = ticks + cost if i == TICK else 0
    return _timed_word(runs + [(ticks, parted[pair])])


def tfsm_equivalent(a: TimedMachine, b: TimedMachine) -> TimedEquivalenceVerdict:
    """Decide whether two timed machines have identical timed behavior.

    One walk over both tick abstractions (:class:`~tfsm.abstraction.TickView`),
    from breakpoint to breakpoint, decides and, on a mismatch, spells the
    shortlex-least separating word (the tick ordered after ``a``'s inputs).
    """
    word = _separating_word(TickView(a), TickView(b))
    if word is None:
        return TimedEquivalenceVerdict(True)
    run_a, run_b = run(a, word), run(b, word)
    if run_a.accepted and run_b.accepted and run_a.outputs != run_b.outputs:
        kind = OUTPUT_MISMATCH
        detail = (
            f"on {word}: outputs {' '.join(run_a.outputs)} in the first machine "
            f"but {' '.join(run_b.outputs)} in the second"
        )
    elif run_a.accepted != run_b.accepted:
        kind = DEFINEDNESS_MISMATCH
        rejecting = run_b if run_a.accepted else run_a
        which = "second" if run_a.accepted else "first"
        symbol, stamp = word[rejecting.rejection_point]
        detail = (
            f"on {word}: the {which} machine rejects ({symbol}, {stamp}) "
            f"in configuration {rejecting.final}"
        )
    else:
        raise RuntimeError(f"decoded counterexample {word} does not separate the machines")
    return TimedEquivalenceVerdict(False, word, kind, detail)


def tfsm_intersect(a: TimedMachine, b: TimedMachine) -> TimedMachine:
    """The behavior common to ``a`` and ``b``, as ``refine(product(abstract(a), abstract(b)))`` builds it.

    Only the pairs of configurations refinement keeps are walked, from
    breakpoint to breakpoint, by refinement's delay walk over both tick views
    (:func:`~tfsm.refinement.retime`), and named by their index in the
    product's breadth-first order, searched until each has one.  Both machines
    must pass :func:`~tfsm.core.validate_tfsm`; then refinement refuses
    nothing, since reachable configurations always tick and no user symbol is
    the tick.
    """
    check_same_inputs(a, b)
    view_a, view_b = TickView(a), TickView(b)
    start = (view_a.initial, view_b.initial)

    def name(walks):
        missing = set(walks) - {start}

        def product_moves(pair):
            if not missing:
                return ()
            (ca, cb), edges_a, edges_b = pair, view_a.stretch(pair[0])[1], view_b.stretch(pair[1])[1]
            moves = [(ea[1], eb[1]) for i, ea in edges_a.items() if (eb := edges_b.get(i)) and ea[0] == eb[0]]
            moves.append((view_a.get((ca, TICK))[1], view_b.get((cb, TICK))[1]))
            missing.difference_update(moves)
            return moves

        return {pair: str(k) for k, pair in enumerate(breadth_first([start], product_moves)) if pair in walks}

    outputs = a.outputs + tuple(o for o in b.outputs if o not in a.outputs)
    return retime(view_a, view_b, start, name, a.inputs, outputs)


def canonical_tfsm(machine: TimedMachine) -> TimedMachine:
    """A canonical renaming for isomorphism checks.

    Reachable states (through transitions and timeout targets) become
    0, 1, 2, ... in breadth-first order, edges explored by input and guard
    (the order :class:`~tfsm.core.TimedMachine` stores them in);
    alphabets are sorted.  Equal canonical forms mean isomorphic reachable
    parts, including guards and timeouts.
    """
    index, timeouts = machine.guard_index(), machine.timeouts

    def targets(s):
        yield from (t.target for _, _, group in index.get(s, {}).values() for t in group)
        if timeouts[s].target is not None:
            yield timeouts[s].target

    order = breadth_first([machine.initial], targets)
    names = {s: str(k) for k, s in enumerate(order)}
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
        timeouts={names[s]: Timeout(timeouts[s].bound, names.get(timeouts[s].target)) for s in order},
    )
