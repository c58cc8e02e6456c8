"""Timed-machine decisions through the untimed detour.

Equivalence and intersection of timed machines reduce to the corresponding
untimed questions about their tick abstractions: two timed machines are
equivalent exactly when their abstractions are, and refining the product of
the abstractions yields a timed machine realizing the behavior common to
both.  Both read the abstractions on demand, from breakpoint to breakpoint.
Equivalence runs the exact search, region by region, only on a mismatch,
for a shortest separating word; intersection walks only the pairs of
configurations that refining the product keeps, with refinement's delay
walk (:mod:`tfsm.refinement`).  A separating word decodes back into a
timed word -- each maximal block of ticks stands for half its length in
time units -- and is confirmed by running both timed machines.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import inf

# abstract, product and refine are not called here; bench/spans.py still wraps them at this site.
from .abstraction import TickView, abstract
from .core import TimedMachine, TimedWord, Timeout, Transition, TICK, breadth_first
from .fsm_algebra import DEFINEDNESS_MISMATCH, OUTPUT_MISMATCH, check_same_inputs, equivalent, product
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


def decode_tick_word(symbols) -> TimedWord:
    """Turn a sequence over user inputs and ticks back into a timed word.

    Each maximal run of ``k`` ticks contributes a delay of ``k/2`` time
    units before the following input symbol.
    """
    entries = []
    now = Fraction(0)
    ticks = 0
    for sym in symbols:
        if sym == TICK:
            ticks += 1
        else:
            now += Fraction(ticks, 2)
            entries.append((sym, now))
            ticks = 0
    if ticks:
        raise ValueError("a decodable tick word ends with a user input, not a tick")
    return TimedWord(tuple(entries))


class _Parted(Exception):
    """Two tick views disagree on an input at a pair of configurations they reach together."""


def _coarse_equivalent(a: TickView, b: TickView) -> bool:
    """True iff no pair of configurations the two views reach together disagrees on an input.

    From each pair, every input is compared once and the pair it enters is
    queued, and so is the pair both clocks tick on to at the nearer
    :meth:`~tfsm.abstraction.TickView.breakpoint`.  No move changes in
    between, and reachable configurations never refuse the tick.
    """
    inputs = tuple(dict.fromkeys(a.machine.inputs + b.machine.inputs))

    def successors(pair):
        ca, cb = pair
        for i in inputs:
            ea, eb = a.get((ca, i)), b.get((cb, i))
            if ea is None and eb is None:
                continue
            if ea is None or eb is None or ea[0] != eb[0]:
                raise _Parted
            yield ea[1], eb[1]
        d = min(a.breakpoint(ca) - ca[1], b.breakpoint(cb) - cb[1])
        if d < inf:
            # The tick out of the region before the breakpoint fires a timeout or stops at the tail.
            yield a.get(((ca[0], ca[1] + d - 1), TICK))[1], b.get(((cb[0], cb[1] + d - 1), TICK))[1]

    try:
        breadth_first([(a.initial, b.initial)], successors)
    except _Parted:
        return False
    return True


def tfsm_equivalent(a: TimedMachine, b: TimedMachine) -> TimedEquivalenceVerdict:
    """Decide whether two timed machines have identical timed behavior.

    Both tick abstractions are read on demand (:class:`~tfsm.abstraction.TickView`).
    A walk from breakpoint to breakpoint decides; only on a mismatch does the
    exact search run, region by region, for a shortest untimed counterexample.
    """
    view_a, view_b = TickView(a), TickView(b)
    if _coarse_equivalent(view_a, view_b):
        return TimedEquivalenceVerdict(True)
    verdict = equivalent(view_a, view_b)

    word = decode_tick_word(verdict.counterexample.word)
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
