"""Timed-machine decisions through the untimed detour.

Equivalence and intersection of timed machines reduce to the corresponding
untimed questions about their tick abstractions: two timed machines are
equivalent exactly when their abstractions are, and refining the product of
the abstractions yields a timed machine realizing the behavior common to
both.  Equivalence reads the abstractions on demand: a walk from breakpoint
to breakpoint decides it, and only on a mismatch does the exact search run,
region by region, for a shortest separating word.  Intersection builds
them.  A separating word found on the untimed side decodes back into a
timed word -- each maximal block of ticks stands for half its length in
time units -- and is confirmed by actually running both timed machines.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import inf

from .abstraction import TickView, abstract
from .core import TimedMachine, TimedWord, Timeout, Transition, TICK, breadth_first
from .fsm_algebra import DEFINEDNESS_MISMATCH, OUTPUT_MISMATCH, equivalent, product
from .refinement import refine
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
    """The timed machine realizing the behavior common to ``a`` and ``b``.

    Built by refining the product of the tick abstractions; states are
    numbered in discovery order of the product.
    """
    return refine(product(abstract(a), abstract(b)))


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
