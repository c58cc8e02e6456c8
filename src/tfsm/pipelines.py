"""Timed-machine decisions through the untimed detour.

Equivalence and intersection of timed machines reduce to the corresponding
untimed questions about their tick abstractions: two timed machines are
equivalent exactly when their abstractions are, and refining the product of
the abstractions yields a timed machine realizing the behavior common to
both.  Equivalence reads the abstractions on demand, pair by pair, and stops
at the first mismatch; intersection builds them.  A separating word found on
the untimed side decodes back into a timed word -- each maximal block of
ticks stands for half its length in time units -- and is confirmed by
actually running both timed machines.
"""

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .abstraction import TickView, abstract
from .core import TimedMachine, TimedWord, Timeout, Transition, TICK, _guard_sort_key
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


def tfsm_equivalent(a: TimedMachine, b: TimedMachine) -> TimedEquivalenceVerdict:
    """Decide whether two timed machines have identical timed behavior.

    Both tick abstractions are read on demand (:class:`~tfsm.abstraction.TickView`),
    never built, and the breadth-first search stops at the first mismatch,
    so the untimed counterexample is still a shortest one.
    """
    verdict = equivalent(TickView(a), TickView(b))
    if verdict.equivalent:
        return TimedEquivalenceVerdict(True)

    word = decode_tick_word(verdict.counterexample.word)
    run_a, run_b = run(a, word), run(b, word)
    if run_a.accepted and run_b.accepted:
        if run_a.outputs == run_b.outputs:
            raise RuntimeError(f"decoded counterexample {word} does not separate the machines")
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
    0, 1, 2, ... in breadth-first order, edges explored by input and guard;
    alphabets are sorted.  Equal canonical forms mean isomorphic reachable
    parts, including guards and timeouts.
    """
    names = {machine.initial: "0"}
    order = [machine.initial]
    queue = deque([machine.initial])
    while queue:
        s = queue.popleft()
        targets = [
            t.target
            for t in sorted(machine.transitions_from(s), key=lambda t: (t.input, _guard_sort_key(t.guard)))
        ]
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
