"""Algebra of partial Mealy machines: product, equivalence, minimization.

Machines here are *partial*: a (state, input) pair without a transition is
undefined, and definedness is observable.  Two machines are equivalent iff
from their initial states every input sequence is defined in one exactly
when it is defined in the other, with identical outputs along the way.  The
product (intersection) keeps a move exactly when both machines make it with
the same output, so its behavior is the largest common behavior of the two.

Equivalence, product and reachability are breadth-first searches, which
keep counterexamples shortest and state numbering stable.  Equivalence
keeps its own queue, since it stops at the first mismatch and keeps parent
pointers; the others share :func:`~tfsm.core.breadth_first`.  Minimization
is Hopcroft's n log n partition refinement; its classes keep the names and
the order of their first members.
"""

from collections import deque
from dataclasses import dataclass

from .core import MealyMachine, breadth_first

OUTPUT_MISMATCH = "OUTPUT_MISMATCH"
DEFINEDNESS_MISMATCH = "DEFINEDNESS_MISMATCH"


@dataclass(frozen=True)
class Counterexample:
    """A shortest input word on which two machines disagree.

    ``kind`` is :data:`OUTPUT_MISMATCH` when both machines consume the word
    but the last outputs differ, :data:`DEFINEDNESS_MISMATCH` when exactly
    one of them rejects its last symbol.
    """

    word: tuple[str, ...]
    kind: str
    detail: str


@dataclass(frozen=True)
class EquivalenceVerdict:
    equivalent: bool
    counterexample: Counterexample | None = None


def _merged_alphabet(first: tuple, second: tuple) -> tuple:
    """The alphabet ``first`` followed by the symbols only ``second`` has."""
    return first + tuple(x for x in second if x not in first)


def equivalent(a: MealyMachine, b: MealyMachine) -> EquivalenceVerdict:
    """Decide behavioral equivalence; on failure carry a shortest counterexample.

    Inputs outside a machine's alphabet count as undefined everywhere, so
    machines over different alphabets can still be compared.  Each pair
    points back to the pair it was reached from, and the word is spelled out
    only on a mismatch.
    """
    inputs = _merged_alphabet(a.inputs, b.inputs)
    start = (a.initial, b.initial)
    parents = {start: None}
    queue = deque([start])
    while queue:
        pair = queue.popleft()
        sa, sb = pair
        for i in inputs:
            ea = a.transitions.get((sa, i))
            eb = b.transitions.get((sb, i))
            if ea is None and eb is None:
                continue
            if ea is None or eb is None or ea[0] != eb[0]:
                return EquivalenceVerdict(False, _counterexample(parents, pair, i, ea, eb))
            succ = (ea[1], eb[1])
            if succ not in parents:
                parents[succ] = (pair, i)
                queue.append(succ)
    return EquivalenceVerdict(True)


def _counterexample(parents, pair, i, ea, eb) -> Counterexample:
    prefix = []
    while parents[pair] is not None:
        pair, symbol = parents[pair]
        prefix.append(symbol)
    prefix.reverse()
    after = " ".join(prefix) or "the empty word"
    word = (*prefix, i)
    if ea is None or eb is None:
        where = "the first machine" if eb is None else "the second machine"
        return Counterexample(word, DEFINEDNESS_MISMATCH, f"input {i} after {after} is defined only in {where}")
    return Counterexample(
        word, OUTPUT_MISMATCH,
        f"input {i} after {after} outputs {ea[0]} in the first machine but {eb[0]} in the second",
    )


def check_same_inputs(a, b) -> None:
    """Raise ``ValueError`` naming the symbols unless the two machines declare the same inputs."""
    if set(a.inputs) != set(b.inputs):
        only_a, only_b = sorted(set(a.inputs) - set(b.inputs)), sorted(set(b.inputs) - set(a.inputs))
        raise ValueError(
            f"input alphabets differ: {only_a or '-'} only in the first machine, "
            f"{only_b or '-'} only in the second"
        )


def product(a: MealyMachine, b: MealyMachine) -> MealyMachine:
    """The intersection machine: moves both machines make with equal output.

    Only reachable pairs become states, named 0, 1, 2, ... in discovery order.
    """
    check_same_inputs(a, b)
    edges = {}

    def successors(pair):
        sa, sb = pair
        for i in a.inputs:
            ea = a.transitions.get((sa, i))
            eb = b.transitions.get((sb, i))
            if ea is None or eb is None or ea[0] != eb[0]:
                continue
            succ = (ea[1], eb[1])
            edges[(pair, i)] = (ea[0], succ)
            yield succ

    start = (a.initial, b.initial)
    order = breadth_first([start], successors)
    names = {pair: str(k) for k, pair in enumerate(order)}
    return MealyMachine(
        states=tuple(names[pair] for pair in order),
        inputs=a.inputs,
        outputs=_merged_alphabet(a.outputs, b.outputs),
        initial=names[start],
        transitions={(names[pair], i): (o, names[succ]) for (pair, i), (o, succ) in edges.items()},
    )


def _targets(fsm: MealyMachine, inputs):
    """The successor function of ``fsm``'s transition graph, reading ``inputs`` in order."""

    def targets(s):
        for i in inputs:
            edge = fsm.transitions.get((s, i))
            if edge is not None:
                yield edge[1]

    return targets


def reachable(fsm: MealyMachine) -> MealyMachine:
    """Restrict to the states reachable from the initial state."""
    seen = set(breadth_first([fsm.initial], _targets(fsm, fsm.inputs)))
    states = tuple(s for s in fsm.states if s in seen)
    return MealyMachine(
        states=states,
        inputs=fsm.inputs,
        outputs=fsm.outputs,
        initial=fsm.initial,
        transitions={(s, i): e for (s, i), e in fsm.transitions.items() if s in seen},
    )


def minimize(fsm: MealyMachine) -> MealyMachine:
    """The smallest machine equivalent to ``fsm``.

    Unreachable states are dropped, then equivalent states are merged by
    Hopcroft's partition refinement ("An n log n algorithm for minimizing
    states in a finite automaton", 1971).  Undefinedness separates states
    just like a differing output does.  Each class is named after its first
    member in declaration order, and the classes keep that order.
    """
    inputs = fsm.inputs
    seen = set(breadth_first([fsm.initial], _targets(fsm, inputs)))
    states = [s for s in fsm.states if s in seen]
    # Start from the output signature: per input, undefined or the output given.
    by_signature = {}
    predecessors = {i: {} for i in inputs}
    for s in states:
        signature = []
        for i in inputs:
            edge = fsm.transitions.get((s, i))
            signature.append(edge and edge[0])
            if edge is not None:
                predecessors[i].setdefault(edge[1], []).append(s)
        by_signature.setdefault(tuple(signature), set()).add(s)
    blocks = sorted(by_signature.values(), key=len, reverse=True)
    block_of = {s: b for b, members in enumerate(blocks) for s in members}

    # A splitter (block, input) separates the states whose move on the
    # input enters the block from those whose move leaves it.  Every block
    # is all defined or all undefined on each input, so the whole state set
    # splits nothing, and any one block can be left out of the first
    # splitters: the largest, block 0.
    waiting = [(b, i) for b in range(1, len(blocks)) for i in inputs]
    pending = set(waiting)
    while waiting:
        splitter = waiting.pop()
        pending.remove(splitter)
        b, i = splitter
        into = predecessors[i]
        hit = {}
        for t in blocks[b]:
            for s in into.get(t, ()):
                hit.setdefault(block_of[s], []).append(s)
        for c, moved in hit.items():
            rest = blocks[c]
            if len(moved) == len(rest):
                continue
            rest.difference_update(moved)
            new = len(blocks)
            blocks.append(set(moved))
            for s in moved:
                block_of[s] = new
            # Once (c, a) is stable, refining by either half suffices: take the smaller.
            for a in inputs:
                half = (c, a) if (c, a) not in pending and len(rest) < len(moved) else (new, a)
                pending.add(half)
                waiting.append(half)

    representative = {}
    for s in states:
        representative.setdefault(block_of[s], s)
    transitions = {}
    for s in representative.values():
        for i in inputs:
            edge = fsm.transitions.get((s, i))
            if edge is not None:
                transitions[(s, i)] = (edge[0], representative[block_of[edge[1]]])
    return MealyMachine(
        states=tuple(representative.values()),
        inputs=inputs,
        outputs=fsm.outputs,
        initial=representative[block_of[fsm.initial]],
        transitions=transitions,
    )


def canonical_fsm(fsm: MealyMachine) -> MealyMachine:
    """A canonical renaming for isomorphism checks.

    States become 0, 1, 2, ... in breadth-first order with inputs explored
    in sorted order; alphabets are sorted.  Two machines have equal
    canonical forms exactly when their reachable parts are isomorphic.
    """
    inputs = tuple(sorted(fsm.inputs))
    order = breadth_first([fsm.initial], _targets(fsm, inputs))
    names = {s: str(k) for k, s in enumerate(order)}
    return MealyMachine(
        states=tuple(names[s] for s in order),
        inputs=inputs,
        outputs=tuple(sorted(fsm.outputs)),
        initial="0",
        transitions={
            (names[s], i): (o, names[t])
            for (s, i), (o, t) in fsm.transitions.items()
            if s in names
        },
    )
