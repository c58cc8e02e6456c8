"""Refinement: rebuilding a timed machine from a tick Mealy machine.

Refinement inverts abstraction up to behavioral equivalence.  Each state of
the Mealy machine becomes a state of the timed machine, and its guarded
transitions and timeout are read off a *delay walk*: follow tick transitions
while sliding a cursor through the clock intervals [0,0], (0,1), [1,1],
(1,2), ...  At each stop, the user inputs defined there become transitions
guarded by the cursor interval.  The walk ends as soon as its next stop is a
state already visited (including the starting state itself): re-entering a
visited state means the remaining behavior is that state's own behavior with
the clock restarted, which is exactly what a timeout expresses.  An exit on
an integer boundary [n,n] yields timeout bound ``n``; an exit inside an open
interval (n,n+1) first replays the visited state's inputs under that guard
-- the timed machine can still accept inputs there before the clock hits
``n+1`` -- and then times out to that state's own tick successor at bound
``n + 1``.

Only *time-progressive* machines are refinable: every state must let time
pass, i.e. carry a tick transition that outputs the tick.  States violating
that are reported by :func:`is_time_progressive`.
"""

from dataclasses import dataclass

from .core import Guard, MealyMachine, TimedMachine, Timeout, Transition, TICK, breadth_first


@dataclass(frozen=True)
class TimeProgressReport:
    """Whether time can pass in every state; ``offenders`` lists those where it cannot."""

    ok: bool
    offenders: tuple[str, ...]


def is_time_progressive(fsm: MealyMachine) -> TimeProgressReport:
    """Check that every state has a tick transition whose output is the tick."""
    offenders = []
    for s in fsm.states:
        edge = fsm.transitions.get((s, TICK))
        if edge is None or edge[0] != TICK:
            offenders.append(s)
    return TimeProgressReport(not offenders, tuple(offenders))


def _refine_state(fsm: MealyMachine, start: str):
    """Delay-walk one state into its guarded transitions and timeout."""
    inputs, edges = fsm.user_inputs, fsm.transitions
    transitions = []
    marked = {start}
    state = start
    position = 0
    closing = False
    while True:
        moves = [(i, edge) for i in inputs if (edge := edges.get((state, i))) is not None]
        if moves:
            guard = Guard.of_regions(position, position)
            transitions.extend(Transition(start, i, guard, o, target) for i, (o, target) in moves)
        nxt = edges[(state, TICK)][1]
        position += 1
        if closing or nxt in marked:
            if position % 2 == 0:
                return transitions, Timeout(position // 2, nxt)
            # Exit inside (n,n+1): inputs of the revisited state are still
            # acceptable until the clock reaches n+1, then time out to its
            # own tick successor.
            closing = True
        marked.add(nxt)
        state = nxt


def refine(fsm: MealyMachine, merge: bool = True) -> TimedMachine:
    """The timed machine whose tick behavior is that of ``fsm``.

    States unreachable in the result are dropped (reachability counts both
    transition targets and timeout targets).  Unless ``merge`` is false,
    guards of same-labelled transitions that touch are merged afterwards.
    The machine must pass :func:`~tfsm.core.validate_fsm`: a tick edge into
    an undeclared state makes the delay walk raise ``KeyError``.
    """
    progress = is_time_progressive(fsm)
    if not progress.ok:
        names = ", ".join(progress.offenders)
        raise ValueError(f"machine is not time-progressive: time cannot pass in {names}")
    ticking = [key for key, (o, _) in fsm.transitions.items() if o == TICK and key[1] != TICK]
    if ticking:
        s, i = min(ticking)
        raise ValueError(f"input {i} at state {s} outputs the tick symbol; cannot be a guarded move")

    # Only states reachable in the result are walked: breadth_first visits
    # each once, and its refined transitions and timeout are its successors.
    refined = {}

    def targets(s):
        transitions, timeout = refined[s] = _refine_state(fsm, s)
        return [t.target for t in transitions] + [timeout.target]

    breadth_first([fsm.initial], targets)

    states = tuple(s for s in fsm.states if s in refined)
    machine = TimedMachine(
        states=states,
        inputs=fsm.user_inputs,
        outputs=fsm.user_outputs,
        initial=fsm.initial,
        transitions=tuple(t for s in states for t in refined[s][0]),
        timeouts={s: refined[s][1] for s in states},
    )
    return merge_guards(machine) if merge else machine


def merge_guards(machine: TimedMachine) -> TimedMachine:
    """Merge guards of transitions sharing source, input, output and target.

    Guards whose union is again a single interval are replaced by that
    union, repeatedly, until no two remain mergeable.  The behavior of the
    machine is unchanged: no clock value is added or lost.
    """
    groups: dict[tuple[str, str, str, str], list[tuple]] = {}
    for t in machine.transitions:
        groups.setdefault((t.source, t.input, t.output, t.target), []).append(t.guard.regions)

    merged_transitions = []
    for (source, i, o, target), ranges in groups.items():
        # Sorted by first region, a range touches the union before it iff
        # it starts at most one region past that union's end.
        ranges.sort()
        merged = [ranges[0]]
        for first, last in ranges[1:]:
            if first <= merged[-1][1] + 1:
                merged[-1] = (merged[-1][0], max(merged[-1][1], last))
            else:
                merged.append((first, last))
        merged_transitions.extend(Transition(source, i, Guard.of_regions(*r), o, target) for r in merged)

    return TimedMachine(
        states=machine.states,
        inputs=machine.inputs,
        outputs=machine.outputs,
        initial=machine.initial,
        transitions=tuple(merged_transitions),
        timeouts=machine.timeouts,
    )
