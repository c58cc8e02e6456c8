"""Refinement: rebuilding a timed machine from a tick Mealy machine.

Refinement inverts abstraction up to behavioral equivalence.  Each kept
state of the Mealy machine becomes a state of the timed machine, read off a
*delay walk* along its tick chain, one state per clock region [0,0], (0,1),
[1,1], (1,2), ...  The chain is a lasso: after ``mu + lam`` ticks it first
meets a state it has seen, the one ``mu`` ticks on, whose behavior from
there is its own with the clock restarted, which a timeout expresses.  An
even end ``2n`` times out at bound ``n`` to that state.  An odd end lies
inside (n,n+1): the walk covers one more region, where that state's inputs
still apply, and times out at ``n + 1`` to the state ``mu + 1`` ticks on.
Each user input's regions of equal output and target form one guard.  The
same walk over two tick views builds the intersection of two timed machines
(:func:`~tfsm.pipelines.tfsm_intersect`); refinement walks a machine's tick
chain against itself.

Only *time-progressive* machines are refinable: every state must let time
pass, i.e. carry a tick transition that outputs the tick.  States violating
that are reported by :func:`is_time_progressive`.
"""

from dataclasses import dataclass
from math import lcm

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


class _TickChain:
    """A Mealy machine's tick edges, read as :func:`_delay_walk` reads a tick view.

    A configuration is ``(state, 0)`` and each :meth:`stretch` is one region
    long, so :meth:`tick` (``d`` is always 1) moves on to the next state;
    the walk's timeout target is the state its last tick enters.
    """

    def __init__(self, fsm: MealyMachine):
        self.inputs, self.edges = fsm.user_inputs, fsm.transitions
        self._lasso, self._moves = (None, None), {}

    def tick(self, config, d=1):
        return self.edges[(config[0], TICK)][1], 0

    def stretch(self, config):
        state = config[0]
        if state not in self._moves:
            edges = ((i, self.edges.get((state, i))) for i in self.inputs)
            self._moves[state] = {i: (edge[0], (edge[1], 0)) for i, edge in edges if edge}
        return 1, self._moves[state]

    def lasso(self, config):
        """``(mu, lam)`` of the states ticking from ``config`` up to the first repeat; kept for one start."""
        start = config[0]
        if self._lasso[0] != start:
            seen, state = {start: 0}, start
            while (state := self.edges[(state, TICK)][1]) not in seen:
                seen[state] = len(seen)
            self._lasso = (start, (seen[state], len(seen) - seen[state]))
        return self._lasso[1]


def _delay_walk(a, b, ca, cb, inputs):
    """The transitions ``(input, guard, (output, target))`` and timeout ``(bound, target)`` of a kept pair.

    ``a`` and ``b`` are tick views (:class:`~tfsm.abstraction.TickView` or
    :class:`_TickChain`), read through ``lasso``, ``stretch`` and ``tick``.
    The walk first meets a pair seen before, ``P_mu``, ``end`` regions on;
    an odd ``end`` takes one more region.  The walk stops where it times
    out: at ``P_mu`` after an even ``end``, at ``P_mu+1`` after an odd one.
    Each input keeps one open run of equal labels, so runs come out merged.
    """
    (mu_a, lam_a), (mu_b, lam_b) = a.lasso(ca), b.lasso(cb)
    end = max(mu_a, mu_b) + lcm(lam_a, lam_b)
    last = end - 1 + end % 2
    transitions, runs, j = [], {}, 0
    while j <= last:
        (d_a, edges_a), (d_b, edges_b) = a.stretch(ca), b.stretch(cb)
        for i in inputs:
            ea, eb = edges_a.get(i), edges_b.get(i)
            label = (ea[0], (ea[1], eb[1])) if ea and eb and ea[0] == eb[0] else None
            first, open_label = runs.get(i, (j, None))
            if label != open_label:
                if open_label is not None:
                    transitions.append((i, Guard.of_regions(first, j - 1), open_label))
                runs[i] = (j, label)
        d = min(d_a, d_b, last + 1 - j)
        ca, cb, j = a.tick(ca, d), b.tick(cb, d), j + d
    transitions.extend((i, Guard.of_regions(first, last), label) for i, (first, label) in runs.items() if label)
    return transitions, ((last + 1) // 2, (ca, cb))


def retime(a, b, start, name, inputs, outputs, merge=True) -> TimedMachine:
    """The timed machine of the delay walks of ``a`` against ``b``, closed breadth-first from the pair ``start``.

    ``name(walks)`` maps each kept pair to its state name, in state order.
    Each run becomes one guard, or with ``merge`` false one guard per region.
    """
    walks = {}

    def kept(pair):
        transitions, timeout = walks[pair] = _delay_walk(a, b, *pair, inputs)
        return [target for *_, (_, target) in transitions] + [timeout[1]]

    breadth_first([start], kept)
    names = name(walks)
    runs = [(names[p], i, g, o, names[t]) for p in names for i, g, (o, t) in walks[p][0]]
    if not merge:
        runs = [(p, i, Guard.of_regions(k, k), o, t)
                for p, i, g, o, t in runs for k in range(g.regions[0], g.regions[1] + 1)]
    return TimedMachine(
        states=tuple(names.values()),
        inputs=inputs,
        outputs=outputs,
        initial=names[start],
        transitions=tuple(Transition(*run) for run in runs),
        timeouts={names[p]: Timeout(walks[p][1][0], names[walks[p][1][1]]) for p in names},
    )


def refine(fsm: MealyMachine, merge: bool = True) -> TimedMachine:
    """The timed machine whose tick behavior is that of ``fsm``.

    States unreachable in the result are dropped (reachability counts both
    transition targets and timeout targets).  The walk's runs come out
    merged: each guard covers a maximal run of regions with one label,
    unless ``merge`` is false, which gives one guard per region.
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

    # A deterministic machine walked against itself reaches only pairs (s, s).
    chain, start = _TickChain(fsm), (fsm.initial, 0)

    def name(walks):
        return {(c, c): c[0] for c in ((s, 0) for s in fsm.states) if (c, c) in walks}

    return retime(chain, chain, (start, start), name, fsm.user_inputs, fsm.user_outputs, merge)
