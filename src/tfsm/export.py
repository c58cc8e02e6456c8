"""Rendering machines for humans: Graphviz DOT and timed-automaton text.

The DOT export draws states as circles (the initial state doubled), guarded
moves as ``guard:input/output`` edges, timeouts as dashed ``t=bound`` edges
and untimed moves as ``input/output`` edges.

The timed-automaton export translates a timed machine into the classic
single-clock automaton vocabulary: one location per state, the timeout as a
location invariant ``x <= n`` plus a silent edge ``eps, x == n, x := 0`` to
the timeout target, and every guarded move as an edge whose guard is a
conjunction of clock constraints, resetting the clock.
"""

from .core import Guard, MealyMachine, TimedMachine


def _quote(name: str) -> str:
    escaped = name.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def export_dot(machine: TimedMachine | MealyMachine, name: str = "machine") -> str:
    """A Graphviz digraph for either machine kind."""
    lines = [f"digraph {_quote(name)} {{", "  rankdir=LR;", "  node [shape=circle];"]
    lines.append(f"  {_quote(machine.initial)} [shape=doublecircle];")
    for s in machine.states:
        if s != machine.initial:
            lines.append(f"  {_quote(s)};")
    if isinstance(machine, TimedMachine):
        for t in machine.transitions:
            label = f"{t.guard}:{t.input}/{t.output}"
            lines.append(f"  {_quote(t.source)} -> {_quote(t.target)} [label={_quote(label)}];")
        for s in machine.states:
            timeout = machine.timeouts.get(s)
            if timeout is not None and timeout.bound is not None:
                lines.append(
                    f"  {_quote(s)} -> {_quote(timeout.target)} "
                    f"[label={_quote(f't={timeout.bound}')}, style=dashed];"
                )
    else:
        for (source, i), (o, target) in machine.ordered_transitions():
            lines.append(f"  {_quote(source)} -> {_quote(target)} [label={_quote(f'{i}/{o}')}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _clock_constraint(guard: Guard) -> str:
    parts = []
    if guard.upper is not None and guard.lower == guard.upper:
        return f"x == {guard.lower}"
    if guard.lower > 0 or not guard.lower_closed:
        parts.append(f"x >= {guard.lower}" if guard.lower_closed else f"x > {guard.lower}")
    if guard.upper is not None:
        parts.append(f"x <= {guard.upper}" if guard.upper_closed else f"x < {guard.upper}")
    return " && ".join(parts) if parts else "true"


def export_timed_automaton(machine: TimedMachine, name: str = "machine") -> str:
    """A single-clock timed automaton equivalent to the timed machine."""
    lines = [f"timed-automaton {name}", "clock x"]
    for s in machine.states:
        timeout = machine.timeouts.get(s)
        if timeout is not None and timeout.bound is not None:
            lines.append(f"location {s} invariant x <= {timeout.bound}")
        else:
            lines.append(f"location {s}")
    lines.append(f"init {machine.initial}")
    for s in machine.states:
        timeout = machine.timeouts.get(s)
        if timeout is not None and timeout.bound is not None:
            lines.append(f"edge {s} -> {timeout.target} : eps, x == {timeout.bound}, x := 0")
    for t in machine.transitions:
        lines.append(
            f"edge {t.source} -> {t.target} : {t.input}/{t.output}, "
            f"{_clock_constraint(t.guard)}, x := 0"
        )
    return "\n".join(lines) + "\n"
