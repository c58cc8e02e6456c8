"""
Rebuilding a timed machine from a tick Mealy machine
====================================================
"""

from pathlib import Path

from tfsm import (
    TICK, MealyMachine, abstract, is_time_progressive, parse_document,
    refine, serialize, tfsm_equivalent,
)

MACHINES = Path(__file__).resolve().parent.parent / "machines"

# The handwritten 6-state tick machine for the guarded pair.
fsm = parse_document((MACHINES / "guarded_pair_abstract.fsm").read_text()).body

# Refinement walks the tick transitions of each state, one clock interval
# per tick, up to the first state it repeats, and reads off guards and a
# timeout.  Each guard covers a whole run of intervals with one label.
machine = refine(fsm)
print(serialize(machine, "rebuilt"))

# Without merging, every transition carries a single point or unit interval.
raw = refine(fsm, merge=False)
print("atoms before merging: ", len(raw.transitions))
print("guards after merging: ", len(machine.transitions))

# The rebuilt machine is not the one we started from -- it keeps one state
# per anchor of the walk -- but its behavior is identical.
original = parse_document((MACHINES / "guarded_pair.tfsm").read_text()).body
print("states:", original.states, "->", machine.states)
print("equivalent:", tfsm_equivalent(original, machine).equivalent)

# Round trips compose the other way too: abstract, then refine.
again = refine(abstract(original))
print("abstract-then-refine equivalent:", tfsm_equivalent(original, again).equivalent)

# Only time-progressive machines refine: every state must let time pass.
stuck = MealyMachine(
    states=("a", "b"),
    inputs=("i", TICK),
    outputs=("o", TICK),
    initial="a",
    transitions={("a", TICK): (TICK, "b"), ("b", "i"): ("o", "a")},
)
report = is_time_progressive(stuck)
print("time passes everywhere:", report.ok, "- offenders:", report.offenders)
try:
    refine(stuck)
except ValueError as exc:
    print("refine refused:", exc)
