"""Deterministic single-clock timed finite state machines.

Timed machines pair a Mealy-style transducer with one clock: transitions
carry interval guards over the clock, and each state times out to a
successor when the clock reaches its bound.  This package simulates timed
words on such machines, abstracts them onto untimed Mealy machines over a
tick alphabet, refines tick machines back into timed ones, and builds
equivalence checks and intersections of timed machines on top of that
round trip.  Machine files, Graphviz and timed-automaton exports, and the
``tfsm`` command line tool round it out.
"""

from .abstraction import (
    BisimCheck,
    BisimRelation,
    ClockInterval,
    abstract,
    abstract_state_name,
    canonical_bisimulation,
    check_bisimulation,
    interval_set,
    max_constant,
)
from .core import (
    Guard,
    MealyMachine,
    TICK,
    TimedMachine,
    TimedState,
    TimedWord,
    Timeout,
    Transition,
    validate_fsm,
    validate_tfsm,
)
from .export import export_dot, export_timed_automaton
from .formats import MachineDocument, ParseError, parse_document, parse_fsm, parse_tfsm, serialize
from .fsm_algebra import (
    DEFINEDNESS_MISMATCH,
    OUTPUT_MISMATCH,
    Counterexample,
    EquivalenceVerdict,
    canonical_fsm,
    equivalent,
    minimize,
    product,
    reachable,
)
from .pipelines import (
    TimedEquivalenceVerdict,
    canonical_tfsm,
    decode_tick_word,
    tfsm_equivalent,
    tfsm_intersect,
)
from .refinement import TimeProgressReport, is_time_progressive, merge_guards, refine
from .semantics import (
    MealyRun,
    RunResult,
    advance,
    mealy_run,
    run,
    step,
    tick_encode_delay,
    tick_encode_word,
)

__all__ = [
    "BisimCheck",
    "BisimRelation",
    "ClockInterval",
    "Counterexample",
    "DEFINEDNESS_MISMATCH",
    "EquivalenceVerdict",
    "Guard",
    "MachineDocument",
    "MealyMachine",
    "MealyRun",
    "OUTPUT_MISMATCH",
    "ParseError",
    "RunResult",
    "TICK",
    "TimeProgressReport",
    "TimedEquivalenceVerdict",
    "TimedMachine",
    "TimedState",
    "TimedWord",
    "Timeout",
    "Transition",
    "abstract",
    "abstract_state_name",
    "advance",
    "canonical_bisimulation",
    "canonical_fsm",
    "canonical_tfsm",
    "check_bisimulation",
    "decode_tick_word",
    "equivalent",
    "export_dot",
    "export_timed_automaton",
    "interval_set",
    "is_time_progressive",
    "max_constant",
    "mealy_run",
    "minimize",
    "parse_document",
    "parse_fsm",
    "parse_tfsm",
    "product",
    "reachable",
    "refine",
    "run",
    "serialize",
    "step",
    "tfsm_equivalent",
    "tfsm_intersect",
    "tick_encode_delay",
    "tick_encode_word",
    "validate_fsm",
    "validate_tfsm",
]

__version__ = "0.1.0"
