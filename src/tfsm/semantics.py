"""Execution semantics for timed machines and their untimed counterparts.

The timed semantics has two moves.  *Delay*: letting ``t`` time units pass
from configuration ``(s, x)`` yields ``(s, x + t)`` as long as the clock
stays strictly below the timeout bound of ``s``; the instant it reaches the
bound the machine jumps to the timeout target with the clock reset to zero,
and the remaining time keeps flowing there (several timeouts can fire during
one long delay).  *Input*: a symbol is consumed only if some transition's
guard contains the current clock value; the clock resets on every input.

The tick encoding maps a rational delay onto a repetition of the reserved
tick symbol, two ticks per whole time unit: a delay of ``n`` becomes ``2n``
ticks and a fractional delay with floor ``n`` becomes ``2n + 1`` ticks.
This is the bridge between timed words and the untimed machines produced by
abstraction.
"""

from dataclasses import dataclass
from fractions import Fraction

from .core import MealyMachine, TimedMachine, TimedState, TimedWord, TICK


@dataclass(frozen=True)
class RunResult:
    """Outcome of feeding a timed word to a timed machine.

    ``outputs`` holds the outputs of the inputs that were consumed.  On
    rejection, ``rejection_point`` is the index of the first refused
    symbol and ``final`` is the configuration in which it was refused
    (after the preceding delay had elapsed).
    """

    accepted: bool
    outputs: tuple[str, ...]
    final: TimedState
    rejection_point: int | None = None


@dataclass(frozen=True)
class MealyRun:
    """Outcome of feeding a symbol sequence to a partial Mealy machine."""

    accepted: bool
    outputs: tuple[str, ...]
    final: str
    rejection_point: int | None = None


def advance(machine: TimedMachine, config: TimedState, t) -> TimedState:
    """Let ``t`` time units pass, firing as many timeouts as they cover."""
    t = Fraction(t)
    if t < 0:
        raise ValueError(f"cannot advance by negative time {t}")
    state, clock = config.state, config.clock + t
    while True:
        timeout = machine.timeouts[state]
        if timeout.bound is None or clock < timeout.bound:
            return TimedState(state, clock)
        clock -= timeout.bound
        state = timeout.target


def step(machine: TimedMachine, config: TimedState, symbol: str):
    """Consume one input symbol at the current clock value.

    Returns ``(output, next_config)`` for the unique enabled transition,
    or ``None`` if no guard admits the clock value (input undefined here).
    The guard is found by bisection over the machine's guard index, so the
    machine must pass :func:`~tfsm.core.validate_tfsm`: with overlapping
    guards the one found need not be the first that admits the clock.
    """
    t = machine.enabled(config.state, symbol, tick_encode_delay(config.clock))
    if t is None:
        return None
    return t.output, TimedState(t.target, Fraction(0))


def run(machine: TimedMachine, word: TimedWord) -> RunResult:
    """Execute a timed word from the initial configuration."""
    config = TimedState(machine.initial, Fraction(0))
    outputs = []
    now = Fraction(0)
    for k, (symbol, stamp) in enumerate(word):
        config = advance(machine, config, stamp - now)
        now = stamp
        result = step(machine, config, symbol)
        if result is None:
            return RunResult(False, tuple(outputs), config, rejection_point=k)
        output, config = result
        outputs.append(output)
    return RunResult(True, tuple(outputs), config)


def mealy_run(machine: MealyMachine, symbols) -> MealyRun:
    """Execute an input sequence on a partial Mealy machine."""
    state = machine.initial
    outputs = []
    for k, symbol in enumerate(symbols):
        edge = machine.transitions.get((state, symbol))
        if edge is None:
            return MealyRun(False, tuple(outputs), state, rejection_point=k)
        output, state = edge
        outputs.append(output)
    return MealyRun(True, tuple(outputs), state)


def tick_encode_delay(t) -> int:
    """Number of ticks encoding a delay: ``2t`` if integral, else ``2*floor(t) + 1``."""
    t = Fraction(t)
    n, d = t.numerator, t.denominator
    if n < 0:
        raise ValueError(f"cannot encode negative delay {t}")
    return 2 * (n // d) + (d != 1)


def tick_encode_word(word: TimedWord) -> tuple[str, ...]:
    """Encode a timed word as an untimed sequence over user symbols and ticks."""
    out: list[str] = []
    for delay, (symbol, _) in zip(word.delays(), word):
        out.extend([TICK] * tick_encode_delay(delay))
        out.append(symbol)
    return tuple(out)
