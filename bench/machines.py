"""Seeded inputs and reference answers for the tfsm benchmark.

Nothing here imports tfsm.  Machines are plain data, written to and read
from the tfsm text format by this module's own code and run by a small
reference interpreter, so every answer the benchmark checks is known
without trusting the program under test.

Clock values are split into *atoms*: atom ``2n`` is the point [n,n] and
atom ``2n+1`` the open interval (n,n+1).  A guard is a closed range of
atoms ``(first, last)``; ``last`` is ``INF`` for a guard unbounded above.
"""

import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction

INF = math.inf
TICK = "@t"


def atom(x: Fraction) -> int:
    """The atom holding clock value ``x`` (``x >= 0``)."""
    return 2 * (x.numerator // x.denominator) + (x.denominator != 1)


def guard_text(first: int, last) -> str:
    left = "[" if first % 2 == 0 else "("
    if last == INF:
        return f"{left}{first // 2},inf)"
    if last % 2 == 0:
        return f"{left}{first // 2},{last // 2}]"
    return f"{left}{first // 2},{last // 2 + 1})"


def guard_atoms(text: str) -> tuple:
    m = re.fullmatch(r"([\[(])(\d+),(\d+|inf)([\])])", text)
    if m is None:
        raise ValueError(f"malformed guard {text!r}")
    left, lo, hi, right = m.groups()
    first = 2 * int(lo) + (left == "(")
    if hi == "inf":
        return first, INF
    return first, 2 * int(hi) - (right == ")")


def sample_in(first: int, last, rng: random.Random, max_den: int = 3) -> Fraction:
    """A clock value inside the atom range, with a small denominator."""
    a = rng.randint(first, first + 4 if last == INF else last)
    if a % 2 == 0:
        return Fraction(a // 2)
    den = rng.randint(2, max_den)
    return a // 2 + Fraction(rng.randint(1, den - 1), den)


@dataclass
class Machine:
    """A timed machine: ``timeouts[s]`` is ``(bound, target)`` or ``None`` for inf."""

    states: list
    inputs: list
    outputs: list
    initial: str
    timeouts: dict
    trans: list  # (source, input, first, last, output, target)
    _index: dict = field(default=None, repr=False, compare=False)

    def moves(self, state, symbol):
        if self._index is None:
            self._index = {}
            for s, i, first, last, o, t in self.trans:
                self._index.setdefault((s, i), []).append((first, last, o, t))
        return self._index.get((state, symbol), ())

    def settle(self, state, clock):
        """Fire timeouts until the clock is below the bound, whole cycles at once."""
        seen = {}
        while True:
            timeout = self.timeouts[state]
            if timeout is None or clock < timeout[0]:
                return state, clock
            if state in seen and seen[state] > clock:
                clock %= seen[state] - clock
                seen = {}
                continue
            seen[state] = clock
            clock -= timeout[0]
            state = timeout[1]

    def text(self, name: str) -> str:
        lines = [
            f"tfsm {name}",
            "inputs " + " ".join(self.inputs),
            "outputs " + " ".join(self.outputs),
            "states " + " ".join(self.states),
            f"initial {self.initial}",
        ]
        for s in self.states:
            timeout = self.timeouts[s]
            lines.append(f"timeout {s} inf" if timeout is None else f"timeout {s} {timeout[0]} -> {timeout[1]}")
        for s, i, first, last, o, t in self.trans:
            lines.append(f"trans {s} {i} {guard_text(first, last)} / {o} -> {t}")
        return "\n".join(lines) + "\n"


def ref_run(machine: Machine, word) -> tuple:
    """``(outputs, rejection_index or None)`` of a timed word."""
    state, clock, now = machine.initial, Fraction(0), Fraction(0)
    outputs = []
    for k, (symbol, stamp) in enumerate(word):
        state, clock = machine.settle(state, clock + stamp - now)
        now = stamp
        a = atom(clock)
        for first, last, o, target in machine.moves(state, symbol):
            if first <= a <= last:
                outputs.append(o)
                state, clock = target, Fraction(0)
                break
        else:
            return tuple(outputs), k
    return tuple(outputs), None


def ref_mealy_run(transitions: dict, initial: str, symbols) -> tuple:
    """``(outputs, rejection_index or None)`` on an untimed transition map."""
    state, outputs = initial, []
    for k, symbol in enumerate(symbols):
        edge = transitions.get((state, symbol))
        if edge is None:
            return tuple(outputs), k
        outputs.append(edge[0])
        state = edge[1]
    return tuple(outputs), None


def tick_encode(word) -> list:
    """Two ticks per time unit, one more for a fractional delay, then the symbol."""
    out, now = [], Fraction(0)
    for symbol, stamp in word:
        delay = stamp - now
        now = stamp
        out.extend([TICK] * atom(delay))
        out.append(symbol)
    return out


def ticks_agree(machine: Machine, fsm: tuple, word) -> bool:
    """Does an untimed machine answer the tick encoding as the timed machine answers ``word``?"""
    outputs, rejected = ref_run(machine, word)
    got, fsm_rejected = ref_mealy_run(fsm[0], fsm[1], tick_encode(word))
    expected = tick_encode(list(zip(outputs, (stamp for _, stamp in word))))
    if rejected is None:
        return fsm_rejected is None and list(got) == expected
    return (
        fsm_rejected is not None
        and list(got[: len(expected)]) == expected
        and all(o == TICK for o in got[len(expected):])
    )


def parse_machine(text: str) -> Machine:
    """Read a ``tfsm`` file as written by the program under test."""
    header, timeouts, trans = {}, {}, []
    for line in text.splitlines():
        tokens = line.split("#", 1)[0].split()
        if not tokens:
            continue
        key = tokens[0]
        if key == "timeout":
            timeouts[tokens[1]] = None if tokens[2] == "inf" else (int(tokens[2]), tokens[4])
        elif key == "trans":
            first, last = guard_atoms(tokens[3])
            trans.append((tokens[1], tokens[2], first, last, tokens[5], tokens[7]))
        else:
            header[key] = tokens[1:]
    return Machine(header["states"], header["inputs"], header["outputs"], header["initial"][0], timeouts, trans)


def parse_fsm(text: str) -> tuple:
    """Read an ``fsm`` file as ``(transitions, initial, state count)``."""
    transitions, initial, states = {}, None, 0
    for line in text.splitlines():
        tokens = line.split("#", 1)[0].split()
        if not tokens:
            continue
        if tokens[0] == "trans":
            i, o = tokens[2].split("/")
            transitions[(tokens[1], i)] = (o, tokens[4])
        elif tokens[0] == "initial":
            initial = tokens[1]
        elif tokens[0] == "states":
            states = len(tokens) - 1
    return transitions, initial, states


# ---------------------------------------------------------------- generators

def random_machine(rng: random.Random, n: int, states: int, guards: int) -> Machine:
    """A valid machine with largest constant ``n``.

    Timeouts chain the states in a ring, so every state is reachable, and
    bounds lie between ``7n/8`` and ``n`` (the first state's is ``n``), so
    the size of the tick abstraction varies little between seeds.  Each
    (state, input) pair gets ``guards`` disjoint guards.
    """
    names = [f"s{k}" for k in range(states)]
    inputs, outputs = ["a", "b"], ["x", "y", "z"]
    timeouts = {}
    for k, s in enumerate(names):
        bound = n if k == 0 else rng.randint(n - n // 8, n)
        timeouts[s] = (bound, names[(k + 1) % states])
    trans = []
    for s in names:
        top = 2 * timeouts[s][0] - 1
        for i in inputs:
            cuts = sorted(rng.sample(range(top + 1), 2 * guards))
            for first, last in zip(cuts[::2], cuts[1::2]):
                trans.append((s, i, first, last, rng.choice(outputs), rng.choice(names)))
    return Machine(names, inputs, outputs, names[0], timeouts, trans)


def edited_copy(rng: random.Random, machine: Machine, outputs_changed: int = 0, targets_changed: int = 0):
    """A copy with renamed states and some guards split at an interior integer.

    Renaming and splitting keep the behaviour.  Then ``outputs_changed``
    transitions get another output and ``targets_changed`` another target.
    """
    order = list(machine.states)
    rng.shuffle(order)
    rename = {s: f"q{k}" for k, s in enumerate(order)}
    trans = []
    for s, i, first, last, o, t in machine.trans:
        cut = 2 * (first // 2 + 1)  # the first integer strictly above the lower end
        if cut < last and rng.random() < 0.5:
            cut = 2 * rng.randint(cut // 2, (last - 1) // 2)
            trans.append((rename[s], i, first, cut - 1, o, rename[t]))
            first = cut
        trans.append((rename[s], i, first, last, o, rename[t]))
    for k in rng.sample(range(len(trans)), outputs_changed + targets_changed):
        s, i, first, last, o, t = trans[k]
        if outputs_changed:
            outputs_changed -= 1
            o = rng.choice([x for x in machine.outputs if x != o])
        else:
            t = rng.choice([x for x in rename.values() if x != t])
        trans[k] = (s, i, first, last, o, t)
    rng.shuffle(trans)
    timeouts = {
        rename[s]: None if to is None else (to[0], rename[to[1]]) for s, to in machine.timeouts.items()
    }
    return Machine([rename[s] for s in order], list(machine.inputs), list(machine.outputs),
                   rename[machine.initial], timeouts, trans)


def separated_copy(rng: random.Random, machine: Machine, depth: int):
    """An inequivalent copy and a timed word that separates it from ``machine``.

    The word follows ``depth`` transitions chosen here, then fires one more
    transition whose output the copy changes.
    """
    word, state, now = [], machine.initial, Fraction(0)
    for _ in range(depth):
        s, i, first, last, o, t = rng.choice([tr for tr in machine.trans if tr[0] == state])
        now += sample_in(first, last, rng)
        word.append((i, now))
        state = t
    chosen = rng.choice([k for k, tr in enumerate(machine.trans) if tr[0] == state])
    s, i, first, last, o, t = machine.trans[chosen]
    now += sample_in(first, last, rng)
    word.append((i, now))
    trans = list(machine.trans)
    trans[chosen] = (s, i, first, last, rng.choice([x for x in machine.outputs if x != o]), t)
    changed = Machine(machine.states, machine.inputs, machine.outputs, machine.initial, machine.timeouts, trans)
    return edited_copy(rng, changed), word


def random_word(rng: random.Random, machine: Machine, length: int):
    """A timed word that mostly follows ``machine``'s guards, sometimes not."""
    word, state, now = [], machine.initial, Fraction(0)
    for _ in range(length):
        choices = [tr for tr in machine.trans if tr[0] == state]
        if choices and rng.random() < 0.85:
            s, i, first, last, o, t = rng.choice(choices)
            now += sample_in(first, last, rng)
            state = t
        else:
            i = rng.choice(machine.inputs)
            now += Fraction(rng.randint(0, 12), rng.randint(1, 3))
        word.append((i, now))
    return word


# ------------------------------------------------------------------ ring family

@dataclass
class Ring:
    """States ``r0 .. r{k-1}`` chained by timeouts, guards laid out by formula.

    At state ``j`` input ``i`` (an index), guard ``m`` covers atoms
    ``[m*width, (m+1)*width)`` unless ``m`` is a gap, and every timeout
    bound is ``guards*width/2 + tail``, so the last ``2*tail`` atoms are a
    gap too.  Outputs and targets are formulas of ``(j, i, m)``.
    """

    k: int
    guards: int
    width: int
    tail: int
    gap_every: int
    gap_offset: int = 0
    inputs: tuple = ("a", "b")
    outputs: tuple = ("x", "y", "z")

    @property
    def bound(self) -> int:
        return self.guards * self.width // 2 + self.tail

    def is_gap(self, j: int, i: int, m: int) -> bool:
        return (m * 5 + j * 3 + i + self.gap_offset) % self.gap_every == 0

    def output(self, j: int, i: int, m: int) -> str:
        return self.outputs[(m + 2 * j + i) % len(self.outputs)]

    def target(self, j: int, i: int, m: int) -> int:
        return (j + 1 + (m + i) % 2) % self.k

    def machine(self) -> Machine:
        names = [f"r{j}" for j in range(self.k)]
        trans = [
            (names[j], sym, m * self.width, (m + 1) * self.width - 1, self.output(j, i, m), names[self.target(j, i, m)])
            for j in range(self.k)
            for i, sym in enumerate(self.inputs)
            for m in range(self.guards)
            if not self.is_gap(j, i, m)
        ]
        timeouts = {names[j]: (self.bound, names[(j + 1) % self.k]) for j in range(self.k)}
        return Machine(names, list(self.inputs), list(self.outputs), names[0], timeouts, trans)

    def locate(self, j: int, clock: Fraction) -> tuple:
        """Reduce a clock modulo the ring period, then count whole bounds."""
        clock %= self.k * self.bound
        hops, clock = divmod(clock, self.bound)
        return (j + int(hops)) % self.k, clock

    def guard_at(self, j: int, i: int, clock: Fraction):
        m = atom(clock) // self.width
        if m >= self.guards or self.is_gap(j, i, m):
            return None
        return m

    def expected(self, word) -> tuple:
        """``(outputs, rejection_index or None)`` in closed form."""
        j, clock, now, outputs = 0, Fraction(0), Fraction(0), []
        for k, (symbol, stamp) in enumerate(word):
            j, clock = self.locate(j, clock + stamp - now)
            now = stamp
            i = self.inputs.index(symbol)
            m = self.guard_at(j, i, clock)
            if m is None:
                return tuple(outputs), k
            outputs.append(self.output(j, i, m))
            j, clock = self.target(j, i, m), Fraction(0)
        return tuple(outputs), None

    def word(self, rng: random.Random, length: int, long_delays: int, rejected: bool) -> list:
        """A word whose symbols all land on guards, except the last when ``rejected``.

        Delays have denominators 1 to 7.  ``long_delays`` of them, at random
        places, are 10^3 to 10^5 time units, one from each equal slice of
        that range on a log scale; the others are shorter than one bound.
        """
        word, j, clock, now = [], 0, Fraction(0), Fraction(0)
        long_at = sorted(rng.sample(range(length), long_delays))
        for k in range(length):
            last = k == length - 1
            while True:
                den = rng.randint(1, 7)
                if k in long_at:
                    exponent = 3 + 2 * (long_at.index(k) + rng.random()) / long_delays
                    delay = Fraction(round(10 ** exponent * den), den)
                else:
                    delay = Fraction(rng.randrange(self.bound * den), den)
                i = rng.randrange(len(self.inputs))
                j2, clock2 = self.locate(j, clock + delay)
                m = self.guard_at(j2, i, clock2)
                if (m is None) == (rejected and last):
                    break
            now += delay
            word.append((self.inputs[i], now))
            if m is not None:
                j, clock = self.target(j2, i, m), Fraction(0)
        return word
