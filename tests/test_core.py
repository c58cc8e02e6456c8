"""Domain types: guards, timeouts, words, machines, structural validation."""

from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from tfsm import (
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
from machine_gen import guard_contains, guards_disjoint


@st.composite
def guards(draw, max_constant=6):
    """Any non-empty guard with endpoints up to max_constant (or unbounded)."""
    lower = draw(st.integers(0, max_constant))
    if draw(st.booleans()):
        upper = None
        upper_closed = False
    else:
        upper = draw(st.integers(lower, max_constant))
        upper_closed = draw(st.booleans())
    if upper == lower:
        lower_closed = upper_closed = True
    else:
        lower_closed = draw(st.booleans())
    return Guard(lower, upper, lower_closed, upper_closed)


class TestGuard:
    def test_membership_respects_closedness(self):
        g = Guard(1, 3, False, True)
        assert not guard_contains(g, 1)
        assert guard_contains(g, Fraction(3, 2))
        assert guard_contains(g, 3)
        assert not guard_contains(g, Fraction(7, 2))
        assert guard_contains(g, 2)

    def test_unbounded_guard(self):
        g = Guard(2, None, True, False)
        assert guard_contains(g, 2)
        assert guard_contains(g, Fraction(10 ** 9))
        assert not guard_contains(g, Fraction(3, 2))
        assert str(g) == "[2,inf)"

    def test_rendering(self):
        assert str(Guard.point(3)) == "[3,3]"
        assert str(Guard(0, 1, True, False)) == "[0,1)"
        assert str(Guard(1, 2, False, True)) == "(1,2]"

    def test_empty_guards_rejected(self):
        with pytest.raises(ValueError):
            Guard(3, 2, True, True)
        with pytest.raises(ValueError):
            Guard(2, 2, True, False)
        with pytest.raises(ValueError):
            Guard(-1, 2, True, True)
        with pytest.raises(ValueError):
            Guard(1, None, True, True)

    def test_disjointness_basics(self):
        assert guards_disjoint(Guard(0, 1, True, False), Guard(1, 2, True, False))
        assert not guards_disjoint(Guard(0, 1, True, True), Guard(1, 2, True, False))
        assert guards_disjoint(Guard(0, 1, True, True), Guard(1, 2, False, True))
        assert not guards_disjoint(Guard(0, None, True, False), Guard(5, 7, True, True))
        assert not guards_disjoint(Guard(2, None, False, False), Guard(0, None, True, False))

    @given(guards(), guards())
    def test_disjointness_matches_pointwise_search(self, g1, g2):
        """Two integer-endpoint guards overlap iff they share a half-integer point.

        The half-integer grid up to one unit past the largest endpoint hits
        every point interval and every open unit gap, so searching it is an
        exhaustive membership oracle for the symbolic check.
        """
        tops = [g.upper for g in (g1, g2) if g.upper is not None]
        tops += [g1.lower, g2.lower]
        grid_end = 2 * (max(tops) + 1)
        shared = any(
            guard_contains(g1, Fraction(k, 2)) and guard_contains(g2, Fraction(k, 2))
            for k in range(grid_end + 1)
        )
        assert guards_disjoint(g1, g2) == (not shared)
        assert guards_disjoint(g2, g1) == guards_disjoint(g1, g2)


class TestTimeout:
    def test_finite_needs_target(self):
        with pytest.raises(ValueError):
            Timeout(2)
        with pytest.raises(ValueError):
            Timeout(0, "s")
        assert Timeout(1, "s").target == "s"

    def test_infinite_carries_no_target(self):
        assert Timeout(None).target is None
        with pytest.raises(ValueError):
            Timeout(None, "s")


class TestTimedWord:
    def test_timestamps_must_not_decrease(self):
        TimedWord.of(("i", 0), ("i", 0), ("i", "3/2"))
        with pytest.raises(ValueError):
            TimedWord.of(("i", 1), ("i", "1/2"))
        with pytest.raises(ValueError):
            TimedWord.of(("i", -1))

    def test_delays_measured_from_zero(self):
        w = TimedWord.of(("a", "1/2"), ("b", "1/2"), ("c", 3))
        assert w.delays() == (Fraction(1, 2), 0, Fraction(5, 2))
        assert w.symbols() == ("a", "b", "c")
        assert len(w) == 3
        assert str(w) == "(a, 1/2) (b, 1/2) (c, 3)"

    def test_negative_clock_rejected(self):
        with pytest.raises(ValueError):
            TimedState("s", Fraction(-1, 2))


def _tiny(transitions, timeouts=None):
    return TimedMachine(
        states=("p", "q"),
        inputs=("i",),
        outputs=("o",),
        initial="p",
        transitions=transitions,
        timeouts=timeouts or {"p": Timeout(None), "q": Timeout(None)},
    )


class TestTimedMachine:
    def test_transitions_sorted_canonically(self):
        """Construction order must not leak into the transition tuple."""
        a = Transition("p", "i", Guard(1, 2, True, False), "o", "q")
        b = Transition("p", "i", Guard(0, 1, True, False), "o", "p")
        c = Transition("q", "i", Guard.point(0), "o", "p")
        assert _tiny((a, b, c)).transitions == (b, a, c)
        assert _tiny((c, a, b)).transitions == (b, a, c)

    def test_validate_accepts_a_sane_machine(self):
        m = _tiny((Transition("p", "i", Guard(0, 2, True, False), "o", "q"),),
                  {"p": Timeout(2, "q"), "q": Timeout(None)})
        assert validate_tfsm(m) == []

    def test_validate_reports_overlapping_guards(self):
        m = _tiny((
            Transition("p", "i", Guard(0, 2, True, True), "o", "q"),
            Transition("p", "i", Guard(2, 3, True, False), "o", "p"),
        ))
        assert any("overlap" in p for p in validate_tfsm(m))

    def test_validate_reports_each_overlapping_pair_once_in_order(self):
        """Three mutually overlapping guards and one apart: three messages, pair by pair."""
        m = _tiny(tuple(
            Transition("p", "i", g, "o", "q")
            for g in (Guard(6, 7, True, True), Guard(2, 5, True, True),
                      Guard(1, 2, True, True), Guard(0, 3, True, True))
        ))
        assert validate_tfsm(m) == [
            f"nondeterministic: guards {a} and {b} overlap on input i at state p"
            for a, b in (("[0,3]", "[1,2]"), ("[0,3]", "[2,5]"), ("[1,2]", "[2,5]"))
        ]

    def test_validate_reports_guard_at_or_past_timeout(self):
        # [0,2] admits clock 2, but the timeout fires at 2.
        m = _tiny((Transition("p", "i", Guard(0, 2, True, True), "o", "q"),),
                  {"p": Timeout(2, "q"), "q": Timeout(None)})
        assert any("timeout bound" in p for p in validate_tfsm(m))
        ok = _tiny((Transition("p", "i", Guard(0, 2, True, False), "o", "q"),),
                   {"p": Timeout(2, "q"), "q": Timeout(None)})
        assert validate_tfsm(ok) == []

    def test_validate_reports_unbounded_guard_under_finite_timeout(self):
        m = _tiny((Transition("p", "i", Guard(0, None, True, False), "o", "q"),),
                  {"p": Timeout(3, "q"), "q": Timeout(None)})
        assert any("timeout bound" in p for p in validate_tfsm(m))

    def test_validate_reports_missing_and_dangling_references(self):
        m = TimedMachine(
            states=("p", "p"),
            inputs=("i", "i"),
            outputs=("p",),
            initial="elsewhere",
            transitions=(Transition("p", "j", Guard.point(0), "x", "ghost"),),
            timeouts={"p": Timeout(1, "ghost"), "other": Timeout(None)},
        )
        problems = validate_tfsm(m)
        assert any("declared more than once" in p for p in problems)
        assert any("both a state and an output" in p for p in problems)
        assert any("initial state" in p for p in problems)
        assert any("undeclared input" in p for p in problems)
        assert any("enters unknown state" in p for p in problems)
        assert any("targets unknown state" in p for p in problems)
        assert any("unknown state" in p and "timeout declared" in p for p in problems)

    def test_validate_reports_missing_timeout(self):
        m = TimedMachine(("p",), ("i",), ("o",), "p", (), {})
        assert any("no timeout" in p for p in validate_tfsm(m))


HEADER_FAULTS = [
    "state 's' declared more than once",
    "input symbol 'i' declared more than once",
    "output symbol 'o' declared more than once",
    "'i' is both a state and an input symbol",
    "'o' is both a state and an output symbol",
]
EMPTY_HEADER = [
    "machine has no states",
    "machine has an empty input alphabet",
    "machine has an empty output alphabet",
    "initial state 'nowhere' is not a declared state",
]


class TestHeaderValidation:
    """Both validators report the same header faults, in the same order."""

    def test_timed_machine_with_every_header_fault(self):
        m = TimedMachine(
            ("s", "s", "i", "o"), ("i", "i", "x"), ("o", "o", "x"), "nowhere", (),
            {"s": Timeout(None), "i": Timeout(None), "o": Timeout(None)},
        )
        assert validate_tfsm(m) == HEADER_FAULTS + [
            "'x' is both an input and an output symbol",
            "initial state 'nowhere' is not a declared state",
        ]

    def test_mealy_machine_with_every_header_fault(self):
        m = MealyMachine(("s", "s", "i", "o"), ("i", "i", "x"), ("o", "o", "x"), "nowhere", {})
        # Untimed machines may share input and output symbols, as the tick does.
        assert validate_fsm(m) == HEADER_FAULTS + ["initial state 'nowhere' is not a declared state"]

    def test_empty_header(self):
        assert validate_tfsm(TimedMachine((), (), (), "nowhere", (), {})) == EMPTY_HEADER
        assert validate_fsm(MealyMachine((), (), (), "nowhere", {})) == EMPTY_HEADER


class TestMealyValidation:
    def test_valid_machine(self):
        m = MealyMachine(
            states=("a", "b"),
            inputs=("i", TICK),
            outputs=("o", TICK),
            initial="a",
            transitions={("a", "i"): ("o", "b"), ("a", TICK): (TICK, "a")},
        )
        assert validate_fsm(m) == []
        assert m.user_inputs == ("i",)
        assert m.user_outputs == ("o",)

    def test_dangling_references_reported(self):
        m = MealyMachine(
            states=("a",),
            inputs=("i",),
            outputs=("o",),
            initial="b",
            transitions={("a", "j"): ("x", "c")},
        )
        problems = validate_fsm(m)
        assert any("initial state" in p for p in problems)
        assert any("undeclared input" in p for p in problems)
        assert any("unknown state" in p for p in problems)
        assert any("undeclared output" in p for p in problems)
