"""DOT and timed-automaton renderings."""

from tfsm import (
    Guard,
    TimedMachine,
    Timeout,
    abstract,
    export_dot,
    export_timed_automaton,
)
from tfsm.export import _clock_constraint
from conftest import MACHINES


class TestDot:
    def test_initial_state_is_doubled_once(self, guarded_pair):
        dot = export_dot(guarded_pair, "guarded_pair")
        assert dot.startswith('digraph "guarded_pair" {')
        assert dot.count("doublecircle") == 1
        assert '"s0" [shape=doublecircle];' in dot

    def test_guarded_edges_carry_guard_and_labels(self, guarded_pair):
        dot = export_dot(guarded_pair)
        assert '"s0" -> "s0" [label="[0,1):i/o1"];' in dot
        assert '"s1" -> "s0" [label="(1,inf):i/o1"];' in dot

    def test_timeouts_are_dashed(self, guarded_pair):
        dot = export_dot(guarded_pair)
        assert '"s0" -> "s1" [label="t=1", style=dashed];' in dot
        # s1 never times out, so exactly one dashed edge.
        assert dot.count("style=dashed") == 1

    def test_untimed_edges_use_io_labels(self, guarded_pair):
        dot = export_dot(abstract(guarded_pair))
        assert '"s0,[0,0]" -> "s0,(0,1)" [label="@t/@t"];' in dot
        assert '"s0,[0,0]" -> "s0,[0,0]" [label="i/o1"];' in dot

    def test_quoting_escapes_quotes_and_backslashes(self):
        machine = TimedMachine(
            states=('q"0\\',),
            inputs=("i",),
            outputs=("o",),
            initial='q"0\\',
            transitions=(),
            timeouts={'q"0\\': Timeout(None)},
        )
        dot = export_dot(machine)
        assert '"q\\"0\\\\" [shape=doublecircle];' in dot


class TestClockConstraints:
    def test_each_guard_shape(self):
        assert _clock_constraint(Guard(1, 2, True, False)) == "x >= 1 && x < 2"
        assert _clock_constraint(Guard(0, 1, False, False)) == "x > 0 && x < 1"
        assert _clock_constraint(Guard(0, 2, True, True)) == "x <= 2"
        assert _clock_constraint(Guard(2, 2, True, True)) == "x == 2"
        assert _clock_constraint(Guard(2, None, False, False)) == "x > 2"
        assert _clock_constraint(Guard(0, None, True, False)) == "true"


class TestTimedAutomaton:
    def test_matches_the_checked_in_rendering(self, guarded_pair):
        golden = (MACHINES / "guarded_pair.ta").read_text()
        assert export_timed_automaton(guarded_pair, "guarded_pair") == golden

    def test_finite_timeouts_become_invariants_and_eps_edges(self, handover):
        text = export_timed_automaton(handover, "handover")
        assert "location A invariant x <= 2" in text
        assert "location B\n" in text  # no invariant without a bound
        assert "edge A -> C : eps, x == 2, x := 0" in text
        assert "edge C -> A : eps, x == 1, x := 0" in text

    def test_every_guarded_move_resets_the_clock(self, handover):
        text = export_timed_automaton(handover, "handover")
        edges = [line for line in text.splitlines() if line.startswith("edge")]
        assert edges and all(line.endswith("x := 0") for line in edges)
        assert "edge A -> B : i/o1, x < 1, x := 0" in text
