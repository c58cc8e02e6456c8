"""Rebuilding timed machines from tick-based Mealy machines."""

import random

import pytest

from tfsm import (
    TICK,
    Guard,
    MealyMachine,
    TimedMachine,
    Timeout,
    Transition,
    abstract,
    canonical_bisimulation,
    canonical_tfsm,
    check_bisimulation,
    is_time_progressive,
    merge_guards,
    refine,
    tfsm_equivalent,
    validate_tfsm,
)
from machine_gen import random_time_progressive_fsm, random_timed_word, ticks_agree


def clocked(states, transitions):
    """A one-input Mealy machine over i and the tick symbol."""
    return MealyMachine(
        states=tuple(states),
        inputs=("i", TICK),
        outputs=("o", TICK),
        initial=states[0],
        transitions=transitions,
    )


class TestTimeProgress:
    def test_every_state_must_let_time_pass(self):
        fsm = clocked(
            ["a", "b"],
            {
                ("a", TICK): (TICK, "b"),
                ("a", "i"): ("o", "b"),
                ("b", "i"): ("o", "a"),
            },
        )
        report = is_time_progressive(fsm)
        assert not report.ok and report.offenders == ("b",)

    def test_tick_must_answer_tick(self):
        fsm = clocked(
            ["a"],
            {("a", TICK): ("o", "a"), ("a", "i"): ("o", "a")},
        )
        report = is_time_progressive(fsm)
        assert not report.ok and report.offenders == ("a",)

    def test_abstractions_are_time_progressive(self, guarded_pair, handover, blinker):
        for machine in (guarded_pair, handover, blinker):
            assert is_time_progressive(abstract(machine)).ok


class TestRefineErrors:
    def test_stuck_state_is_rejected(self):
        fsm = clocked(["a"], {("a", "i"): ("o", "a")})
        with pytest.raises(ValueError, match="not time-progressive"):
            refine(fsm)

    def test_tick_output_on_a_guarded_move_is_rejected(self):
        fsm = clocked(
            ["a"],
            {("a", TICK): (TICK, "a"), ("a", "i"): (TICK, "a")},
        )
        with pytest.raises(ValueError, match="tick symbol"):
            refine(fsm)
        # Several offenders, inserted out of order: the least (state, input) is named.
        ticking = {("b", "j"): (TICK, "a"), ("b", "i"): (TICK, "b"), ("a", "k"): (TICK, "a"), ("a", "j"): (TICK, "b")}
        fsm = MealyMachine(
            states=("b", "a"),
            inputs=("k", "j", "i", TICK),
            outputs=("o", TICK),
            initial="b",
            transitions={("b", TICK): (TICK, "a"), ("a", TICK): (TICK, "b"), **ticking},
        )
        with pytest.raises(ValueError) as error:
            refine(fsm)
        assert str(error.value) == "input j at state a outputs the tick symbol; cannot be a guarded move"


class TestRefine:
    def test_rebuilds_the_handwritten_machine(self, guarded_pair_abstract, guarded_pair_rebuilt):
        assert refine(guarded_pair_abstract) == guarded_pair_rebuilt

    def test_result_validates(self, guarded_pair_abstract):
        assert validate_tfsm(refine(guarded_pair_abstract)) == []

    def test_tick_symbol_does_not_survive(self, guarded_pair_abstract):
        machine = refine(guarded_pair_abstract)
        assert TICK not in machine.inputs
        assert TICK not in machine.outputs

    def test_merging_unions_adjacent_guards(self, guarded_pair_abstract):
        raw = refine(guarded_pair_abstract, merge=False)
        merged = refine(guarded_pair_abstract)
        assert merge_guards(raw) == merged
        assert len(merged.transitions) <= len(raw.transitions)
        # Unmerged guards are atoms: single points or unit open intervals.
        for t in raw.transitions:
            assert t.guard.upper is None or t.guard.upper - t.guard.lower <= 1

    def test_unreachable_states_are_dropped(self):
        fsm = clocked(
            ["a", "orphan"],
            {
                ("a", TICK): (TICK, "a"),
                ("a", "i"): ("o", "a"),
                ("orphan", TICK): (TICK, "orphan"),
            },
        )
        machine = refine(fsm)
        assert machine.states == ("a",)

    def test_roundtrip_through_abstraction_preserves_behavior(
        self, guarded_pair, handover, blinker
    ):
        for machine in (guarded_pair, handover, blinker):
            rebuilt = refine(abstract(machine))
            assert tfsm_equivalent(machine, rebuilt).equivalent

    def test_single_state_roundtrip_is_exact(self, blinker):
        # One anchor state, so the rebuilt machine is the original up to naming.
        assert canonical_tfsm(refine(abstract(blinker))) == canonical_tfsm(blinker)


class TestMergeGuards:
    def _machine(self, *guards):
        return TimedMachine(
            states=("s",),
            inputs=("i",),
            outputs=("o",),
            initial="s",
            transitions=tuple(Transition("s", "i", g, "o", "s") for g in guards),
            timeouts={"s": Timeout(None)},
        )

    def test_touching_guards_fuse(self):
        machine = self._machine(
            Guard(0, 0, True, True),
            Guard(0, 1, False, False),
            Guard(1, 2, True, True),
        )
        merged = merge_guards(machine)
        assert [t.guard for t in merged.transitions] == [Guard(0, 2, True, True)]

    def test_gaps_survive(self):
        machine = self._machine(
            Guard(0, 1, True, False),
            Guard(2, 3, True, False),
        )
        merged = merge_guards(machine)
        assert [t.guard for t in merged.transitions] == [
            Guard(0, 1, True, False),
            Guard(2, 3, True, False),
        ]

    def test_open_endpoints_that_only_meet_do_not_fuse(self):
        machine = self._machine(
            Guard(0, 1, True, False),
            Guard(1, 2, False, False),
        )
        merged = merge_guards(machine)
        assert len(merged.transitions) == 2

    def test_unbounded_tail_absorbs_its_neighbour(self):
        machine = self._machine(
            Guard(0, 2, True, True),
            Guard(2, None, False, False),
        )
        merged = merge_guards(machine)
        assert [t.guard for t in merged.transitions] == [Guard(0, None, True, False)]

    def test_different_outputs_never_fuse(self):
        machine = TimedMachine(
            states=("s",),
            inputs=("i",),
            outputs=("o1", "o2"),
            initial="s",
            transitions=(
                Transition("s", "i", Guard(0, 1, True, False), "o1", "s"),
                Transition("s", "i", Guard(1, 2, True, False), "o2", "s"),
            ),
            timeouts={"s": Timeout(None)},
        )
        assert merge_guards(machine) == machine


class TestRefinementAgainstRandomMachines:
    def test_refined_machines_replay_their_tick_words(self):
        rng = random.Random(1106)
        for _ in range(30):
            fsm = random_time_progressive_fsm(rng)
            machine = refine(fsm)
            assert validate_tfsm(machine) == []
            relation = canonical_bisimulation(machine, fsm)
            verdict = check_bisimulation(machine, fsm, relation)
            assert verdict.ok, verdict.detail
            for _ in range(20):
                word = random_timed_word(rng, machine.inputs)
                assert ticks_agree(machine, fsm, word)
