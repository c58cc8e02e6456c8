"""Rebuilding timed machines from tick-based Mealy machines."""

import random

import pytest

from tfsm import (
    TICK,
    Guard,
    MealyMachine,
    abstract,
    canonical_bisimulation,
    canonical_tfsm,
    check_bisimulation,
    is_time_progressive,
    refine,
    tfsm_equivalent,
    validate_tfsm,
)
from machine_gen import interval_merge_guards, random_time_progressive_fsm, random_timed_word, ticks_agree


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
        assert interval_merge_guards(raw) == merged
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
    """Runs of one label become one guard: each case refines the tick machine of a one-state timed machine."""

    def _guards(self, *labels):
        """Refine the tick chain ``r0 -> r1 -> ...`` whose last state ticks to itself.

        Input ``i`` at ``r<k>`` answers ``labels[k]`` and returns to ``r0``;
        ``None`` leaves it undefined.  The guards of ``r0``, as ``(guard, output)``.
        """
        states = [f"r{k}" for k in range(len(labels))]
        transitions = {(s, TICK): (TICK, states[min(k + 1, len(states) - 1)]) for k, s in enumerate(states)}
        transitions.update({(s, "i"): (o, "r0") for s, o in zip(states, labels) if o})
        fsm = MealyMachine(tuple(states), ("i", TICK), ("o", "o1", "o2", TICK), "r0", transitions)
        merged = refine(fsm)
        assert merged == interval_merge_guards(refine(fsm, merge=False))
        return [(t.guard, t.output) for t in merged.transitions if t.source == "r0"]

    def test_touching_guards_fuse(self):
        # [0,0], (0,1) and [1,2]: regions 0 to 4.
        assert self._guards("o", "o", "o", "o", "o", None) == [(Guard(0, 2, True, True), "o")]

    def test_gaps_survive(self):
        # [0,1) and [2,3): regions 0, 1 and 4, 5.
        assert self._guards("o", "o", None, None, "o", "o") == [
            (Guard(0, 1, True, False), "o"),
            (Guard(2, 3, True, False), "o"),
        ]

    def test_open_endpoints_that_only_meet_do_not_fuse(self):
        # [0,1) and (1,2): regions 0, 1 and 3.
        assert self._guards("o", "o", None, "o", None, None) == [
            (Guard(0, 1, True, False), "o"),
            (Guard(1, 2, False, False), "o"),
        ]

    def test_unbounded_tail_absorbs_its_neighbour(self):
        # [0,2] and the tail (2,inf): the tail's region joins the run before the timeout.
        assert self._guards("o", "o", "o", "o", "o", "o") == [(Guard(0, 3, True, False), "o")]

    def test_different_outputs_never_fuse(self):
        # [0,1) answering o1 and [1,2) answering o2.
        assert self._guards("o1", "o1", "o2", "o2") == [
            (Guard(0, 1, True, False), "o1"),
            (Guard(1, 2, True, False), "o2"),
        ]


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
