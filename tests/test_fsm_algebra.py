"""Equivalence, products, reachability and minimization of Mealy machines."""

import pytest

from tfsm import (
    DEFINEDNESS_MISMATCH,
    OUTPUT_MISMATCH,
    MealyMachine,
    abstract,
    canonical_fsm,
    equivalent,
    mealy_run,
    minimize,
    product,
    reachable,
)


def fsm(states, transitions, inputs=("i",), outputs=("o1", "o2"), initial=None):
    return MealyMachine(
        states=tuple(states),
        inputs=tuple(inputs),
        outputs=tuple(outputs),
        initial=initial or states[0],
        transitions=transitions,
    )


FLIP = fsm(
    ["a", "b"],
    {("a", "i"): ("o1", "b"), ("b", "i"): ("o2", "a")},
)


class TestEquivalent:
    def test_machine_equals_itself(self):
        assert equivalent(FLIP, FLIP).equivalent

    def test_unrolled_copy_is_equivalent(self):
        unrolled = fsm(
            ["a", "b", "a2"],
            {
                ("a", "i"): ("o1", "b"),
                ("b", "i"): ("o2", "a2"),
                ("a2", "i"): ("o1", "b"),
            },
        )
        assert equivalent(FLIP, unrolled).equivalent

    def test_output_mismatch_reports_the_shortest_word(self):
        stuck = fsm(
            ["a", "b"],
            {("a", "i"): ("o1", "b"), ("b", "i"): ("o1", "a")},
        )
        verdict = equivalent(FLIP, stuck)
        assert not verdict.equivalent
        ce = verdict.counterexample
        assert ce.kind == OUTPUT_MISMATCH
        assert ce.word == ("i", "i")
        # The word really separates the machines.
        assert mealy_run(FLIP, ce.word).outputs != mealy_run(stuck, ce.word).outputs

    def test_definedness_mismatch(self):
        partial = fsm(["a", "b"], {("a", "i"): ("o1", "b")})
        verdict = equivalent(FLIP, partial)
        assert not verdict.equivalent
        ce = verdict.counterexample
        assert ce.kind == DEFINEDNESS_MISMATCH
        assert ce.word == ("i", "i")
        assert "only in the first machine" in ce.detail

    def test_inputs_outside_the_shared_alphabet_count(self):
        wider = fsm(
            ["a"],
            {("a", "i"): ("o1", "a"), ("a", "j"): ("o1", "a")},
            inputs=("i", "j"),
        )
        narrow = fsm(["a"], {("a", "i"): ("o1", "a")})
        verdict = equivalent(wider, narrow)
        assert not verdict.equivalent
        assert verdict.counterexample.word == ("j",)
        assert verdict.counterexample.kind == DEFINEDNESS_MISMATCH

    def test_undefined_initial_behavior_on_both_sides_is_equal(self):
        left = fsm(["a"], {})
        right = fsm(["z"], {})
        assert equivalent(left, right).equivalent


class TestProduct:
    def test_alphabets_must_agree(self):
        other = fsm(["a"], {("a", "j"): ("o1", "a")}, inputs=("j",))
        with pytest.raises(ValueError, match="input alphabets differ"):
            product(FLIP, other)

    def test_agreeing_transitions_survive(self):
        meet = product(FLIP, FLIP)
        assert equivalent(meet, FLIP).equivalent

    def test_disagreeing_outputs_yield_undefinedness(self):
        stuck = fsm(
            ["a", "b"],
            {("a", "i"): ("o1", "b"), ("b", "i"): ("o1", "a")},
        )
        meet = product(FLIP, stuck)
        # Outputs agree on the first step only.
        result = mealy_run(meet, ("i", "i"))
        assert not result.accepted and result.rejection_point == 1

    def test_renumbering_names_states_in_discovery_order(self):
        meet = product(FLIP, FLIP)
        assert meet.initial == "0"
        assert set(meet.states) == {"0", "1"}

    def test_product_of_the_tick_abstractions(self, handover, blinker, handover_blinker_product):
        meet = product(abstract(handover), abstract(blinker))
        assert len(meet.states) == 13
        assert canonical_fsm(meet) == canonical_fsm(handover_blinker_product)


class TestReachable:
    def test_drops_orphan_states(self):
        cluttered = fsm(
            ["a", "b", "orphan"],
            {("a", "i"): ("o1", "b"), ("b", "i"): ("o2", "a"), ("orphan", "i"): ("o1", "a")},
        )
        trimmed = reachable(cluttered)
        assert trimmed.states == ("a", "b")
        assert ("orphan", "i") not in trimmed.transitions

    def test_keeps_a_connected_machine_alone(self):
        assert reachable(FLIP) == FLIP


class TestMinimize:
    def test_merges_interchangeable_states(self):
        redundant = fsm(
            ["a", "b", "a2"],
            {
                ("a", "i"): ("o1", "b"),
                ("b", "i"): ("o2", "a2"),
                ("a2", "i"): ("o1", "b"),
            },
        )
        small = minimize(redundant)
        assert len(small.states) == 2
        assert equivalent(small, redundant).equivalent

    def test_undefinedness_distinguishes_states(self):
        # q and r both answer o1, but only q accepts a second input.
        machine = fsm(
            ["s", "q", "r"],
            {
                ("s", "i"): ("o1", "q"),
                ("s", "j"): ("o1", "r"),
                ("q", "i"): ("o1", "s"),
            },
            inputs=("i", "j"),
        )
        small = minimize(machine)
        assert len(small.states) == 3

    def test_minimal_machine_is_left_alone_up_to_reachability(self):
        assert minimize(FLIP) == FLIP

    def test_unreachable_states_vanish_first(self):
        cluttered = fsm(
            ["a", "b", "orphan"],
            {("a", "i"): ("o1", "b"), ("b", "i"): ("o2", "a"), ("orphan", "i"): ("o2", "a")},
        )
        assert minimize(cluttered).states == ("a", "b")

    def test_class_keeps_the_first_member_name(self):
        redundant = fsm(
            ["a", "b", "a2"],
            {
                ("a", "i"): ("o1", "b"),
                ("b", "i"): ("o2", "a2"),
                ("a2", "i"): ("o1", "b"),
            },
        )
        small = minimize(redundant)
        assert small.states == ("a", "b")
        assert small.transitions[("b", "i")] == ("o2", "a")

    def test_product_of_abstractions_minimizes_to_eight_states(self, handover, blinker):
        meet = product(abstract(handover), abstract(blinker))
        assert len(minimize(meet).states) == 8

    def test_minimization_preserves_equivalence(self, handover, blinker):
        meet = product(abstract(handover), abstract(blinker))
        assert equivalent(minimize(meet), meet).equivalent


class TestCanonicalFsm:
    def test_renaming_is_stable_under_state_reordering(self):
        reordered = fsm(
            ["b", "a"],
            {("a", "i"): ("o1", "b"), ("b", "i"): ("o2", "a")},
            initial="a",
        )
        assert canonical_fsm(FLIP) == canonical_fsm(reordered)

    def test_different_machines_stay_different(self):
        other = fsm(
            ["a", "b"],
            {("a", "i"): ("o2", "b"), ("b", "i"): ("o1", "a")},
        )
        assert canonical_fsm(FLIP) != canonical_fsm(other)

    def test_canonical_names_count_up_from_zero(self):
        renamed = canonical_fsm(FLIP)
        assert renamed.initial == "0"
        assert renamed.states == ("0", "1")
        assert renamed.inputs == tuple(sorted(FLIP.inputs))
