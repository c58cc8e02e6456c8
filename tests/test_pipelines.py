"""End-to-end decisions on timed machines via their tick abstractions."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from tfsm import (
    OUTPUT_MISMATCH,
    TICK,
    MealyMachine,
    TimedWord,
    Transition,
    canonical_tfsm,
    decode_tick_word,
    run,
    tfsm_equivalent,
    tfsm_intersect,
    validate_tfsm,
)
from machine_gen import conjunction_agrees, random_timed_word


class TestDecodeTickWord:
    def test_tick_blocks_become_delays(self):
        assert decode_tick_word(("i",)) == TimedWord.of(("i", 0))
        assert decode_tick_word((TICK, TICK, "i")) == TimedWord.of(("i", 1))
        assert decode_tick_word((TICK, "i")) == TimedWord.of(("i", Fraction(1, 2)))

    def test_delays_accumulate(self):
        word = decode_tick_word((TICK, "i", TICK, TICK, TICK, "j"))
        assert word == TimedWord.of(("i", Fraction(1, 2)), ("j", 2))

    def test_trailing_ticks_are_not_decodable(self):
        with pytest.raises(ValueError, match="ends with a user input"):
            decode_tick_word(("i", TICK))
        with pytest.raises(ValueError, match="ends with a user input"):
            decode_tick_word((TICK,))

    def test_empty_word_decodes_to_the_empty_run(self):
        assert decode_tick_word(()) == TimedWord()

    def test_a_generator_decodes_as_its_tuple(self):
        symbols = (TICK, "i", TICK, TICK, TICK, "j", "i")
        assert decode_tick_word(s for s in symbols) == decode_tick_word(symbols)
        assert decode_tick_word(iter(())) == TimedWord()
        for ending_in_a_tick in (("i", TICK), (TICK,)):
            with pytest.raises(ValueError, match="^a decodable tick word ends with a user input, not a tick$"):
                decode_tick_word(s for s in ending_in_a_tick)


class TestTimedEquivalence:
    def test_machine_equals_its_own_roundtrip(self, guarded_pair, guarded_pair_rebuilt):
        verdict = tfsm_equivalent(guarded_pair, guarded_pair_rebuilt)
        assert verdict.equivalent
        assert verdict.counterexample is None

    def test_distinct_machines_get_a_checked_counterexample(self, guarded_pair, blinker):
        verdict = tfsm_equivalent(guarded_pair, blinker)
        assert not verdict.equivalent
        word = verdict.counterexample
        assert isinstance(word, TimedWord)
        # The counterexample must actually separate the two machines.
        a, b = run(guarded_pair, word), run(blinker, word)
        assert (a.accepted, a.outputs) != (b.accepted, b.outputs)

    def test_half_unit_delay_separates_early(self, guarded_pair, blinker):
        verdict = tfsm_equivalent(guarded_pair, blinker)
        assert verdict.kind == OUTPUT_MISMATCH
        assert verdict.counterexample == TimedWord.of(("i", Fraction(1, 2)))

    def test_guard_boundary_differences_are_caught(self, guarded_pair):
        # Close the [0,1) guard of s0 into [0,1]: unreachable difference,
        # since s0 times out at 1 -- the machines stay equivalent.
        widened = [
            replace(t, guard=replace(t.guard, upper_closed=True))
            if t.source == "s0" and t.guard.upper == 1
            else t
            for t in guarded_pair.transitions
        ]
        same = replace(guarded_pair, transitions=tuple(widened))
        assert tfsm_equivalent(guarded_pair, same).equivalent

    def test_no_untimed_machine_is_built(self, guarded_pair, guarded_pair_rebuilt, blinker, monkeypatch):
        def refuse(self):
            raise AssertionError("tfsm_equivalent built a MealyMachine")

        monkeypatch.setattr(MealyMachine, "__post_init__", refuse)
        assert tfsm_equivalent(guarded_pair, guarded_pair_rebuilt).equivalent
        assert not tfsm_equivalent(guarded_pair, blinker).equivalent

    def test_timeout_bound_differences_are_caught(self, guarded_pair):
        hurried = replace(
            guarded_pair,
            timeouts={**guarded_pair.timeouts, "s0": replace(guarded_pair.timeouts["s0"], bound=2)},
        )
        verdict = tfsm_equivalent(guarded_pair, hurried)
        assert not verdict.equivalent
        a, b = run(guarded_pair, verdict.counterexample), run(hurried, verdict.counterexample)
        assert (a.accepted, a.outputs) != (b.accepted, b.outputs)


class TestTimedIntersection:
    def test_matches_the_handwritten_meet(self, handover, blinker, handover_blinker_meet):
        meet = tfsm_intersect(handover, blinker)
        assert validate_tfsm(meet) == []
        assert canonical_tfsm(meet) == canonical_tfsm(handover_blinker_meet)

    def test_meet_runs_where_both_factors_agree(self, handover, blinker):
        meet = tfsm_intersect(handover, blinker)
        words = [
            TimedWord.of(("i", 0)),
            TimedWord.of(("i", Fraction(1, 2))),
            TimedWord.of(("i", 1), ("i", 2)),
            TimedWord.of(("i", 0), ("i", Fraction(3, 2))),
            TimedWord.of(("i", 2), ("i", 4)),
        ]
        rng = random.Random(417)
        words += [random_timed_word(rng, ("i",)) for _ in range(40)]
        for word in words:
            assert conjunction_agrees(meet, handover, blinker, word), str(word)

    def test_intersection_with_itself_is_equivalence(self, guarded_pair):
        meet = tfsm_intersect(guarded_pair, guarded_pair)
        assert tfsm_equivalent(meet, guarded_pair).equivalent


class TestCanonicalTfsm:
    def test_renaming_is_stable_under_state_reordering(self, guarded_pair):
        renames = {"s0": "left", "s1": "right"}
        reordered = replace(
            guarded_pair,
            states=("right", "left"),
            initial="left",
            transitions=tuple(
                Transition(renames[t.source], t.input, t.guard, t.output, renames[t.target])
                for t in guarded_pair.transitions
            ),
            timeouts={
                renames[s]: replace(t, target=None if t.target is None else renames[t.target])
                for s, t in guarded_pair.timeouts.items()
            },
        )
        assert canonical_tfsm(guarded_pair) == canonical_tfsm(reordered)

    def test_canonical_names_count_up_from_zero(self, guarded_pair):
        renamed = canonical_tfsm(guarded_pair)
        assert renamed.initial == "0"
        assert renamed.states == ("0", "1")
        assert renamed.inputs == tuple(sorted(guarded_pair.inputs))
        assert renamed.outputs == tuple(sorted(guarded_pair.outputs))

    def test_distinct_structures_stay_distinct(self, guarded_pair, blinker):
        assert canonical_tfsm(guarded_pair) != canonical_tfsm(blinker)
