"""Clock-interval partition, tick abstraction, and bisimulation checking."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from tfsm import (
    TICK,
    BisimRelation,
    Guard,
    MealyMachine,
    TimedMachine,
    Timeout,
    Transition,
    abstract,
    abstract_state_name,
    canonical_bisimulation,
    canonical_fsm,
    check_bisimulation,
    interval_set,
    max_constant,
)
from tfsm.abstraction import ClockInterval, TickView
from machine_gen import admissible, interval_contains, interval_of, representative


class TestClockIntervals:
    def test_partition_has_two_per_constant_plus_two(self):
        assert len(interval_set(0)) == 2
        assert len(interval_set(3)) == 8
        rendered = [str(i) for i in interval_set(2)]
        assert rendered == ["[0,0]", "(0,1)", "[1,1]", "(1,2)", "[2,2]", "(2,inf)"]

    def test_interval_of_picks_the_member_containing_the_value(self):
        assert interval_of(0, 2) == ClockInterval.point(0)
        assert interval_of(Fraction(1, 2), 2) == ClockInterval.open(0)
        assert interval_of(1, 2) == ClockInterval.point(1)
        assert interval_of(Fraction(5, 2), 2) == ClockInterval.tail(2)
        assert interval_of(17, 2) == ClockInterval.tail(2)
        with pytest.raises(ValueError):
            interval_of(-1, 2)

    def test_representative_lies_inside(self):
        for interval in interval_set(3):
            assert interval_contains(interval, representative(interval))

    def test_intervals_sort_left_to_right(self):
        shuffled = list(reversed(interval_set(2)))
        assert tuple(sorted(shuffled)) == interval_set(2)

    def test_exactly_one_of_less_equal_greater_holds(self):
        # open(n) and tail(n) share region 2n + 1; the order must still be total.
        intervals = [*interval_set(3), ClockInterval.open(3), ClockInterval.point(5), ClockInterval.tail(1)]
        for a in intervals:
            for b in intervals:
                assert [a < b, a == b, b < a].count(True) == 1, (a, b)
                assert (a > b, a >= b, a <= b) == (b < a, not a < b, not b < a), (a, b)
        assert sorted([ClockInterval.tail(3), ClockInterval.open(3)]) == [ClockInterval.open(3), ClockInterval.tail(3)]

    def test_ill_formed_intervals_are_rejected(self):
        with pytest.raises(ValueError, match="unknown interval kind 'bogus'"):
            ClockInterval("bogus", 0)
        with pytest.raises(ValueError, match="negative interval index -1"):
            ClockInterval("point", -1)
        with pytest.raises(ValueError, match="negative partition bound -1"):
            interval_set(-1)

    def test_intervals_only_compare_with_intervals(self):
        with pytest.raises(TypeError):
            ClockInterval.point(0) < 1

    @given(
        x=st.fractions(min_value=0, max_value=12, max_denominator=8),
        n_max=st.integers(min_value=0, max_value=6),
    )
    def test_partition_covers_every_value_exactly_once(self, x, n_max):
        members = [i for i in interval_set(n_max) if interval_contains(i, x)]
        assert members == [interval_of(x, n_max)]


class TestMaxConstant:
    def test_fixture_constants(self, guarded_pair, handover, blinker):
        assert max_constant(guarded_pair) == 1
        assert max_constant(handover) == 2
        assert max_constant(blinker) == 1

    def test_unconstrained_machine_has_constant_zero(self):
        free = TimedMachine(
            states=("s",),
            inputs=("i",),
            outputs=("o",),
            initial="s",
            transitions=(Transition("s", "i", Guard(0, None, True, False), "o", "s"),),
            timeouts={"s": Timeout(None)},
        )
        assert max_constant(free) == 0


class TestTickSuccessor:
    def test_admissible_iff_clock_stays_below_the_timeout(self, guarded_pair):
        # s0 times out at 1, so only [0,0] and (0,1) are live there.
        assert admissible(guarded_pair, "s0", ClockInterval.point(0))
        assert admissible(guarded_pair, "s0", ClockInterval.open(0))
        assert not admissible(guarded_pair, "s0", ClockInterval.point(1))
        assert not admissible(guarded_pair, "s0", ClockInterval.tail(1))
        # s1 never times out.
        assert all(admissible(guarded_pair, "s1", i) for i in interval_set(1))

    def test_successor_is_defined_exactly_on_admissible_configurations(self, handover):
        view = TickView(handover)
        for state in handover.states:
            for interval in interval_set(view.n_max):
                succ = view.tick((state, interval.region))
                assert (succ is not None) == admissible(handover, state, interval)

    def test_half_steps_walk_the_partition(self, guarded_pair):
        view = TickView(guarded_pair)
        tail = ClockInterval.tail(1)
        assert view.tick(("s1", ClockInterval.point(0).region)) == ("s1", ClockInterval.open(0).region)
        assert view.tick(("s1", ClockInterval.point(1).region)) == ("s1", tail.region)
        assert view.tick(("s1", tail.region)) == ("s1", tail.region)

    def test_timeout_redirects_the_step_at_the_bound(self, guarded_pair):
        view = TickView(guarded_pair)
        assert view.tick(("s0", ClockInterval.open(0).region)) == ("s1", ClockInterval.point(0).region)

    def test_input_moves_need_the_whole_interval_inside_the_guard(self, guarded_pair):
        view = TickView(guarded_pair)

        def input_moves(state, interval):
            return [(i, edge) for i, edge in view.moves((state, interval.region)) if i != TICK]

        # s1 answers o2 on [0,1] and o1 on (1,inf); every input resets the clock.
        assert input_moves("s1", ClockInterval.point(1)) == [("i", ("o2", ("s1", 0)))]
        assert input_moves("s1", ClockInterval.tail(1)) == [("i", ("o1", ("s0", 0)))]
        assert input_moves("s0", ClockInterval.point(1)) == []


class TestStretch:
    """``stretch`` gives the ticks to the next breakpoint and the input edges until then; ``tick`` jumps within it."""

    @pytest.fixture
    def early_guard(self):
        # s answers i only on [0,1] but times out at 3, so the timeout is a breakpoint no guard shares.
        return TimedMachine(
            states=("s", "t"),
            inputs=("i",),
            outputs=("o",),
            initial="s",
            transitions=(Transition("s", "i", Guard(0, 1, True, True), "o", "t"),),
            timeouts={"s": Timeout(3, "t"), "t": Timeout(None)},
        )

    def test_a_guards_last_region_ends_its_stretch(self, handover, guarded_pair):
        view = TickView(handover)
        # A answers i on [0,1), regions 0 and 1, then on [1,2), regions 2 and 3.
        assert view.stretch(("A", 0)) == (2, {"i": ("o1", ("B", 0))})
        assert view.stretch(("A", 1)) == (1, {"i": ("o1", ("B", 0))})
        assert view.stretch(("A", 2)) == (2, {"i": ("o2", ("A", 0))})
        view = TickView(guarded_pair)
        # s1 answers o2 on [0,1], regions 0 to 2.
        assert view.stretch(("s1", 0)) == (3, {"i": ("o2", ("s1", 0))})
        assert view.stretch(("s1", 2)) == (1, {"i": ("o2", ("s1", 0))})

    def test_the_region_before_a_timeout_ends_its_stretch(self, handover, early_guard):
        assert TickView(handover).stretch(("A", 3)) == (1, {"i": ("o2", ("A", 0))})
        assert TickView(handover).stretch(("C", 1)) == (1, {"i": ("o1", ("C", 0))})
        view = TickView(early_guard)
        assert view.stretch(("s", 2)) == (1, {"i": ("o", ("t", 0))})
        assert view.stretch(("s", 3)) == (3, {})
        assert view.stretch(("s", 5)) == (1, {})
        assert view.tick(("s", 3), 3) == ("t", 0)

    def test_the_tail_stretches_to_infinity(self, handover, guarded_pair, early_guard):
        assert TickView(guarded_pair).stretch(("s1", 3)) == (math.inf, {"i": ("o1", ("s0", 0))})
        assert TickView(handover).stretch(("B", 5)) == (math.inf, {"i": ("o2", ("B", 0))})
        assert TickView(early_guard).stretch(("t", 0)) == (math.inf, {})

    def test_an_inadmissible_configuration_has_no_end_and_no_edges(self, handover, guarded_pair, early_guard):
        timeouts = ((handover, "A", 2), (handover, "C", 1), (guarded_pair, "s0", 1), (early_guard, "s", 3))
        for machine, state, bound in timeouts:
            view = TickView(machine)
            for k in range(2 * bound, 2 * view.n_max + 2):
                assert view.stretch((state, k)) == (math.inf, {}), (state, k)
                assert view.tick((state, k)) is None

    def test_a_jump_equals_as_many_single_ticks(self, handover, guarded_pair, blinker, early_guard):
        jumps = 0
        for machine in (handover, guarded_pair, blinker, early_guard):
            view = TickView(machine)
            for state in machine.states:
                for interval in interval_set(view.n_max):
                    config = (state, interval.region)
                    if not admissible(machine, state, interval):
                        continue
                    length, _ = view.stretch(config)
                    ticked = config
                    for d in range(1, min(length, 2 * view.n_max + 3) + 1):
                        ticked = view.tick(ticked)
                        assert view.tick(config, d) == ticked, (state, interval, d)
                        jumps += 1
        assert jumps > 40


class TestAbstract:
    def test_state_count_and_alphabets(self, guarded_pair):
        fsm = abstract(guarded_pair)
        assert len(fsm.states) == 6
        assert fsm.initial == "s0,[0,0]"
        assert fsm.inputs == ("i", TICK)
        assert fsm.outputs == ("o1", "o2", TICK)
        ticks = [k for k in fsm.transitions if k[1] == TICK]
        others = [k for k in fsm.transitions if k[1] != TICK]
        assert len(ticks) == 6 and len(others) == 6

    def test_matches_the_handwritten_abstraction(self, guarded_pair, guarded_pair_abstract):
        assert canonical_fsm(abstract(guarded_pair)) == canonical_fsm(guarded_pair_abstract)

    def test_keep_unreachable_covers_every_configuration(self, guarded_pair):
        fsm = abstract(guarded_pair, keep_unreachable=True)
        assert len(fsm.states) == 2 * len(interval_set(1))
        # Inadmissible configurations are inert: present but without moves.
        dead = abstract_state_name("s0", ClockInterval.point(1))
        assert dead in fsm.states
        assert not [k for k in fsm.transitions if k[0] == dead]

    def test_reachable_part_is_a_restriction_of_the_full_machine(self, handover):
        small = abstract(handover)
        full = abstract(handover, keep_unreachable=True)
        assert set(small.states) <= set(full.states)
        assert small.transitions == {
            k: v for k, v in full.transitions.items() if k[0] in set(small.states)
        }


class TestBisimulation:
    def test_canonical_relation_passes_the_check(self, guarded_pair, handover, blinker):
        for machine in (guarded_pair, handover, blinker):
            fsm = abstract(machine)
            relation = canonical_bisimulation(machine, fsm)
            verdict = check_bisimulation(machine, fsm, relation)
            assert verdict.ok, verdict.detail

    def test_canonical_relation_pairs_each_state_once_here(self, guarded_pair):
        relation = canonical_bisimulation(guarded_pair, abstract(guarded_pair))
        assert len(relation) == 6
        assert len({r for _, r in relation}) == 6
        assert len({c for c, _ in relation}) == 6

    def test_full_relation_is_a_bisimulation(self, guarded_pair, handover, blinker):
        # Not just the reachable pairs: every admissible configuration is
        # bisimilar to its named image in the unpruned abstraction.
        for machine in (guarded_pair, handover, blinker):
            fsm = abstract(machine, keep_unreachable=True)
            n = max_constant(machine)
            pairs = {
                ((s, interval), abstract_state_name(s, interval))
                for s in machine.states
                for interval in interval_set(n)
                if admissible(machine, s, interval)
            }
            verdict = check_bisimulation(machine, fsm, BisimRelation(frozenset(pairs)))
            assert verdict.ok, verdict.detail

    def test_unrelated_initial_configurations(self, guarded_pair):
        fsm = abstract(guarded_pair)
        verdict = check_bisimulation(guarded_pair, fsm, BisimRelation(frozenset()))
        assert not verdict.ok and verdict.condition == 0

    def test_missing_tick_transition_breaks_condition_one(self, guarded_pair):
        fsm = abstract(guarded_pair)
        trimmed = {k: v for k, v in fsm.transitions.items() if k != (fsm.initial, TICK)}
        broken = MealyMachine(fsm.states, fsm.inputs, fsm.outputs, fsm.initial, trimmed)
        relation = canonical_bisimulation(guarded_pair, broken)
        verdict = check_bisimulation(guarded_pair, broken, relation)
        assert not verdict.ok and verdict.condition == 1
        assert "no tick transition" in verdict.detail

    def test_impossible_tick_transition_breaks_condition_two(self, guarded_pair):
        fsm = abstract(guarded_pair)
        # s0 cannot let time pass beyond its bound; give its image a tick loop anyway.
        dead_end = abstract(guarded_pair, keep_unreachable=True)
        name = abstract_state_name("s0", ClockInterval.point(1))
        extended = dict(dead_end.transitions)
        extended[(name, TICK)] = (TICK, name)
        broken = MealyMachine(dead_end.states, dead_end.inputs, dead_end.outputs, dead_end.initial, extended)
        pairs = frozenset(canonical_bisimulation(guarded_pair, broken)) | {
            (("s0", ClockInterval.point(1)), name)
        }
        verdict = check_bisimulation(guarded_pair, broken, BisimRelation(pairs))
        assert not verdict.ok and verdict.condition == 2
        assert "no time can pass" in verdict.detail

    def test_missing_input_transition_breaks_condition_three(self, guarded_pair):
        fsm = abstract(guarded_pair)
        trimmed = {k: v for k, v in fsm.transitions.items() if k != (fsm.initial, "i")}
        broken = MealyMachine(fsm.states, fsm.inputs, fsm.outputs, fsm.initial, trimmed)
        relation = canonical_bisimulation(guarded_pair, broken)
        verdict = check_bisimulation(guarded_pair, broken, relation)
        assert not verdict.ok and verdict.condition == 3
        assert "has no i transition" in verdict.detail

    def test_wrong_output_breaks_condition_three(self, guarded_pair):
        fsm = abstract(guarded_pair)
        rewired = dict(fsm.transitions)
        output, target = rewired[(fsm.initial, "i")]
        rewired[(fsm.initial, "i")] = ("o2" if output == "o1" else "o1", target)
        broken = MealyMachine(fsm.states, fsm.inputs, fsm.outputs, fsm.initial, rewired)
        relation = canonical_bisimulation(guarded_pair, broken)
        verdict = check_bisimulation(guarded_pair, broken, relation)
        assert not verdict.ok and verdict.condition == 3

    def test_unmatched_input_transition_breaks_condition_four(self, guarded_pair):
        fsm = abstract(guarded_pair)
        # s0 refuses i at clock 1 -- an i edge from the corresponding dead
        # configuration cannot be matched by any guarded move.
        full = abstract(guarded_pair, keep_unreachable=True)
        name = abstract_state_name("s0", ClockInterval.point(1))
        extended = dict(full.transitions)
        extended[(name, "i")] = ("o1", full.initial)
        broken = MealyMachine(full.states, full.inputs, full.outputs, full.initial, extended)
        pairs = frozenset(canonical_bisimulation(guarded_pair, broken)) | {
            (("s0", ClockInterval.point(1)), name)
        }
        verdict = check_bisimulation(guarded_pair, broken, BisimRelation(pairs))
        assert not verdict.ok and verdict.condition == 4
        assert "no guard admits" in verdict.detail

    def test_tick_answered_with_an_ordinary_output_breaks_condition_four(self, guarded_pair):
        fsm = abstract(guarded_pair)
        rewired = dict(fsm.transitions)
        _, target = rewired[(fsm.initial, TICK)]
        rewired[(fsm.initial, TICK)] = ("o1", target)
        broken = MealyMachine(fsm.states, fsm.inputs, fsm.outputs, fsm.initial, rewired)
        relation = canonical_bisimulation(guarded_pair, broken)
        verdict = check_bisimulation(guarded_pair, broken, relation)
        assert not verdict.ok
        assert verdict.condition in (1, 4)

    def test_relation_naming_unknown_states_is_rejected(self, guarded_pair):
        fsm = abstract(guarded_pair)
        pairs = frozenset(canonical_bisimulation(guarded_pair, fsm)) | {
            (("ghost", ClockInterval.point(0)), fsm.initial)
        }
        verdict = check_bisimulation(guarded_pair, fsm, BisimRelation(pairs))
        assert not verdict.ok and verdict.condition is None
        assert "unknown timed state" in verdict.detail
