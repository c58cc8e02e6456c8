"""The advertised behavior guarantees, one test per criterion.

Each test carries a ``criterion`` marker; the terminal summary prints one
PASS/FAIL line per criterion after a run.  Stated runtime budgets are part
of the guarantee and asserted alongside the content.
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from tfsm import (
    TICK,
    BisimRelation,
    TimedWord,
    abstract,
    canonical_bisimulation,
    canonical_fsm,
    canonical_tfsm,
    check_bisimulation,
    export_timed_automaton,
    interval_set,
    max_constant,
    mealy_run,
    minimize,
    parse_document,
    product,
    refine,
    run,
    serialize,
    tfsm_equivalent,
    tfsm_intersect,
    tick_encode_delay,
    validate_tfsm,
)
from conftest import MACHINES, budget
from machine_gen import (
    admissible,
    conjunction_agrees,
    machine_pool,
    random_tfsm,
    random_time_progressive_fsm,
    random_timed_word,
    representative,
    ticks_agree,
)


def behavior(machine, word):
    result = run(machine, word)
    return (result.accepted, result.outputs)


@pytest.mark.criterion(1, "abstraction of the guarded pair is its handwritten tick machine")
def test_abstraction_matches_the_handwritten_machine(guarded_pair, guarded_pair_abstract):
    with budget(1):
        fsm = abstract(guarded_pair)
        assert len(fsm.states) == 6
        ticks = [k for k in fsm.transitions if k[1] == TICK]
        others = [k for k in fsm.transitions if k[1] != TICK]
        assert len(ticks) == 6
        assert len(others) == 6
        assert canonical_fsm(fsm) == canonical_fsm(guarded_pair_abstract)


@pytest.mark.criterion(2, "refinement rebuilds the three-state timed machine exactly")
def test_refinement_matches_the_handwritten_machine(guarded_pair_abstract, guarded_pair_rebuilt):
    with budget(1):
        machine = refine(guarded_pair_abstract)
        assert machine.states == ("q0", "q2", "q5")
        assert len(machine.transitions) == 6
        assert machine == guarded_pair_rebuilt


@pytest.mark.criterion(3, "minimized round-trip abstraction is isomorphic to the tick machine")
def test_minimized_roundtrip_abstraction(guarded_pair_rebuilt, guarded_pair_abstract):
    with budget(1):
        small = minimize(abstract(guarded_pair_rebuilt))
        assert canonical_fsm(small) == canonical_fsm(guarded_pair_abstract)


@pytest.mark.criterion(4, "intersection and its inner product match the handwritten machines")
def test_intersection_matches_the_handwritten_machines(
    handover, blinker, handover_blinker_product, handover_blinker_meet
):
    with budget(1):
        inner = product(abstract(handover), abstract(blinker))
        assert len(inner.states) == 13
        assert canonical_fsm(inner) == canonical_fsm(handover_blinker_product)
        meet = tfsm_intersect(handover, blinker)
        assert canonical_tfsm(meet) == canonical_tfsm(handover_blinker_meet)


@pytest.mark.criterion(5, "equivalence decisions with a run-confirmed counterexample")
def test_equivalence_decisions(guarded_pair, guarded_pair_rebuilt, blinker):
    with budget(1):
        assert tfsm_equivalent(guarded_pair, guarded_pair_rebuilt).equivalent
        verdict = tfsm_equivalent(guarded_pair, blinker)
        assert not verdict.equivalent
        word = verdict.counterexample
        assert behavior(guarded_pair, word) != behavior(blinker, word)


@pytest.mark.criterion(6, "tick encoding commutes with execution: 500 machines, 20 words each")
def test_tick_encoding_commutes_with_execution():
    with budget(60):
        pool = machine_pool()
        assert len(pool) >= 500
        rng = random.Random(271828)
        for machine in pool:
            fsm = abstract(machine)
            for _ in range(20):
                word = random_timed_word(rng, machine.inputs)
                assert ticks_agree(machine, fsm, word), (
                    f"{serialize(machine)}\nword: {word}"
                )


def behavior_relation(machine, fsm):
    """Pair every admissible configuration with the state its delay reaches.

    The configuration (s, interval) is matched with the fsm state found by
    running the tick encoding of the interval's representative from s.
    """
    n = max_constant(machine)
    pairs = set()
    for s in machine.states:
        for interval in interval_set(n):
            if not admissible(machine, s, interval):
                continue
            probe = replace(fsm, initial=s)
            k = tick_encode_delay(representative(interval))
            result = mealy_run(probe, (TICK,) * k)
            assert result.accepted
            pairs.add(((s, interval), result.final))
    return BisimRelation(frozenset(pairs))


@pytest.mark.criterion(7, "refinement of 200 random tick machines: valid, faithful, bisimilar")
def test_refinement_of_random_machines():
    with budget(60):
        rng = random.Random(16180)
        for _ in range(200):
            fsm = random_time_progressive_fsm(rng)
            machine = refine(fsm)
            assert validate_tfsm(machine) == []
            relation = behavior_relation(machine, fsm)
            verdict = check_bisimulation(machine, fsm, relation)
            assert verdict.ok, f"{verdict.detail}\n{serialize(fsm)}"
            for _ in range(20):
                word = random_timed_word(rng, machine.inputs)
                assert ticks_agree(machine, fsm, word), (
                    f"{serialize(fsm)}\nword: {word}"
                )


@pytest.mark.criterion(8, "intersection realizes the common behavior: 100 pairs, 20 words each")
def test_intersection_of_random_pairs():
    with budget(60):
        rng = random.Random(14142)
        for _ in range(100):
            inputs = tuple(f"i{k + 1}" for k in range(rng.randint(1, 2)))
            a = random_tfsm(rng, inputs=inputs)
            b = random_tfsm(rng, inputs=inputs)
            meet = tfsm_intersect(a, b)
            assert validate_tfsm(meet) == []
            for _ in range(20):
                word = random_timed_word(rng, inputs)
                assert conjunction_agrees(meet, a, b, word), (
                    f"{serialize(a)}\n{serialize(b)}\nword: {word}"
                )


def bounded_separating_word(a, b, max_len=3):
    """Exhaustive search for a separating word on the half-integer grid.

    Delays range over 0, 1/2, ..., N + 3/2 for the machines' joint largest
    constant N; words that both machines already reject identically are not
    extended, since every extension is rejected at the same point.
    """
    n = max(max_constant(a), max_constant(b))
    grid = [Fraction(k, 2) for k in range(2 * n + 4)]
    inputs = sorted(set(a.inputs) | set(b.inputs))
    frontier = [()]
    for _ in range(max_len):
        extended = []
        for entries in frontier:
            now = entries[-1][1] if entries else Fraction(0)
            for i in inputs:
                for delay in grid:
                    cand = entries + ((i, now + delay),)
                    word = TimedWord(cand)
                    seen = behavior(a, word)
                    if seen != behavior(b, word):
                        return word
                    if seen[0]:
                        extended.append(cand)
        frontier = extended
    return None


def on_the_grid(word, n, max_len=3):
    if len(word) > max_len:
        return False
    return all(
        d <= n + Fraction(3, 2) and d.denominator in (1, 2) for d in word.delays()
    )


@pytest.mark.criterion(9, "equivalence agrees with bounded brute-force search on 100 pairs")
def test_equivalence_against_brute_force():
    with budget(120):
        rng = random.Random(299792458)
        decided_apart = 0
        for k in range(100):
            a = random_tfsm(rng, max_constant=2)
            if k % 4 == 0:
                # Independent pairs are almost never equivalent; a machine's
                # own rebuilt round trip keeps the other verdict exercised.
                b = refine(abstract(a))
            else:
                b = random_tfsm(rng, max_constant=2)
            verdict = tfsm_equivalent(a, b)
            witness = bounded_separating_word(a, b)
            if verdict.equivalent:
                assert witness is None, f"missed {witness}\n{serialize(a)}\n{serialize(b)}"
            else:
                decided_apart += 1
                word = verdict.counterexample
                assert behavior(a, word) != behavior(b, word)
                n = max(max_constant(a), max_constant(b))
                if on_the_grid(word, n):
                    assert witness is not None
            if witness is not None:
                assert not verdict.equivalent
        # The sample must exercise both verdicts to mean anything.
        assert 0 < decided_apart < 100


@pytest.mark.criterion(10, "checker accepts canonical relations, rejects every perturbation")
def test_bisimulation_checker_against_perturbations():
    with budget(40):
        pool = machine_pool()
        rejected = 0
        for machine in pool:
            fsm = abstract(machine)
            relation = canonical_bisimulation(machine, fsm)
            assert check_bisimulation(machine, fsm, relation).ok
            base = relation.pairs
            for pair in base:
                dropped = base - {pair}
                assert not check_bisimulation(machine, fsm, BisimRelation(dropped)).ok
                rejected += 1
                config, matched = pair
                for other in fsm.states:
                    if other == matched:
                        continue
                    redirected = dropped | {(config, other)}
                    assert not check_bisimulation(machine, fsm, BisimRelation(redirected)).ok
                    rejected += 1
        assert rejected > len(pool)


@pytest.mark.criterion(11, "parse/serialize identity on the corpus and 500 random machines")
def test_format_roundtrip():
    with budget(10):
        documents = []
        for path in sorted(MACHINES.iterdir()):
            if path.suffix in (".tfsm", ".fsm"):
                doc = parse_document(path.read_text())
                documents.append((doc.name, doc.body))
        rng = random.Random(66260701)
        for k in range(500):
            if k % 2 == 0:
                body = random_tfsm(rng)
            elif k % 4 == 1:
                body = random_time_progressive_fsm(rng)
            else:
                body = abstract(random_tfsm(rng))
            documents.append((f"m{k}", body))
        assert len(documents) >= 507
        for name, body in documents:
            text = serialize(body, name)
            doc = parse_document(text)
            assert doc.name == name
            assert doc.body == body
            assert serialize(doc.body, doc.name) == text


@pytest.mark.criterion(12, "timed-automaton export reproduces the golden file byte for byte")
def test_timed_automaton_export_golden(guarded_pair):
    golden = (MACHINES / "guarded_pair.ta").read_text()
    assert export_timed_automaton(guarded_pair, "guarded_pair") == golden
