"""The machine file formats: parsing, error positions, canonical output."""

import pytest

from tfsm import (
    Guard,
    MealyMachine,
    ParseError,
    TimedMachine,
    Timeout,
    Transition,
    parse_document,
    parse_fsm,
    parse_tfsm,
    serialize,
)
from conftest import MACHINES


def tfsm_text(*tail):
    head = ["tfsm t", "inputs i", "outputs o", "states A", "initial A"]
    return "\n".join(head + list(tail)) + "\n"


def fsm_text(*tail):
    head = ["fsm t", "inputs i", "outputs o", "states a", "initial a"]
    return "\n".join(head + list(tail)) + "\n"


def error_of(call, *args):
    with pytest.raises(ParseError) as info:
        call(*args)
    return info.value


class TestParseTfsm:
    def test_parses_the_documented_example(self):
        doc = parse_tfsm(
            "tfsm handover  # comment to end of line\n"
            "inputs i\n"
            "outputs o1 o2\n"
            "states A B C\n"
            "initial A\n"
            "timeout A 2 -> C\n"
            "timeout B inf\n"
            "timeout C 1 -> A\n"
            "trans A i [0,1) / o1 -> B\n"
            "trans A i [1,2) / o2 -> A\n"
        )
        assert doc.kind == "tfsm" and doc.name == "handover"
        machine = doc.body
        assert machine.states == ("A", "B", "C")
        assert machine.timeouts["A"] == Timeout(2, "C")
        assert machine.timeouts["B"] == Timeout(None)
        assert machine.transitions[0] == Transition("A", "i", Guard(0, 1, True, False), "o1", "B")

    def test_every_guard_shape_parses(self):
        doc = parse_tfsm(tfsm_text(
            "timeout A inf",
            "trans A i [0,2] / o -> A",
            "trans A i [0,2) / o -> A",
            "trans A i (1,3] / o -> A",
            "trans A i (0,1) / o -> A",
            "trans A i [0,inf) / o -> A",
            "trans A i (2,inf) / o -> A",
        ))
        guards = [t.guard for t in doc.body.transitions]
        assert Guard(0, 2, True, True) in guards
        assert Guard(0, None, True, False) in guards
        assert Guard(2, None, False, False) in guards

    def test_comments_and_blank_lines_are_ignored(self):
        noisy = (
            "tfsm t # named t\n\n"
            "inputs i\n"
            "# a full-line comment\n"
            "outputs o\n\n\n"
            "states A\n"
            "initial A\n"
            "timeout A inf\n"
        )
        assert parse_tfsm(noisy).body == parse_tfsm(tfsm_text("timeout A inf")).body

    def test_header_lines_must_come_in_order(self):
        text = "tfsm t\noutputs o\ninputs i\nstates A\ninitial A\n"
        err = error_of(parse_tfsm, text)
        assert "expected 'inputs', found 'outputs'" in str(err)
        assert (err.line, err.column) == (2, 1)

    def test_truncated_header_points_past_the_last_line(self):
        err = error_of(parse_tfsm, "tfsm t\ninputs i\noutputs o\n")
        assert "unexpected end of file" in str(err) and "'states'" in str(err)

    def test_malformed_guard_is_located(self):
        err = error_of(parse_tfsm, tfsm_text("timeout A inf", "trans A i 0,2 / o -> A"))
        assert "malformed guard '0,2'" in str(err)
        assert (err.line, err.column) == (7, 11)

    def test_unbounded_guard_cannot_close(self):
        err = error_of(parse_tfsm, tfsm_text("timeout A inf", "trans A i [1,inf] / o -> A"))
        assert "must close with ')'" in str(err)

    def test_empty_guard_is_reported_at_its_token(self):
        err = error_of(parse_tfsm, tfsm_text("timeout A inf", "trans A i (2,2] / o -> A"))
        assert (err.line, err.column) == (7, 11)

    def test_tick_is_reserved_in_timed_alphabets(self):
        err = error_of(parse_tfsm, "tfsm t\ninputs i @t\noutputs o\nstates A\ninitial A\n")
        assert "reserved here" in str(err)
        assert (err.line, err.column) == (2, 10)

    def test_tick_is_reserved_in_timed_transitions(self):
        err = error_of(parse_tfsm, tfsm_text("timeout A inf", "trans A @t [0,1) / o -> A"))
        assert "reserved here" in str(err)

    def test_duplicate_timeout_is_located(self):
        err = error_of(parse_tfsm, tfsm_text("timeout A inf", "timeout A 1 -> A"))
        assert "declared twice" in str(err)
        assert (err.line, err.column) == (7, 9)

    def test_timeout_bound_must_be_integral(self):
        err = error_of(parse_tfsm, tfsm_text("timeout A x -> A"))
        assert "positive integer or 'inf'" in str(err)
        assert (err.line, err.column) == (6, 11)

    def test_infinite_timeout_with_a_target_is_rejected(self):
        err = error_of(parse_tfsm, tfsm_text("timeout A inf -> B"))
        assert "an infinite timeout carries no target state" in str(err)
        assert "positive integer" not in str(err)
        assert (err.line, err.column) == (6, 11)

    def test_timeout_bound_zero_is_rejected(self):
        err = error_of(parse_tfsm, tfsm_text("timeout A 0 -> A"))
        assert (err.line, err.column) == (6, 11)

    def test_timeout_usage_line(self):
        err = error_of(parse_tfsm, tfsm_text("timeout A"))
        assert "usage: timeout STATE inf | timeout STATE BOUND -> STATE" in str(err)

    def test_transition_arity_is_checked(self):
        err = error_of(parse_tfsm, tfsm_text("timeout A inf", "trans A i [0,1) o -> A"))
        assert "usage: trans SOURCE INPUT GUARD / OUTPUT -> TARGET" in str(err)

    def test_transition_separators_are_checked(self):
        err = error_of(parse_tfsm, tfsm_text("timeout A inf", "trans A i [0,1) x o -> A"))
        assert "expected '/', found 'x'" in str(err)
        err = error_of(parse_tfsm, tfsm_text("timeout A inf", "trans A i [0,1) / o -- A"))
        assert "expected '->', found '--'" in str(err)

    def test_unknown_body_keyword(self):
        err = error_of(parse_tfsm, tfsm_text("bogus A"))
        assert "expected 'timeout' or 'trans', found 'bogus'" in str(err)


class TestParseFsm:
    def test_parses_transitions_as_pairs(self):
        doc = parse_fsm(fsm_text("trans a i/o -> a"))
        assert doc.kind == "fsm"
        assert doc.body.transitions == {("a", "i"): ("o", "a")}

    def test_tick_may_appear_in_alphabets(self):
        doc = parse_fsm(
            "fsm t\ninputs i @t\noutputs o @t\nstates a\ninitial a\n"
            "trans a @t/@t -> a\n"
        )
        assert doc.body.transitions[("a", "@t")] == ("@t", "a")

    def test_tick_cannot_name_a_state(self):
        err = error_of(parse_fsm, "fsm t\ninputs i\noutputs o\nstates a @t\ninitial a\n")
        assert "reserved here" in str(err)
        assert (err.line, err.column) == (4, 10)

    def test_moves_must_be_slash_pairs(self):
        err = error_of(parse_fsm, fsm_text("trans a i -> a"))
        assert "expected an input/output pair like i/o1, found 'i'" in str(err)
        err = error_of(parse_fsm, fsm_text("trans a i/ -> a"))
        assert "input/output pair" in str(err)

    def test_duplicate_transition_is_located(self):
        err = error_of(parse_fsm, fsm_text("trans a i/o -> a", "trans a i/o -> a"))
        assert "declared twice" in str(err)
        assert (err.line, err.column) == (7, 7)

    def test_arrow_is_checked(self):
        err = error_of(parse_fsm, fsm_text("trans a i/o = a"))
        assert "expected '->', found '='" in str(err)
        assert (err.line, err.column) == (6, 13)

    def test_body_lines_must_be_transitions(self):
        err = error_of(parse_fsm, fsm_text("trans a i/o -> a", "timeout a inf"))
        assert "expected 'trans', found 'timeout'" in str(err)
        assert (err.line, err.column) == (7, 1)

    def test_guard_syntax_is_not_accepted(self):
        err = error_of(parse_fsm, fsm_text("trans a i [0,1) / o -> a"))
        assert "usage: trans SOURCE INPUT/OUTPUT -> TARGET" in str(err)


class TestDispatch:
    def test_kind_comes_from_the_leading_keyword(self):
        assert parse_document(tfsm_text("timeout A inf")).kind == "tfsm"
        assert parse_document(fsm_text("trans a i/o -> a")).kind == "fsm"

    def test_empty_documents_are_rejected(self):
        for text in ("", "   \n\n", "# only a comment\n"):
            err = error_of(parse_document, text)
            assert "expected 'tfsm' or 'fsm'" in str(err)

    def test_unknown_kinds_are_rejected(self):
        err = error_of(parse_document, "mealy t\n")
        assert "found 'mealy'" in str(err)
        assert (err.line, err.column) == (1, 1)

    def test_errors_are_those_of_the_parser_for_the_kind(self):
        cases = [
            (parse_tfsm, "tfsm t\ninputs i\noutputs o\n"),
            (parse_tfsm, "tfsm t\ninputs i\noutputs o\n# trailing note\n\n"),
            (parse_tfsm, "  # header\ntfsm t\noutputs o\n"),
            (parse_tfsm, tfsm_text("timeout A inf", "trans A i [0,1) / o -- A")),
            (parse_fsm, "fsm t\ninputs i\n"),
            (parse_fsm, fsm_text("trans a i/o -> a", "   trans a i/o -> a  # again")),
        ]
        located = []
        for parse, text in cases:
            err, via_document = error_of(parse, text), error_of(parse_document, text)
            assert (str(via_document), via_document.line, via_document.column) == (str(err), err.line, err.column)
            located.append((err.line, err.column))
        # End of file is reported on the last line, comments and blank lines included.
        assert located[:3] == [(3, 1), (5, 1), (3, 1)]

    @pytest.mark.parametrize("kind", ["tfsm", "fsm"])
    @pytest.mark.parametrize("names", ["", " a b"])
    def test_header_without_exactly_one_name_is_located_at_its_line(self, kind, names):
        text = f"# c\n\n   {kind}{names}\ninputs i\n"
        parse = parse_tfsm if kind == "tfsm" else parse_fsm
        for call in (parse, parse_document):
            err = error_of(call, text)
            assert str(err) == f"line 3, column 4: usage: {kind} NAME"
            assert (err.line, err.column) == (3, 4)


class TestSerialize:
    def test_roundtrip_is_the_identity_on_the_corpus(self):
        for path in sorted(MACHINES.iterdir()):
            if path.suffix not in (".tfsm", ".fsm"):
                continue
            doc = parse_document(path.read_text())
            text = serialize(doc.body, doc.name)
            again = parse_document(text)
            assert again.body == doc.body, path.name
            assert serialize(again.body, again.name) == text, path.name

    def test_transition_order_is_canonical(self):
        forward = tfsm_text(
            "timeout A inf",
            "trans A i [0,1) / o -> A",
            "trans A i [1,2) / o -> A",
        )
        backward = tfsm_text(
            "timeout A inf",
            "trans A i [1,2) / o -> A",
            "trans A i [0,1) / o -> A",
        )
        assert serialize(parse_tfsm(forward).body, "t") == serialize(parse_tfsm(backward).body, "t")

    def test_fsm_transitions_follow_declaration_order(self):
        machine = MealyMachine(
            states=("b", "a"),
            inputs=("j", "i"),
            outputs=("o",),
            initial="b",
            transitions={
                ("a", "i"): ("o", "b"),
                ("b", "i"): ("o", "a"),
                ("b", "j"): ("o", "b"),
            },
        )
        lines = serialize(machine, "m").splitlines()
        assert lines[5:] == [
            "trans b j/o -> b",
            "trans b i/o -> a",
            "trans a i/o -> b",
        ]

    def test_a_state_without_a_timeout_entry_gets_no_timeout_line(self):
        machine = TimedMachine(("A", "B"), ("i",), ("o",), "A", (), {"B": Timeout(1, "A")})
        lines = serialize(machine, "t").splitlines()
        assert lines[5:] == ["timeout B 1 -> A"]

    def test_name_defaults_to_machine(self):
        body = parse_tfsm(tfsm_text("timeout A inf")).body
        assert serialize(body).startswith("tfsm machine\n")

    def test_only_machines_serialize(self):
        with pytest.raises(TypeError, match="cannot serialize"):
            serialize("not a machine")
