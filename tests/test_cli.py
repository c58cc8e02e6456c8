"""The tfsm command line: exit codes, output naming, stderr reporting."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tfsm
from tfsm import cli, parse_document
from tfsm.cli import main
from conftest import MACHINES, budget
from machine_gen import edited_ring_texts

GP = str(MACHINES / "guarded_pair.tfsm")
GP_ABS = str(MACHINES / "guarded_pair_abstract.fsm")
GP_REBUILT = str(MACHINES / "guarded_pair_rebuilt.tfsm")
BLINKER = str(MACHINES / "blinker.tfsm")


class TestValidate:
    def test_good_machine(self, capsys):
        assert main(["validate", GP]) == 0
        assert capsys.readouterr().out == "ok\n"

    def test_violations_go_to_stderr(self, tmp_path, capsys):
        bad = tmp_path / "bad.tfsm"
        bad.write_text(
            "tfsm bad\ninputs i\noutputs o\nstates A\ninitial A\n"
            "timeout A inf\n"
            "trans A i [0,2) / o -> A\n"
            "trans A i [1,3) / o -> A\n"
        )
        assert main(["validate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "overlap" in err

    def test_parse_errors_exit_2(self, tmp_path, capsys):
        mangled = tmp_path / "m.tfsm"
        mangled.write_text("tfsm m\nstates A\n")
        assert main(["validate", str(mangled)]) == 2
        assert capsys.readouterr().err.startswith("error: line ")

    def test_missing_file_exits_2(self, capsys):
        assert main(["validate", "no/such/file.tfsm"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_a_wide_alphabet_with_one_repeat_answers_at_once(self, tmp_path, capsys):
        wide = tmp_path / "wide.tfsm"
        inputs = " ".join(f"i{k}" for k in range(30_000))
        wide.write_text(f"tfsm wide\ninputs {inputs} i7\noutputs o\nstates A\ninitial A\ntimeout A inf\n")
        with budget(2):
            assert main(["validate", str(wide)]) == 2
        assert capsys.readouterr() == ("", f"{wide}: input symbol 'i7' declared more than once\n")


class TestSimulate:
    def test_accepted_word_prints_outputs(self, capsys):
        assert main(["simulate", GP, "--word", "i@0 i@3/2 i@3/2"]) == 0
        assert capsys.readouterr().out == "(o1, 0) (o2, 3/2) (o2, 3/2)\n"

    def test_rejected_word_exits_1(self, tmp_path, capsys):
        gapped = tmp_path / "gapped.tfsm"
        gapped.write_text(
            "tfsm gapped\ninputs i\noutputs o\nstates w\ninitial w\n"
            "timeout w inf\n"
            "trans w i [1,2] / o -> w\n"
        )
        assert main(["simulate", str(gapped), "--word", "i@1 i@4"]) == 1
        out = capsys.readouterr().out
        assert "(o, 1)" in out
        assert "rejected at index 1: no transition for (i, 4) in (w, 3)" in out

    def test_word_syntax_is_checked(self, capsys):
        assert main(["simulate", GP, "--word", "i"]) == 2
        assert "SYMBOL@TIME" in capsys.readouterr().err
        for word, stamp in (("i@x", "x"), ("i@1/0", "1/0")):
            assert main(["simulate", GP, "--word", word]) == 2
            assert capsys.readouterr() == ("", f"error: malformed timestamp {stamp!r} in {word!r}\n")

    def test_needs_a_timed_machine(self, capsys):
        assert main(["simulate", GP_ABS, "--word", "i@0"]) == 2
        assert "needs a timed machine" in capsys.readouterr().err


class TestTransforms:
    def test_abstract_writes_a_named_fsm(self, tmp_path, capsys):
        out = tmp_path / "out.fsm"
        assert main(["abstract", GP, "-o", str(out)]) == 0
        doc = parse_document(out.read_text())
        assert doc.kind == "fsm" and doc.name == "guarded_pair_abstract"
        assert len(doc.body.states) == 6

    def test_refine_round_trips_through_files(self, tmp_path):
        abstracted = tmp_path / "a.fsm"
        rebuilt = tmp_path / "r.tfsm"
        assert main(["abstract", GP, "-o", str(abstracted)]) == 0
        assert main(["refine", str(abstracted), "-o", str(rebuilt)]) == 0
        doc = parse_document(rebuilt.read_text())
        assert doc.kind == "tfsm" and doc.name == "guarded_pair_abstract_refined"
        assert main(["equiv", GP, str(rebuilt)]) == 0

    def test_refine_defaults_to_stdout(self, capsys):
        assert main(["refine", GP_ABS]) == 0
        out = capsys.readouterr().out
        assert out.startswith("tfsm guarded_pair_abstract_refined\n")

    def test_minimize_names_the_result(self, tmp_path):
        out = tmp_path / "m.fsm"
        assert main(["minimize", GP_ABS, "-o", str(out)]) == 0
        assert parse_document(out.read_text()).name == "guarded_pair_abstract_min"

    def test_intersect_timed_machines(self, tmp_path):
        out = tmp_path / "meet.tfsm"
        assert main(["intersect", GP, BLINKER, "-o", str(out)]) == 0
        doc = parse_document(out.read_text())
        assert doc.kind == "tfsm" and doc.name == "guarded_pair_meet_blinker"

    def test_intersect_untimed_machines(self, tmp_path, capsys):
        assert main(["intersect", GP_ABS, GP_ABS]) == 0
        assert capsys.readouterr().out.startswith("fsm guarded_pair_abstract_meet_guarded_pair_abstract\n")

    def test_intersect_refuses_mixed_kinds(self, capsys):
        assert main(["intersect", GP, GP_ABS]) == 2
        assert "cannot intersect" in capsys.readouterr().err

    @pytest.mark.parametrize("bound", [10**6, 10**9])
    def test_intersect_of_a_huge_timeout_ring_answers_at_once(self, tmp_path, capsys, bound):
        first, second, out = tmp_path / "a.tfsm", tmp_path / "b.tfsm", tmp_path / "meet.tfsm"
        for path, text in zip((first, second), edited_ring_texts(bound)):
            path.write_text(text)
        with budget(5):
            assert main(["intersect", str(first), str(second), "-o", str(out)]) == 0
        assert capsys.readouterr() == ("", "")
        assert out.read_text() == (
            f"tfsm a_meet_b\ninputs i\noutputs o1 o2\nstates 0 1\ninitial 0\n"
            f"timeout 0 {2 * bound} -> 0\ntimeout 1 {2 * bound} -> 1\n"
            f"trans 0 i [0,7) / o1 -> 1\ntrans 0 i [{bound + 1},{2 * bound}) / o2 -> 0\n"
            f"trans 1 i [1,{bound}) / o2 -> 0\ntrans 1 i [{bound},{bound + 7}) / o1 -> 1\n"
        )


    @pytest.mark.parametrize("command, kind", [
        ("simulate", "tfsm"), ("abstract", "tfsm"), ("export-ta", "tfsm"), ("refine", "fsm"), ("minimize", "fsm"),
    ])
    def test_commands_for_one_kind_refuse_an_invalid_machine(self, tmp_path, capsys, command, kind):
        bad = tmp_path / f"bad.{kind}"
        if kind == "tfsm":
            bad.write_text("tfsm bad\ninputs i\noutputs o\nstates A\ninitial A\ntimeout A 2 -> Z\n")
        else:
            bad.write_text("fsm bad\ninputs i @t\noutputs o @t\nstates A\ninitial A\ntrans A i/o -> Z\n")
        extra = ["--word", "i@0"] if command == "simulate" else []
        assert main([command, str(bad), *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"{bad}: ") and "'Z'" in captured.err


class TestEquiv:
    def test_equivalent_machines_exit_0(self, capsys):
        assert main(["equiv", GP, GP_REBUILT]) == 0
        assert capsys.readouterr().out == "equivalent\n"

    def test_inequivalent_machines_exit_1_with_a_witness(self, capsys):
        assert main(["equiv", GP, BLINKER]) == 1
        out = capsys.readouterr().out
        assert out.startswith("not equivalent\n")
        assert "counterexample: (i, 1/2)" in out
        assert out.endswith("\non (i, 1/2): outputs o1 in the first machine but o2 in the second\n")

    def test_untimed_comparison(self, tmp_path, capsys):
        trimmed = tmp_path / "t.fsm"
        text = (MACHINES / "guarded_pair_abstract.fsm").read_text()
        assert "trans q5 i/o1 -> q0\n" in text
        trimmed.write_text(text.replace("trans q5 i/o1 -> q0\n", ""))
        assert main(["equiv", GP_ABS, str(trimmed)]) == 1
        out = capsys.readouterr().out
        assert out == (
            "not equivalent\ncounterexample: @t @t @t @t @t i\n"
            "input i after @t @t @t @t @t is defined only in the first machine\n"
        )

    def test_mixed_kinds_exit_2(self, capsys):
        assert main(["equiv", GP, GP_ABS]) == 2
        assert "cannot compare" in capsys.readouterr().err

    def test_the_first_invalid_file_ends_a_two_file_command(self, tmp_path, capsys):
        first, second = tmp_path / "a.tfsm", tmp_path / "b.tfsm"
        for path in (first, second):
            path.write_text(
                "tfsm bad\ninputs i\noutputs o\nstates A\ninitial A\ntimeout A inf\n"
                "trans A i [0,2) / o -> A\ntrans A i [1,3) / o -> A\n"
            )
        for command in ("equiv", "intersect"):
            assert main([command, str(first), str(second)]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith(f"{first}: nondeterministic")
            assert str(second) not in captured.err
            assert main([command, GP, str(second)]) == 2
            assert capsys.readouterr().err.startswith(f"{second}: nondeterministic")


    @pytest.mark.parametrize("bound", [10**6, 10**9])
    def test_equivalent_machines_with_a_huge_timeout_answer_at_once(self, tmp_path, capsys, bound):
        # The copy renames every state and splits one guard at an interior integer.
        ring = (
            "tfsm {name}\ninputs i\noutputs o1 o2\nstates {a} {b}\ninitial {a}\n"
            "timeout {a} {n} -> {b}\ntimeout {b} {n} -> {a}\n"
            "{guards}trans {b} i [1,{n}) / o2 -> {a}\n"
        )
        first, second = tmp_path / "a.tfsm", tmp_path / "b.tfsm"
        first.write_text(ring.format(
            name="a", a="A", b="B", n=bound, guards=f"trans A i [0,{bound}) / o1 -> B\n",
        ))
        second.write_text(ring.format(
            name="b", a="P", b="Q", n=bound,
            guards=f"trans P i [0,7) / o1 -> Q\ntrans P i [7,{bound}) / o1 -> Q\n",
        ))
        with budget(5):
            assert main(["equiv", str(first), str(second)]) == 0
        assert capsys.readouterr() == ("equivalent\n", "")

    @pytest.mark.parametrize("bound", [10**6, 10**9])
    def test_a_mismatch_behind_a_huge_timeout_answers_at_once(self, tmp_path, capsys, bound):
        # The machines part only once A has timed out to B, whose answer to i differs.
        paths = []
        for name, output in (("a", "o2"), ("b", "o1")):
            paths.append(tmp_path / f"{name}.tfsm")
            paths[-1].write_text(
                f"tfsm {name}\ninputs i\noutputs o1 o2\nstates A B\ninitial A\n"
                f"timeout A {bound} -> B\ntimeout B 1 -> A\ntrans B i [0,1) / {output} -> A\n"
            )
        with budget(5):
            assert main(["equiv", *map(str, paths)]) == 1
        assert capsys.readouterr() == (
            f"not equivalent\ncounterexample: (i, {bound})\n"
            f"on (i, {bound}): outputs o2 in the first machine but o1 in the second\n",
            "",
        )


GUARDS = 5000


def _many_guards(name, first, second, last, reverse=False):
    """A machine whose state ``first`` has 5,000 one-unit guards on ``i``, alternating o1 and o2 up to ``last``.

    ``first`` times out at 5,000 to ``second``, which answers ``i`` on [0,1) and times out after 1.
    With ``reverse`` the guards are listed last to first.
    """
    guards = [
        f"trans {first} i [{k},{k + 1}) / {last if k == GUARDS - 1 else ('o1', 'o2')[k % 2]} -> {second}\n"
        for k in range(GUARDS)
    ]
    return (
        f"tfsm {name}\ninputs i\noutputs o1 o2\nstates {first} {second}\ninitial {first}\n"
        f"timeout {first} {GUARDS} -> {second}\ntimeout {second} 1 -> {first}\n"
        f"{''.join(guards[::-1] if reverse else guards)}trans {second} i [0,1) / o1 -> {first}\n"
    )


@pytest.fixture(scope="module")
def many_guards(tmp_path_factory):
    """``a``; ``b``, its copy with renamed states and the guards listed last to first; ``c``, ``a`` with the last output changed."""
    folder = tmp_path_factory.mktemp("many_guards")
    (folder / "a.tfsm").write_text(_many_guards("a", "A", "B", "o2"))
    (folder / "b.tfsm").write_text(_many_guards("b", "P", "Q", "o2", reverse=True))
    (folder / "c.tfsm").write_text(_many_guards("c", "A", "B", "o1"))
    return folder


@pytest.mark.parametrize("argv, code, check", [
    (["validate", "a.tfsm"], 0, lambda out: out == "ok\n"),
    (["simulate", "a.tfsm", "--word", "i@4999/2 i@9999/4"], 0, lambda out: out == "(o2, 4999/2) (o1, 9999/4)\n"),
    # One state per region of A below its timeout, and two of B.
    (["abstract", "a.tfsm"], 0, lambda out: len(out.splitlines()[3].split()) == 1 + 2 * GUARDS + 2),
    (["equiv", "a.tfsm", "b.tfsm"], 0, lambda out: out == "equivalent\n"),
    (["equiv", "a.tfsm", "c.tfsm"], 1, lambda out: out == (
        "not equivalent\ncounterexample: (i, 4999)\n"
        "on (i, 4999): outputs o2 in the first machine but o1 in the second\n"
    )),
    # Each of the two states keeps the 4,999 guards both machines share and B's answer after the timeout.
    (["intersect", "a.tfsm", "c.tfsm"], 0, lambda out: out.count("\ntrans ") == 2 * GUARDS),
    (["export-ta", "a.tfsm"], 0, lambda out: out.count("\nedge ") == GUARDS + 3),
], ids=["validate", "simulate", "abstract", "equiv-equivalent", "equiv-not-equivalent", "intersect", "export-ta"])
def test_five_thousand_guards_on_one_input_answer_at_once(many_guards, capsys, argv, code, check):
    argv = [str(many_guards / x) if x.endswith(".tfsm") else x for x in argv]
    with budget(2):
        assert main(argv) == code
    out, err = capsys.readouterr()
    assert err == "" and check(out), out[:500]


def _outcome(argv, capsys, written):
    """Exit code, stdout and stderr of one ``main`` call, and the text it wrote to ``written``."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    text = written.read_text() if written.exists() else None
    written.unlink(missing_ok=True)
    return code, captured.out, captured.err, text


def test_one_parser_answers_every_call_as_a_fresh_one_does(tmp_path, capsys, monkeypatch):
    written = tmp_path / "out.txt"
    out = str(written)
    calls = [
        ["abstract", GP, "--full"],
        ["abstract", GP],
        ["abstract", GP, "-o", out],
        ["abstract", GP],
        ["refine", GP_ABS, "--no-merge"],
        ["refine", GP_ABS],
        ["refine", GP_ABS, "--no-merge", "-o", out],
        ["minimize", GP_ABS],
        ["equiv", GP, GP_REBUILT],
        ["equiv", GP, BLINKER],
        ["simulate", GP, "--word", "i@0 i@3/2"],
        ["simulate", GP],
        ["validate", GP],
        ["frobnicate", GP],
        [],
        ["abstract", GP, "--no-merge"],
        ["intersect", GP, BLINKER, "-o", out],
        ["intersect", GP],
        ["--help"],
        ["equiv", "--help"],
        ["export-dot", GP_ABS],
        ["export-ta", GP, "-o", out],
        ["export-ta", GP],
        ["validate", "no/such/file.tfsm"],
    ]
    assert cli._parser() is cli._parser()
    outcomes = []
    for argv in calls:
        cached = _outcome(argv, capsys, written)
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_parser", cli.build_parser)
            fresh = _outcome(argv, capsys, written)
        assert cached == fresh, argv
        outcomes.append(cached)
    # Every exit code occurs, and a flag or an output file never carries over to the next call.
    assert {code for code, *_ in outcomes} == {0, 1, 2}
    assert outcomes[0][1] != outcomes[1][1] == outcomes[3][1]
    assert outcomes[2][1] == "" and outcomes[2][3] == outcomes[1][1]
    assert outcomes[4][1] != outcomes[5][1]


class TestExports:
    def test_dot_for_both_kinds(self, capsys):
        assert main(["export-dot", GP]) == 0
        assert capsys.readouterr().out.startswith('digraph "guarded_pair" {')
        assert main(["export-dot", GP_ABS]) == 0
        assert 'digraph "guarded_pair_abstract"' in capsys.readouterr().out

    def test_ta_matches_the_library(self, capsys):
        assert main(["export-ta", GP]) == 0
        assert capsys.readouterr().out == (MACHINES / "guarded_pair.ta").read_text()

    def test_ta_needs_a_timed_machine(self, capsys):
        assert main(["export-ta", GP_ABS]) == 2
        assert "needs a timed machine" in capsys.readouterr().err


def _run_module(*args: str) -> subprocess.CompletedProcess:
    """Run ``python -m tfsm ARGS`` on the tfsm package this suite imported."""
    package_root = str(Path(tfsm.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "tfsm", *args], capture_output=True, text=True, env=env
    )


def test_console_script_is_installed():
    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    scripts = pyproject.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    assert 'tfsm = "tfsm.cli:entry"' in scripts

    proc = _run_module("equiv", GP, GP)
    assert proc.returncode == 0
    assert proc.stdout == "equivalent\n"

    proc = _run_module("equiv", GP, BLINKER)
    assert proc.returncode == 1
    assert proc.stdout.startswith("not equivalent\n")

    proc = _run_module("equiv", GP, GP_ABS)
    assert proc.returncode == 2
    assert "cannot compare" in proc.stderr


@pytest.mark.skipif(
    shutil.which("tfsm") is None, reason="tfsm console script not installed (pip install -e .)"
)
def test_installed_console_script_runs():
    proc = subprocess.run(["tfsm", "equiv", GP, GP], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "equivalent\n"
