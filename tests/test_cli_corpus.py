"""Every command on every machine in ``machines/``, against a golden transcript.

Each ``.tfsm`` and ``.fsm`` file goes through ``validate``, ``abstract``
(with and without ``--full``), ``refine`` (with and without
``--no-merge``), ``minimize``, ``export-dot``, ``export-ta`` and
``simulate``, and every ordered pair of them through ``equiv`` and
``intersect``.  The transcript records each call's exit code, stdout and
stderr, with paths relative to the repository root, so a change to any
command's output, error message or exit code shows up here.  Run this file
as a script from anywhere to print the transcript.
"""

import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "cli_corpus.golden"
WORD = "i@0 i@3/2 press@5/2"


def corpus_calls():
    files = sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / "machines").glob("*.*fsm"))
    for f in files:
        yield ["validate", f]
        yield ["abstract", f]
        yield ["abstract", f, "--full"]
        yield ["refine", f]
        yield ["refine", f, "--no-merge"]
        yield ["minimize", f]
        yield ["export-dot", f]
        yield ["export-ta", f]
        yield ["simulate", f, "--word", WORD]
    for verb in ("equiv", "intersect"):
        for f in files:
            for g in files:
                yield [verb, f, g]


def transcript() -> dict:
    """``{command line: exit code, stdout and stderr}`` of each corpus call, run in process from the root."""
    from tfsm.cli import main

    records = {}
    with contextlib.chdir(ROOT):
        for argv in corpus_calls():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            line = "$ tfsm " + " ".join(f'"{a}"' if " " in a else a for a in argv)
            records[line] = f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
    return records


def render(records: dict) -> str:
    return "".join(f"{line}\n{body}" for line, body in records.items())


def parse(text: str) -> dict:
    records, line, body = {}, None, []
    for row in text.splitlines(keepends=True):
        if row.startswith("$ tfsm "):
            if line is not None:
                records[line] = "".join(body)
            line, body = row.rstrip("\n"), []
        else:
            body.append(row)
    if line is not None:
        records[line] = "".join(body)
    return records


def test_every_command_on_the_corpus_matches_the_golden_transcript():
    golden, fresh = parse(GOLDEN.read_text()), transcript()
    assert list(fresh) == list(golden)
    assert len(fresh) == 161
    for line, body in fresh.items():
        assert body == golden[line], line
    assert render(fresh) == GOLDEN.read_text()


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.stdout.write(render(transcript()))
