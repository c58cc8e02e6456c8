"""Benchmark of the tfsm library: one seeded workload per run.

Usage, from the root of the repository::

    python3 bench/run.py --workload decide --seed 1 --seconds 30 --trace 0

Workloads are ``decide``, ``simulate`` and ``certify`` (see
``workloads.py`` for what each runs and why); ``--workload all`` runs the
three one after another, each in its own process.  A run is single-process and
closed-loop: one caller, the next op after the previous one completes.

1. Set-up, repeated ``SETUP_REPEATS`` times after a ``gc.collect()``:
   import tfsm afresh, generate the inputs from the seed, write machine
   files to a temporary directory in the repository, and for ``simulate``
   parse the machines.  Then the heap is frozen, so that ``gc.collect()``
   before each op is cheap and the ops do not scan the benchmark's data.
2. An untimed pass runs every distinct op once and checks each result
   against the benchmark's own answer.  The digest is a hash over these
   results.
3. The timed loop runs ops round-robin over the op classes for
   ``--seconds``; ``gc.collect()`` runs before each op, outside its span.
   A repeat whose result differs from the checked one counts as failed.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end ones.  With ``--trace 1`` the timed loop runs
half the time untraced, then replays the same ops with spans recorded at
every layer boundary (``spans.py``), and the metrics are per layer.  The
lines before the JSON name every metric with its unit and sample count.
"""

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from spans import LAYERS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7
DEFAULT_SEED = 1
# Timings are reported as the median over up to MAX_BLOCKS consecutive
# blocks of the timed loop; a block needs BLOCK_SAMPLES samples so that its
# p90 has at least ten beyond it.
MAX_BLOCKS = 5
BLOCK_SAMPLES = 100
END_TO_END = ("op_p50_ms", "op_p90_ms", "ops_per_s", "setup_s", "peak_rss_mib")


def import_tfsm() -> dict:
    """Import tfsm from this repository afresh, so each set-up pays for it."""
    for name in [n for n in sys.modules if n == "tfsm" or n.startswith("tfsm.")]:
        del sys.modules[name]
    tfsm = importlib.import_module("tfsm")
    if Path(tfsm.__file__).resolve().parent != ROOT / "src" / "tfsm":
        raise ImportError(f"tfsm imported from {tfsm.__file__}, not from {ROOT / 'src'}")
    return {layer: importlib.import_module(f"tfsm.{layer}") for layer in LAYERS}


def make_api(modules: dict) -> SimpleNamespace:
    """The names the workloads call; tracing wraps them here."""
    m = modules
    return SimpleNamespace(
        main=m["cli"].main,
        parse_document=m["formats"].parse_document,
        serialize=m["formats"].serialize,
        validate_tfsm=m["core"].validate_tfsm,
        TimedWord=m["core"].TimedWord,
        run=m["semantics"].run,
        abstract=m["abstraction"].abstract,
        canonical_bisimulation=m["abstraction"].canonical_bisimulation,
        check_bisimulation=m["abstraction"].check_bisimulation,
        minimize=m["fsm_algebra"].minimize,
    )


def quantile(values, q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Runner:
    def __init__(self, classes, api):
        self.classes, self.api = classes, api
        self.attempted = self.failed = 0
        self.expected = {}  # id(op) -> checked result text
        self.messages = []

    def sequence(self, count: int):
        """Ops round-robin: op ``k`` of every class, for ``k = 0, 1, ...``."""
        width = len(self.classes)
        for i in range(count):
            ops = self.classes[i % width]
            yield ops[(i // width) % len(ops)]

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 5:
            self.messages.append(message)

    def one(self, op):
        """Run one op; return ``(seconds, result, result text)``, both ``None`` if it raised."""
        self.attempted += 1
        gc.collect()
        start = perf_counter()
        try:
            raw = op.call(self.api)
        except Exception as exc:  # a failed op is counted, and the run goes on
            elapsed = perf_counter() - start
            self.fail(f"{op.kind}: {exc!r}")
            return elapsed, None, None
        elapsed = perf_counter() - start
        return elapsed, raw, op.text(raw)

    def check_all(self) -> str:
        """Run and verify every distinct op once; return the digest of the results."""
        digest = hashlib.sha256()
        seen = set()
        for op in self.sequence(len(self.classes) * max(len(ops) for ops in self.classes)):
            if id(op) in seen:
                continue
            seen.add(id(op))
            _, raw, text = self.one(op)
            if raw is None:
                continue
            try:
                problem = op.verify(raw)
            except Exception as exc:  # the check itself broke on this result
                problem = f"check raised {exc!r}"
            if problem:
                self.fail(f"{op.kind}: {problem}")
                continue
            self.expected[id(op)] = text
            digest.update(text.encode() + b"\0")
        return digest.hexdigest()

    def timed(self, seconds: float = None, ops=None, tracer=None):
        """Run ops until ``seconds`` pass or ``ops`` is exhausted; return ``[(op, seconds)]``."""
        samples = []
        deadline = perf_counter() + seconds if seconds is not None else None
        for k, op in enumerate(ops if ops is not None else self.sequence(sys.maxsize)):
            if samples and deadline is not None and perf_counter() >= deadline:
                break
            if tracer is not None:
                tracer.op = k
            elapsed, raw, text = self.one(op)
            samples.append((op, elapsed))
            if raw is not None and text != self.expected.get(id(op)):
                self.fail(f"{op.kind}: a repeat gave another result than the checked run")
        return samples


def blocked(samples, measure, per_block: int = BLOCK_SAMPLES) -> float:
    """Median over contiguous blocks of at least ``per_block`` samples of ``measure(block)``.

    A burst of interference from outside the process then moves one block,
    not the reported value.
    """
    blocks = max(1, min(MAX_BLOCKS, len(samples) // per_block))
    size = len(samples) / blocks
    return statistics.median(measure(samples[round(b * size):round((b + 1) * size)]) for b in range(blocks))


def end_to_end(samples, setups) -> list:
    """``[(name, value, unit, sample count)]``: ``END_TO_END`` first, then per op kind."""
    def p50(block):
        return 1000 * statistics.median(t for _, t in block)

    def p90(block):
        return 1000 * quantile([t for _, t in block], 0.9)

    def rate(block):
        return len(block) / sum(t for _, t in block)

    rows = [
        ("op_p50_ms", blocked(samples, p50), "ms", len(samples)),
        ("op_p90_ms", blocked(samples, p90), "ms", len(samples)),
        ("ops_per_s", blocked(samples, rate), "1/s", len(samples)),
        ("setup_s", statistics.median(setups), "s", len(setups)),
        ("peak_rss_mib", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB", 1),
    ]
    by_kind = defaultdict(list)
    for op, t in samples:
        by_kind[op.kind].append((op, t))
    for kind, kind_samples in by_kind.items():
        rows.append((f"{kind}_p50_ms", blocked(kind_samples, p50), "ms", len(kind_samples)))
        rows.append((f"{kind}_p90_ms", blocked(kind_samples, p90), "ms", len(kind_samples)))
    symbols = sum(getattr(op, "symbols", 0) for op, _ in samples)
    if symbols:
        def symbol_rate(block):
            return sum(op.symbols for op, _ in block) / sum(t for _, t in block)

        rows.append(("sim_symbols_per_s", blocked(samples, symbol_rate), "1/s", symbols))
    return rows


PER_OP = ["formats.parse", "formats.serialize", "core.validate", "semantics.run", "semantics.step",
          "semantics.advance", "abstraction.abstract", "abstraction.canonical_bisimulation",
          "abstraction.check_bisimulation", "fsm_algebra.equivalent", "fsm_algebra.product",
          "fsm_algebra.minimize", "refinement.refine", "pipelines.tfsm_equivalent",
          "pipelines.tfsm_intersect", "cli.main"]


def per_layer(tracer, samples, overhead_pct) -> list:
    """``[(name, value, unit, sample count)]`` from the spans of the traced replay."""
    ops = len(samples)
    totals = defaultdict(lambda: [0.0, 0])
    for (_, name), (seconds, calls) in tracer.self_times().items():
        totals[name][0] += seconds
        totals[name][1] += calls
    rows = []
    for name in PER_OP:
        seconds, calls = totals[name]
        rows.append((f"{name}.self_ms", 1000 * seconds / ops, "ms/op", calls))
    for name in ("semantics.step", "semantics.advance"):
        rows.append((f"{name}.calls", totals[name][1] / ops, "calls/op", totals[name][1]))

    def mean(name, counter, unit, metric=None):
        calls = totals[name][1]
        value = tracer.sizes[name, counter] / calls if calls else 0.0
        rows.append((metric or f"{name}.{counter}", value, unit, calls))

    mean("abstraction.abstract", "states_out", "states")
    mean("abstraction.canonical_bisimulation", "pairs", "pairs", "abstraction.relation_pairs")
    mean("refinement.refine", "states_in", "states")
    mean("refinement.refine", "states_out", "states")
    states_in = tracer.sizes["refinement.refine", "states_in"]
    kept = tracer.sizes["refinement.refine", "states_out"] / states_in if states_in else 0.0
    rows.append(("refinement.kept_ratio", kept, "ratio", totals["refinement.refine"][1]))
    mean("fsm_algebra.product", "states_out", "states")
    mean("fsm_algebra.minimize", "states_out", "states")
    mean("formats.parse", "bytes", "bytes")
    mean("formats.serialize", "bytes", "bytes")
    for layer in LAYERS:
        rows.append((f"{layer}.errors", tracer.errors[layer], "count", ops))
    rows.append(("trace.overhead_pct", overhead_pct, "%", ops))
    return rows


def hottest(tracer, samples, top: int = 4) -> list:
    """Lines naming the largest self times per op kind."""
    kinds = {k: op.kind for k, (op, _) in enumerate(samples)}
    by_kind = defaultdict(lambda: defaultdict(float))
    for (op_id, name), (seconds, _) in tracer.self_times().items():
        by_kind[kinds[op_id]][name] += seconds
    lines = []
    for kind, names in by_kind.items():
        total = sum(names.values())
        ranked = sorted(names.items(), key=lambda item: -item[1])[:top]
        lines.append(f"hottest in {kind} ops: " + ", ".join(f"{n} {100 * s / total:.1f}%" for n, s in ranked))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        options = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        runs = [subprocess.run([sys.executable, __file__, "--workload", w, *options]) for w in WORKLOADS]
        return max(run.returncode for run in runs)

    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_tmp-") as tmp:
        setups = []
        for rep in range(SETUP_REPEATS):
            gc.collect()
            start = perf_counter()
            try:
                modules = import_tfsm()
            except ImportError as exc:
                print(f"error: cannot import tfsm from {ROOT / 'src'}: {exc}", file=sys.stderr)
                return 2
            api = make_api(modules)
            files = Path(tmp) / f"setup{rep}"
            files.mkdir()
            classes = WORKLOADS[args.workload](random.Random(args.seed), api, files)
            setups.append(perf_counter() - start)

        gc.collect()
        gc.freeze()
        runner = Runner(classes, api)
        digest = runner.check_all()
        gc.collect()
        gc.freeze()
        if args.trace:
            plain = runner.timed(seconds=args.seconds / 2)
            tracer = Tracer()
            tracer.install(modules, api)
            try:
                samples = runner.timed(ops=[op for op, _ in plain], tracer=tracer)
            finally:
                tracer.remove()
            overhead = 100 * (sum(t for _, t in samples) / sum(t for _, t in plain) - 1)
            rows = per_layer(tracer, samples, overhead)
        else:
            samples = runner.timed(seconds=args.seconds)
            rows = end_to_end(samples, setups)

    print(f"tfsm benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} python={platform.python_version()} nproc={os.cpu_count()}")
    if args.trace:
        for line in hottest(tracer, samples):
            print(line)
    for name, value, unit, count in rows:
        print(f"{name} {value:.6g} {unit} (n={count})")
    print(f"fail_share {runner.failed / runner.attempted:.6g} share (n={runner.attempted})")
    print(f"digest {args.workload} {digest}")
    for message in runner.messages:
        print(f"failure: {message}")
    metrics = {name: {"value": value, "unit": unit} for name, value, unit, _ in rows if args.trace or name in END_TO_END}
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
