"""In-memory spans around tfsm's public functions, installed from outside.

The tracer replaces a function at the site that calls it (a module
attribute such as ``tfsm.pipelines.abstract``, or the benchmark's own
``api`` namespace) with a wrapper that records one span per call: its
name, start, end, parent span and op id.  A span's self time is its
duration minus the time covered by its child spans.  Nothing under
``src/`` changes, and nothing is wrapped unless a traced run asks for it.
"""

from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "formats", "core", "semantics", "abstraction", "fsm_algebra", "refinement", "pipelines")

# (module under tfsm, attribute, span name).  Each entry is the import site
# through which the library calls into another layer.
SITES = (
    ("cli", "parse_document", "formats.parse"),
    ("cli", "serialize", "formats.serialize"),
    ("cli", "validate_tfsm", "core.validate"),
    ("cli", "validate_fsm", "core.validate"),
    ("cli", "tfsm_equivalent", "pipelines.tfsm_equivalent"),
    ("cli", "tfsm_intersect", "pipelines.tfsm_intersect"),
    ("pipelines", "abstract", "abstraction.abstract"),
    ("pipelines", "equivalent", "fsm_algebra.equivalent"),
    ("pipelines", "product", "fsm_algebra.product"),
    ("pipelines", "refine", "refinement.refine"),
    ("pipelines", "run", "semantics.run"),
    ("semantics", "advance", "semantics.advance"),
    ("semantics", "step", "semantics.step"),
)

# The names the benchmark itself calls, wrapped on its ``api`` namespace.
API_NAMES = {
    "main": "cli.main",
    "parse_document": "formats.parse",
    "validate_tfsm": "core.validate",
    "abstract": "abstraction.abstract",
    "canonical_bisimulation": "abstraction.canonical_bisimulation",
    "check_bisimulation": "abstraction.check_bisimulation",
    "minimize": "fsm_algebra.minimize",
    "serialize": "formats.serialize",
    "run": "semantics.run",
}

# Sizes read from a call's arguments and result: span name -> [(counter, fn)].
SIZES = {
    "abstraction.abstract": [("states_out", lambda args, r: len(r.states))],
    "abstraction.canonical_bisimulation": [("pairs", lambda args, r: len(r))],
    "refinement.refine": [
        ("states_in", lambda args, r: len(args[0].states)),
        ("states_out", lambda args, r: len(r.states)),
    ],
    "fsm_algebra.product": [("states_out", lambda args, r: len(r.states))],
    "fsm_algebra.minimize": [("states_out", lambda args, r: len(r.states))],
    "formats.parse": [("bytes", lambda args, r: len(args[0]))],
    "formats.serialize": [("bytes", lambda args, r: len(r))],
}


class Tracer:
    """Records spans of wrapped calls; :meth:`remove` puts the originals back."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent id, op id, time covered by children)
        self.stack = []
        self.op = None
        self.sizes = defaultdict(int)
        self.errors = Counter()
        self._originals = []

    def wrap(self, owner, attr: str, name: str) -> None:
        fn = getattr(owner, attr)
        sizes = SIZES.get(name, ())
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = len(spans)
            span = [name, 0.0, 0.0, parent, self.op, 0.0]
            stack.append(index)
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name.split(".")[0]] += 1
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
                if parent is not None:
                    spans[parent][5] += span[2] - span[1]
                # A finished span is a tuple of atoms, which the collector
                # stops tracking, so gc.collect() between ops stays cheap.
                spans[index] = tuple(span)
            for counter, size in sizes:
                self.sizes[name, counter] += size(args, result)
            return result

        setattr(owner, attr, traced)
        self._originals.append((owner, attr, fn))

    def install(self, modules: dict, api) -> None:
        for module, attr, name in SITES:
            self.wrap(modules[module], attr, name)
        for attr, name in API_NAMES.items():
            self.wrap(api, attr, name)

    def remove(self) -> None:
        while self._originals:
            owner, attr, fn = self._originals.pop()
            setattr(owner, attr, fn)

    def self_times(self) -> dict:
        """``{(op id, span name): [self seconds, calls]}``."""
        out = defaultdict(lambda: [0.0, 0])
        for name, start, end, _, op, children in self.spans:
            entry = out[op, name]
            entry[0] += end - start - children
            entry[1] += 1
        return out
