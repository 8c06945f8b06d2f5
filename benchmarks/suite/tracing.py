"""Layer spans recorded from outside the program.

The benchmark does not edit ``src/``: it wraps the public callables at
each layer boundary (``TARGETS``) with a timing shim before the CLI
runs, keeps every call as a ``(name, start, end, parent)`` span in
memory, and reduces the spans to per-layer self time afterwards. Self
time is a span's duration minus the durations of its direct children,
so time inside a max-flow is charged to ``flow.max_flow`` and not to
the merge test or seed verification that asked for it.

Only calls that do real work are wrapped — never per-vertex helpers
such as ``Graph.neighbors``, whose shim would cost more than the call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

#: ``(span name, module, owner path, attribute)`` for every wrapped
#: callable. An empty owner path means a module-level name; an owner
#: that is a dict has its entry replaced (``MERGERS["fbm"]`` is read out
#: of the dict on every pipeline run, so patching the function object
#: elsewhere would miss it).
TARGETS: tuple[tuple[str, str, str, str], ...] = (
    # graph: parsing happens inside from_edge_stream, which consumes
    # the stream_snap_edges generator; `index build` reads through
    # read_edge_list instead.
    ("graph.ingest", "repro.graph.csr", "CsrGraph", "from_edge_stream"),
    ("graph.ingest", "repro.cli", "", "read_edge_list"),
    ("graph.to_graph", "repro.graph.csr", "CsrGraph", "to_graph"),
    ("graph.kcore", "repro.core.pipeline", "", "k_core"),
    ("graph.kcore", "repro.core.vcce_td", "", "k_core"),
    # core.pipeline: `repro.core.ripple` the package attribute is the
    # function, so the module is looked up by name.
    ("core.pipeline", "repro.core.ripple", "", "bottom_up_pipeline"),
    ("core.vcce_td", "repro.core.hierarchy", "", "vcce_td"),
    # core.seeding
    ("seeding.qkvcs", "repro.core.seeding", "", "qkvcs"),
    ("seeding.cliques", "repro.core.seeding", "", "clique_seeds"),
    ("seeding.kbfs", "repro.core.seeding", "", "kbfs_seeds"),
    ("seeding.fallback", "repro.core.seeding", "", "lkvcs_seeds"),
    ("seeding.lkvcs", "repro.core.seeding", "", "lkvcs"),
    # core.expansion
    ("expansion", "repro.core.expansion", "", "ring_expansion"),
    ("expansion", "repro.core.expansion", "", "multiple_expansion"),
    # core.merging
    ("merging", "repro.core.merging", "", "merge_components"),
    ("merging.fbm", "repro.core.pipeline", "MERGERS", "fbm"),
    # flow: every ME, FBM, kBFS, LkVCS and VCCE-TD flow goes through
    # these two.
    ("flow.max_flow", "repro.flow.dinic", "Dinic", "max_flow"),
    ("flow.network_build", "repro.flow.network", "VertexSplitNetwork",
     "__init__"),
    # cli: serialising the result for --json.
    ("cli.output", "repro.core.result", "VCCResult", "to_json"),
)

#: Spans whose non-None return value is counted as a hit (LkVCS calls
#: that found a seed).
COUNT_HITS = frozenset({"seeding.lkvcs"})


def resolve(module_name: str, owner_path: str, attribute: str):
    """The ``(owner, original)`` pair a target names; raises
    ``AttributeError``/``KeyError``/``ImportError`` when it is gone."""
    owner = importlib.import_module(module_name)
    for part in filter(None, owner_path.split(".")):
        owner = getattr(owner, part)
    if isinstance(owner, dict):
        return owner, owner[attribute]
    return owner, inspect.getattr_static(owner, attribute)


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or -1, hit]`` per call.
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, function):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        count_hits = name in COUNT_HITS

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, False]
            spans.append(span)
            stack.append(index)
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count_hits and result is not None:
                span[4] = True
            return result

        return traced

    def install(self, targets=TARGETS) -> None:
        """Replace every target with its traced shim."""
        for name, module_name, owner_path, attribute in targets:
            owner, original = resolve(module_name, owner_path, attribute)
            if isinstance(owner, dict):
                owner[attribute] = self.wrap(name, original)
            elif isinstance(original, classmethod):
                setattr(
                    owner,
                    attribute,
                    classmethod(self.wrap(name, original.__func__)),
                )
            else:
                setattr(owner, attribute, self.wrap(name, original))

    def summary(self) -> dict:
        """Per-span-name call count, hits, total and self seconds, plus
        the roots' total and the FBM tests that built a flow network."""
        child_time = [0.0] * len(self.spans)
        built_network: set[int] = set()
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
                if name == "flow.network_build":
                    built_network.add(parent)
        layers: dict[str, dict] = {}
        roots_s = 0.0
        for index, (name, start, end, parent, hit) in enumerate(self.spans):
            entry = layers.setdefault(
                name, {"calls": 0, "hits": 0, "total_s": 0.0, "self_s": 0.0}
            )
            entry["calls"] += 1
            entry["hits"] += hit
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
            if parent < 0:
                roots_s += end - start
        fbm_flow_tests = sum(
            1 for index in built_network if self.spans[index][0] == "merging.fbm"
        )
        return {
            "layers": layers,
            "roots_s": roots_s,
            "fbm_flow_tests": fbm_flow_tests,
        }

    def chrome_trace(self, origin: float) -> dict:
        """The spans as Chrome trace-event JSON (Perfetto loads it)."""
        return {
            "traceEvents": [
                {
                    "name": name,
                    "cat": name.split(".")[0],
                    "ph": "X",
                    "ts": round((start - origin) * 1e6, 3),
                    "dur": round((end - start) * 1e6, 3),
                    "pid": 1,
                    "tid": 1,
                }
                for name, start, end, _, _ in self.spans
            ],
            "displayTimeUnit": "ms",
        }
