"""One traced gmtwist CLI invocation, for the benchmark's per-layer metrics.

    python3 perfbench/traced.py TRACE_OUT CLI_ARG...

Run with ``src`` on PYTHONPATH.  This imports gmtwist, wraps the public
functions listed in WRAPPED at every module binding of each (so
``from .graph import validate_gm`` in certify and the graph module global that
gm_switch calls are both traced), calls ``gmtwist.cli.main(argv)`` under a root
span, and writes the spans and counters as JSON to TRACE_OUT.  It exits with
main's return code.

A span is (name, start, end, parent index); spans stay in memory until main
returns.  Wrappers sit outside each ``lru_cache``, and cache hits and misses
come from ``cache_info()`` deltas.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from time import perf_counter

MODULES = ("gf", "subspace", "charpoly", "graph", "construct", "graphio", "certify", "cli")

WRAPPED = {
    "gf": ("rref_rows", "rank_of_rows"),
    "subspace": ("enumerate_subspaces", "vector_mask", "mask_contains", "apply_polarity", "span"),
    "charpoly": ("char_poly_exact",),
    "graph": (
        "validate_gm",
        "gm_switch",
        "check_equitable",
        "char_poly",
        "intersection_array",
        "vertex_invariant_distribution",
        "check_isomorphism",
    ),
    "construct": (
        "canonical_grassmann",
        "grassmann",
        "twisted_grassmann",
        "split_A_B",
        "switching_partition",
        "verify_ta_rule",
        "pg_design",
        "jt_design",
        "verify_2_design",
        "block_intersection_sizes",
        "block_graph",
        "phi_map",
        "psi_map",
        "standard_polarity",
    ),
    "graphio": ("to_graph6", "label_table_json", "to_edge_list"),
    "certify": ("run_certification", "collect_verdicts", "certificate_to_json"),
}

# Bindings that must end up traced while their module still has the name: a
# call path that escapes the wrappers should fail the traced run loudly rather
# than drop work from its layer silently.
REQUIRED_BINDINGS = (
    "certify.canonical_grassmann",
    "certify.validate_gm",
    "certify.intersection_array",
    "graph.char_poly_exact",
    "graph.validate_gm",
    "construct.vector_mask",
    "construct.mask_contains",
)

NOT_TRACED = (
    "FieldContext.add/mul and other per-element helpers (decode_vector, "
    "normalize_point, bits_of, mask_of) run millions of times, so they are not "
    "wrapped: their time stays in their callers' self time"
)


class Tracer:
    def __init__(self, graph_type):
        self.graph_type = graph_type
        self.spans: list = []
        self.stack = [-1]
        self.counters: Counter = Counter()
        self.seen_calls: set = set()
        self.keep_alive: list = []  # graphs whose id() keys seen_calls

    def wrap(self, name: str, fn):
        cache_info = getattr(fn, "cache_info", None)
        count = getattr(self, "_count_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = cache_info() if cache_info else None
            index = len(self.spans)
            self.spans.append(None)
            self.stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                self.spans[index] = (name, start, end, self.stack[-1])
            self.counters[name + ".calls"] += 1
            miss = False
            if before is not None:
                miss = cache_info().misses > before.misses
                self.counters[name + (".misses" if miss else ".hits")] += 1
            if name.startswith("graph."):
                self._count_repeat(name, args, kwargs)
            if count is not None:
                count(args, result, miss)
            return result

        return traced

    def _count_repeat(self, name, args, kwargs):
        """A repeat is a call whose graph arguments are the same objects and
        whose other arguments are equal to those of an earlier call."""
        key = [name]
        for arg in list(args) + sorted(kwargs.items()):
            if isinstance(arg, self.graph_type):
                self.keep_alive.append(arg)
                key.append(("graph", id(arg)))
            else:
                try:
                    hash(arg)
                except TypeError:
                    arg = repr(arg)
                key.append(arg)
        key = tuple(key)
        if key in self.seen_calls:
            self.counters["graph.repeat_calls"] += 1
        else:
            self.seen_calls.add(key)

    # Work counters, one per wrapped name that has one.
    def _count_charpoly_char_poly_exact(self, args, result, miss):
        dim = args[1]
        self.counters["charpoly.dim_sum"] += dim
        self.counters["charpoly.dim_max"] = max(self.counters["charpoly.dim_max"], dim)

    def _count_graph_intersection_array(self, args, result, miss):
        roots = args[0].n if result.is_drg else result.failure[0] + 1
        self.counters["graph.intersection_array.bfs_roots"] += roots

    def _count_graph_vertex_invariant_distribution(self, args, result, miss):
        self.counters["graph.vertex_invariant_distribution.vertices"] += args[0].n

    def _pairs_of(self, n):
        self.counters["construct.pairs_compared"] += n * (n - 1) // 2

    def _count_construct_canonical_grassmann(self, args, result, miss):
        if miss:
            self._pairs_of(result.n)

    _count_construct_twisted_grassmann = _count_construct_canonical_grassmann

    def _count_construct_grassmann(self, args, result, miss):
        self._pairs_of(result.n)

    _count_construct_block_graph = _count_construct_grassmann

    def _count_construct_block_intersection_sizes(self, args, result, miss):
        self._pairs_of(len(args[0].blocks))

    def _count_construct_verify_ta_rule(self, args, result, miss):
        self.counters["construct.pairs_compared"] += result.pairs_checked

    def _count_subspace_enumerate_subspaces(self, args, result, miss):
        self.counters["subspace.enumerate_subspaces.items"] += len(result)

    def _count_graphio_to_graph6(self, args, result, miss):
        self.counters["graphio.bytes_out"] += len(result)

    def _count_graphio_label_table_json(self, args, result, miss):
        self.counters["graphio.bytes_out"] += len(result.encode())

    _count_graphio_to_edge_list = _count_graphio_label_table_json


def install(tracer: Tracer) -> tuple[list[str], list[str]]:
    """Replace every binding of each WRAPPED function in the gmtwist modules.

    Returns the bindings patched and the WRAPPED names that gmtwist no longer
    has (their metrics stay 0), both as module.attribute."""
    modules = {name: importlib.import_module("gmtwist." + name) for name in MODULES}
    patched, absent = [], []
    for owner, names in WRAPPED.items():
        for name in names:
            original = getattr(modules[owner], name, None)
            if original is None:
                absent.append(f"{owner}.{name}")
                continue
            wrapper = tracer.wrap(f"{owner}.{name}", original)
            for mod_name, module in modules.items():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        patched.append(f"{mod_name}.{attr}")
    missing = [
        binding
        for binding in REQUIRED_BINDINGS
        if binding not in patched and hasattr(modules[binding.split(".")[0]], binding.split(".")[1])
    ]
    if missing:
        raise SystemExit(f"traced run: bindings not patched: {missing}")
    return patched, absent


def main(trace_out: str, argv: list[str]) -> int:
    from gmtwist.cli import main as cli_main
    from gmtwist.graph import Graph

    tracer = Tracer(Graph)
    patched, absent = install(tracer)
    root = tracer.wrap("cli.main", cli_main)
    status = root(argv)
    with open(trace_out, "w") as fh:
        json.dump(
            {
                "spans": tracer.spans,
                "counters": tracer.counters,
                "patched": sorted(patched),
                "absent": absent,
                "not_traced": NOT_TRACED,
            },
            fh,
        )
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
