"""Per-layer spans and counts, recorded from outside the engine.

:func:`install` replaces the callables at each layer boundary of
``repro`` with wrappers, in the modules that call them (``from x import
f`` binds *f* in the caller's namespace, so that is where it is
wrapped).  A wrapper either opens a span (name, start, end, parent) or,
for hot leaves such as ``accesses.matches``, only counts calls.  Spans
stay in memory; :meth:`Recorder.self_times` turns them into self times
(a span's duration minus its children's) at the end.

Forked parallel workers inherit the wrappers; a fork hook switches span
recording off in them, so only master-side spans are recorded.
"""

from __future__ import annotations

import functools
import os
import time
from array import array
from contextlib import contextmanager

#: span name -> the per-layer time metric its self time counts toward
LAYER_OF_SPAN = {
    "lang.parse": "lang.parse_s",
    "analyses.accesses.build": "analyses.accesses.build_s",
    "explore.explorer.bfs": "explore.explorer.self_s",
    "explore.explorer.sleep": "explore.explorer.self_s",
    "explore.algorithm1.select": "explore.algorithm1.self_s",
    "explore.coarsen.build_block": "explore.coarsen.self_s",
    "explore.memo.expand": "explore.memo.self_s",
    "semantics.step.execute": "semantics.step.self_s",
    "semantics.step.enabledness": "semantics.step.self_s",
    "semantics.step.next_infos": "semantics.step.self_s",
    "semantics.config.gc": "semantics.config.gc_s",
    "semantics.config.digest": "semantics.config.digest_s",
    "explore.graph.add_config": "explore.graph.add_s",
    "explore.sleepsets.independent": "explore.sleepsets.self_s",
    "analyses.sideeffects": "analyses.sideeffects_s",
    "analyses.dependence": "analyses.dependence_s",
    "analyses.lifetime": "analyses.lifetime_s",
    "analyses.races": "analyses.races_s",
    "abstraction.fold": "abstraction.self_s",
    "abstraction.absstep": "abstraction.absstep_s",
    "abstraction.join": "abstraction.join_s",
    "abstraction.leq": "abstraction.leq_s",
    "abstraction.key": "abstraction.key_s",
}

#: layers timed during set-up, outside the traced repetition
SETUP_LAYERS = ("lang.parse_s", "analyses.accesses.build_s")
#: self times of the driver loops, the spans around whole engine calls:
#: engine work that no wrapper covers lands here
DRIVER_LAYERS = ("explore.explorer.self_s", "abstraction.self_s")


class Recorder:
    """In-memory span store plus call counters."""

    def __init__(self) -> None:
        self.active = True
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_t0 = array("d")
        self.span_t1 = array("d")
        self._stack: list[int] = []
        #: counter name -> one-element list (a cell the wrappers bump)
        self.counts: dict[str, list[int]] = {}
        self._patched: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._in_child)

    def _in_child(self) -> None:
        self.active = False

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def cell(self, name: str) -> list[int]:
        return self.counts.setdefault(name, [0])

    def count(self, name: str) -> int:
        return self.counts.get(name, [0])[0]

    def open(self, nid: int) -> int:
        i = len(self.span_t0)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_t1.append(0.0)
        self._stack.append(i)
        self.span_t0.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.span_t1[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(i)

    # -- wrapping ----------------------------------------------------------

    def timed(self, owner, attr: str, name: str, before=None, after=None):
        """Wrap ``owner.attr`` in a span named *name*.  *before* sees the
        call's arguments, *after* its result (both only while active)."""
        fn = getattr(owner, attr)
        nid = self.name_id(name)
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(*args, **kwargs)
            i = rec.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(i)
            if after is not None:
                after(result)
            return result

        self._patch(owner, attr, wrapper)

    def counted(self, owner, attr: str, name: str) -> None:
        """Wrap ``owner.attr`` to count calls only (hot leaves)."""
        fn = getattr(owner, attr)
        cell = self.cell(name)

        @functools.wraps(fn)
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        self._patch(owner, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def calls(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            return 0
        return sum(1 for n in self.span_name if n == nid)

    def inclusive(self, name: str) -> float:
        nid = self._ids.get(name)
        return sum(
            (
                self.span_t1[i] - self.span_t0[i]
                for i, n in enumerate(self.span_name)
                if n == nid
            ),
            0.0,
        )

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name: duration minus child spans."""
        n = len(self.span_t0)
        dur = [self.span_t1[i] - self.span_t0[i] for i in range(n)]
        own = list(dur)
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                own[p] -= dur[i]
        out: dict[str, float] = {}
        for i in range(n):
            name = self.names[self.span_name[i]]
            out[name] = out.get(name, 0.0) + own[i]
        return out

    def dump(self) -> dict:
        """Every span, columnar (for the raw record)."""
        return {
            "names": self.names,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "t0": self.span_t0.tolist(),
            "t1": self.span_t1.tolist(),
        }


def install(rec: Recorder) -> None:
    """Wrap the layer-boundary callables of the engine."""
    from repro.abstraction import folding
    from repro.explore import algorithm1, coarsen, explorer, graph, memo
    from repro.explore import parallel, sleepsets
    from repro.semantics import config, step, transport

    rec.timed(algorithm1.AlgorithmOneSelector, "select", "explore.algorithm1.select")
    rec.counted(algorithm1, "matches", "explore.algorithm1.matches_calls")

    block_len = rec.cell("coarsen.block_actions")

    def after_block(block):
        block_len[0] += len(block.actions)

    for mod in (memo, explorer):
        rec.timed(mod, "build_block", "explore.coarsen.build_block", after=after_block)
    rec.timed(explorer, "expand_memoized", "explore.memo.expand")
    for mod in (memo, coarsen, step):
        rec.timed(mod, "execute", "semantics.step.execute")
    for mod in (memo, coarsen):
        rec.timed(mod, "enabledness", "semantics.step.enabledness")
    rec.timed(explorer, "next_infos", "semantics.step.next_infos")

    empty = rec.cell("gc_empty_heap")

    def before_gc(cfg):
        if not cfg.heap:
            empty[0] += 1

    for mod in (memo, step):
        rec.timed(mod, "collect_garbage", "semantics.config.gc", before=before_gc)
    for mod in (parallel, config):
        rec.timed(mod, "stable_digest", "semantics.config.digest")
    for attr in ("intern_process", "intern_heap_obj", "intern_config"):
        rec.counted(config, attr, "intern_calls")
    rec.counted(transport, "intern_config", "intern_calls")

    rec.timed(graph.ConfigGraph, "add_config", "explore.graph.add_config")
    rec.timed(sleepsets, "independent", "explore.sleepsets.independent")
    rec.timed(folding, "abstract_successors", "abstraction.absstep")
    rec.timed(folding, "join_configs", "abstraction.join")
    rec.timed(folding, "leq_configs", "abstraction.leq")
    # the fold session looks the key function up at call time
    rec.timed(folding, "taylor_key", "abstraction.key")


# ---------------------------------------------------------------------------
# per-layer metrics of one traced repetition
# ---------------------------------------------------------------------------

#: per-layer metrics that depend on how the parallel backend scheduled
#: work (per-shard caches, what crossed the wire): exact only on serial
#: workloads, so the repeat check skips them on parallel ones
SCHEDULING_DEPENDENT = (
    "explore.memo.",
    "semantics.config.digest_",
    "semantics.config.intern_",
    "explore.parallel.",
)


def _levels(succ: dict, initial) -> list[int]:
    """BFS level widths of the graph *succ* (node -> successor nodes)."""
    widths, seen, level = [], {initial}, [initial]
    while level:
        widths.append(len(level))
        nxt = []
        for node in level:
            for dst in succ.get(node, ()):
                if dst not in seen:
                    seen.add(dst)
                    nxt.append(dst)
        level = nxt
    return widths


def _bfs_graph(results: dict):
    """(successor map, initial node) of the workload's BFS-shaped graph:
    the concrete BFS result, or the folded state space."""
    bfs = results.get("bfs")
    if bfs is not None:
        g = bfs.graph
        succ = {
            cid: [g.edges[e].dst for e in eids] for cid, eids in g.out_edges.items()
        }
        return succ, g.initial
    fold = results["fold"]
    succ: dict = {}
    for src, dst, *_ in fold.edges:
        succ.setdefault(src, []).append(dst)
    return succ, fold.initial_key


def collect(
    rec: Recorder, program, results: dict, registry, *, digest_delta: dict,
    intern_sizes: dict, master_cpu_s: float, workers_cpu_s: float,
) -> dict[str, float]:
    """Every per-layer metric of one traced repetition, by name."""
    from repro.abstraction.folding import FoldResult
    from repro.explore import ExploreResult

    explores = [r for r in results.values() if isinstance(r, ExploreResult)]
    folds = [r for r in results.values() if isinstance(r, FoldResult)]
    parallel = [r.stats for r in explores if r.stats.backend == "parallel"]
    own: dict[str, float] = {}
    for span, secs in rec.self_times().items():
        layer = LAYER_OF_SPAN.get(span)
        if layer is not None:
            own[layer] = own.get(layer, 0.0) + secs

    def reg(name: str) -> float:
        if name not in registry:
            return 0
        snap = registry.snapshot()[name]
        return snap["sum"] if snap["type"] == "histogram" else snap["value"]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    stub = [r.stats.stubborn for r in explores if r.stats.stubborn is not None]
    hits, misses = reg("expand.cache_hits"), reg("expand.cache_misses")
    blocks = rec.calls("explore.coarsen.build_block")
    gc_calls = rec.calls("semantics.config.gc")
    intern_misses = sum(intern_sizes.values())
    widths = _levels(*_bfs_graph(results))
    msg_bytes = sum(s.msg_bytes for s in parallel)
    session = rec.inclusive("session")
    return {
        "lang.parse_s": own.get("lang.parse_s", 0.0),
        "lang.instructions": sum(len(f.instrs) for f in program.funcs.values()),
        "analyses.accesses.build_s": own.get("analyses.accesses.build_s", 0.0),
        "explore.explorer.expansions": sum(r.stats.expansions for r in explores),
        "explore.explorer.actions": sum(r.stats.actions_executed for r in explores),
        "explore.explorer.self_s": own.get("explore.explorer.self_s", 0.0),
        "explore.explorer.bfs_s": rec.inclusive("explore.explorer.bfs"),
        "explore.explorer.sleep_s": rec.inclusive("explore.explorer.sleep"),
        "explore.algorithm1.select_calls": rec.calls("explore.algorithm1.select"),
        "explore.algorithm1.self_s": own.get("explore.algorithm1.self_s", 0.0),
        "explore.algorithm1.matches_calls": rec.count("explore.algorithm1.matches_calls"),
        "explore.algorithm1.closure_iterations": reg("stubborn.closure_iterations"),
        "explore.algorithm1.chosen_ratio": ratio(
            sum(s.chosen_total for s in stub), sum(s.enabled_total for s in stub)
        ),
        "explore.coarsen.build_block_calls": blocks,
        "explore.coarsen.self_s": own.get("explore.coarsen.self_s", 0.0),
        "explore.coarsen.block_len_mean": ratio(rec.count("coarsen.block_actions"), blocks),
        "explore.memo.hits": hits,
        "explore.memo.misses": misses,
        "explore.memo.invalidations": reg("expand.invalidations"),
        "explore.memo.hit_rate": ratio(hits, hits + misses),
        "explore.memo.self_s": own.get("explore.memo.self_s", 0.0),
        "semantics.step.execute_calls": rec.calls("semantics.step.execute"),
        "semantics.step.next_infos_calls": rec.calls("semantics.step.next_infos"),
        "semantics.step.self_s": own.get("semantics.step.self_s", 0.0),
        "semantics.config.gc_calls": gc_calls,
        "semantics.config.gc_empty_heap_calls": rec.count("gc_empty_heap"),
        "semantics.config.gc_s": own.get("semantics.config.gc_s", 0.0),
        "semantics.config.digest_new": digest_delta["component_new"],
        "semantics.config.digest_reused": digest_delta["component_reused"],
        "semantics.config.digest_s": own.get("semantics.config.digest_s", 0.0),
        "semantics.config.intern_hits": rec.count("intern_calls") - intern_misses,
        "semantics.config.intern_misses": intern_misses,
        "explore.graph.add_config_calls": rec.calls("explore.graph.add_config"),
        "explore.graph.add_s": own.get("explore.graph.add_s", 0.0),
        "explore.graph.edges": sum(r.stats.num_edges for r in explores),
        "explore.graph.bfs_levels": len(widths),
        "explore.graph.ideal_speedup_j2": ratio(
            sum(widths), sum((w + 1) // 2 for w in widths)
        ),
        "explore.sleepsets.independent_calls": rec.calls("explore.sleepsets.independent"),
        "explore.sleepsets.self_s": own.get("explore.sleepsets.self_s", 0.0),
        "explore.parallel.msg_bytes": msg_bytes,
        "explore.parallel.bytes_per_config": ratio(
            msg_bytes, sum(s.num_configs for s in parallel)
        ),
        "explore.parallel.cand_msgs": sum(s.cand_msgs for s in parallel),
        "explore.parallel.cand_suppressed": sum(s.cand_suppressed for s in parallel),
        "explore.parallel.handoffs": sum(s.handoffs for s in parallel),
        "explore.parallel.steals": sum(s.steals for s in parallel),
        "explore.parallel.shard_balance": max(
            (s.shard_balance or 0.0 for s in parallel), default=0.0
        ),
        "explore.parallel.worker_restarts": sum(s.worker_restarts for s in parallel),
        "explore.parallel.merge_overlap_s": sum((s.merge_overlap_s for s in parallel), 0.0),
        "explore.parallel.merge_tail_s": sum((s.merge_tail_s for s in parallel), 0.0),
        "explore.parallel.master_cpu_s": master_cpu_s,
        "explore.parallel.workers_cpu_s": workers_cpu_s,
        "analyses.sideeffects_s": own.get("analyses.sideeffects_s", 0.0),
        "analyses.dependence_s": own.get("analyses.dependence_s", 0.0),
        "analyses.lifetime_s": own.get("analyses.lifetime_s", 0.0),
        "analyses.races_s": own.get("analyses.races_s", 0.0),
        "abstraction.fold_states": sum(f.stats.num_states for f in folds),
        "abstraction.fold_edges": sum(f.stats.num_edges for f in folds),
        "abstraction.fold_iterations": sum(f.stats.iterations for f in folds),
        "abstraction.absstep_s": own.get("abstraction.absstep_s", 0.0),
        "abstraction.join_s": own.get("abstraction.join_s", 0.0),
        "abstraction.leq_s": own.get("abstraction.leq_s", 0.0),
        "abstraction.key_s": own.get("abstraction.key_s", 0.0),
        "abstraction.self_s": own.get("abstraction.self_s", 0.0),
        "trace.wall_s": session,
        # share of the traced wall time that the wrapped layers' self
        # times account for, and the share left in the driver loops
        "trace.coverage": ratio(
            sum(v for k, v in own.items() if k not in SETUP_LAYERS + DRIVER_LAYERS),
            session,
        ),
        "trace.driver_share": ratio(sum(own.get(k, 0.0) for k in DRIVER_LAYERS), session),
    }


# ---------------------------------------------------------------------------
# stress and bypass predictions, checked as counts
# ---------------------------------------------------------------------------


def _gt0(name):
    return (f"{name} > 0", lambda m: m[name] > 0)


def _eq0(name):
    return (f"{name} == 0", lambda m: m[name] == 0)


_GC, _GC_EMPTY = "semantics.config.gc_calls", "semantics.config.gc_empty_heap_calls"

#: workload -> (description, test) pairs over its per-layer metrics
PREDICTIONS = {
    "philo_serial": [
        _gt0("explore.algorithm1.select_calls"),
        _gt0("explore.coarsen.build_block_calls"),
        _gt0("explore.sleepsets.independent_calls"),
        _gt0(_GC),
        (f"{_GC_EMPTY} == {_GC} (the heap is always empty)",
         lambda m: m[_GC_EMPTY] == m[_GC]),
        _eq0("explore.parallel.msg_bytes"),
        _eq0("abstraction.fold_states"),
    ],
    "philo_parallel": [
        _gt0("explore.parallel.msg_bytes"),
        _gt0("explore.parallel.handoffs"),
        # the master sequences the sleep-set DFS, so it selects; every
        # expansion runs in a worker
        _gt0("explore.algorithm1.select_calls"),
        _eq0("semantics.step.execute_calls"),
        _eq0("abstraction.fold_states"),
    ],
    "heap_full": [
        _eq0("explore.algorithm1.select_calls"),
        _eq0("explore.coarsen.build_block_calls"),
        _gt0("explore.memo.hits"),
        (f"{_GC} > {_GC_EMPTY} (GC walks a live heap)",
         lambda m: m[_GC] > m[_GC_EMPTY]),
        _gt0("analyses.races_s"),
        _eq0("explore.parallel.msg_bytes"),
        _eq0("abstraction.fold_states"),
    ],
    "fold_tasks": [
        _eq0("explore.explorer.expansions"),
        _eq0("explore.algorithm1.select_calls"),
        _eq0("semantics.step.execute_calls"),
        _eq0(_GC),
        _gt0("abstraction.fold_iterations"),
        _eq0("explore.parallel.msg_bytes"),
    ],
}

#: the traced repetition must be attributed to layers, driver loops
#: included, but for the session's own glue code
MIN_ATTRIBUTED = 0.95
#: workload -> least share the wrapped layers alone must account for.
#: On philo_parallel the master mostly waits for its workers, whose
#: spans are not recorded, so the wait lands in the driver loop and
#: only the attributed share is checked there.
MIN_COVERAGE = {"philo_serial": 0.85, "heap_full": 0.8, "fold_tasks": 0.8}


def check_predictions(workload: str, m: dict) -> list[str]:
    """Descriptions of the predictions *m* breaks."""
    failed = [desc for desc, test in PREDICTIONS[workload] if not test(m)]
    attributed = m["trace.coverage"] + m["trace.driver_share"]
    if attributed < MIN_ATTRIBUTED:
        failed.append(
            f"trace.coverage + trace.driver_share {attributed:.3f} < {MIN_ATTRIBUTED}"
        )
    least = MIN_COVERAGE.get(workload)
    if least is not None and m["trace.coverage"] < least:
        failed.append(f"trace.coverage {m['trace.coverage']:.3f} < {least}")
    return failed


def deterministic(name: str, parallel: bool) -> bool:
    """Must *name* repeat exactly between two traced runs?"""
    if name.endswith("_s") or name.startswith("trace."):
        return False
    return not (parallel and name.startswith(SCHEDULING_DEPENDENT))
