"""Resume equivalence: a run interrupted at a checkpoint and resumed is
indistinguishable from the uninterrupted run.

Exploration is deterministic, so this is an exact-equality property —
graph shape, result stores, terminal counts, and cumulative stats all
match.  The acceptance criterion requires it for *every* corpus program,
so the main test parametrizes over the whole bundled corpus.
"""

from __future__ import annotations

import pytest

from repro.explore import ExploreOptions, explore
from repro.programs.corpus import CORPUS
from repro.resilience.checkpoint import (
    CheckpointError,
    Checkpointer,
    read_snapshot,
    write_snapshot,
)
from repro.semantics.step import StepOptions


def _signature(result):
    """Everything observable about a finished exploration."""
    g = result.graph
    s = result.stats
    return {
        "stores": result.final_stores(),
        "faults": result.fault_messages(),
        "configs": g.num_configs,
        "edges": g.num_edges,
        "edge_set": {(e.src, e.dst, e.labels) for e in g.edges},
        "terminal": dict(g.terminal),
        "num_terminated": s.num_terminated,
        "num_deadlocks": s.num_deadlocks,
        "num_faults": s.num_faults,
        "expansions": s.expansions,
        "actions": s.actions_executed,
    }


def _interrupt_and_resume(program, opts, tmp_path, *, every=3, stop_after=1):
    """Run to the *stop_after*-th checkpoint, then resume to completion.
    Returns (resumed_result, interrupted_result) — or (None, full_run)
    when the search finished before a checkpoint fired."""
    path = str(tmp_path / "snap.ckpt")
    cp = Checkpointer(path, every=every, stop_after=stop_after)
    first = explore(program, options=opts, checkpointer=cp)
    if not first.stats.truncated:
        return None, first  # too small to interrupt at this cadence
    assert first.stats.truncation_reason == "interrupted"
    assert cp.written >= stop_after
    resumed = explore(program, options=opts, resume_from=path)
    assert resumed.stats.resumed
    return resumed, first


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_resume_matches_uninterrupted_bfs(name, tmp_path):
    program = CORPUS[name]()
    opts = ExploreOptions(policy="stubborn", max_configs=30_000)
    reference = explore(program, options=opts)
    assert not reference.stats.truncated, f"{name}: corpus program truncated"

    resumed, first = _interrupt_and_resume(program, opts, tmp_path)
    if resumed is None:
        # finished before the first checkpoint: nothing to interrupt,
        # but the run itself must already equal the reference
        assert _signature(first) == _signature(reference)
        return
    assert first.stats.expansions <= reference.stats.expansions
    sig, ref = _signature(resumed), _signature(reference)
    assert sig == ref, f"{name}: resumed run diverged from uninterrupted"


@pytest.mark.parametrize(
    "opts",
    [
        ExploreOptions(policy="full"),
        ExploreOptions(policy="full", coarsen=True),
        ExploreOptions(policy="stubborn-proc", coarsen=True),
        ExploreOptions(policy="full", sleep=True),
        ExploreOptions(policy="stubborn", sleep=True, coarsen=True),
    ],
    ids=lambda o: o.describe(),
)
def test_resume_across_drivers_and_policies(opts, tmp_path):
    """Both drivers (BFS and sleep-set DFS), all policy knobs."""
    program = CORPUS["philosophers_3"]()
    reference = explore(program, options=opts)
    resumed, _ = _interrupt_and_resume(program, opts, tmp_path)
    assert resumed is not None, "philosophers_3 must outlive one checkpoint"
    assert _signature(resumed) == _signature(reference)


@pytest.mark.parametrize("stop_after", [1, 2, 5])
def test_resume_from_different_depths(stop_after, tmp_path):
    """Pull the plug earlier or later: the answer never changes."""
    program = CORPUS["peterson"]()
    opts = ExploreOptions(policy="full")
    reference = explore(program, options=opts)
    resumed, _ = _interrupt_and_resume(
        program, opts, tmp_path, every=7, stop_after=stop_after
    )
    assert resumed is not None
    assert _signature(resumed) == _signature(reference)


@pytest.mark.parametrize("jobs", [0, 2], ids=["serial", "parallel-j2"])
def test_resume_ignores_legacy_processed_key(jobs, tmp_path):
    """Older BFS snapshots also stored the set of expanded
    configurations; the key is now redundant and ignored."""
    program = CORPUS["philosophers_3"]()
    opts = ExploreOptions(policy="stubborn")
    path = str(tmp_path / "snap.ckpt")
    first = explore(
        program, options=opts, checkpointer=Checkpointer(path, every=3, stop_after=1)
    )
    assert first.stats.truncation_reason == "interrupted"
    payload = read_snapshot(path)
    del payload["schema"]
    payload["processed"] = set(range(payload["graph"].num_configs)) - set(
        payload["queue"]
    )
    write_snapshot(path, payload)
    if jobs:
        opts = ExploreOptions(policy="stubborn", backend="parallel", jobs=jobs)
    reference = explore(program, options=opts)
    resumed = explore(program, options=opts, resume_from=path)
    assert resumed.stats.resumed
    assert _signature(resumed) == _signature(reference)


def test_resume_chain(tmp_path):
    """Interrupt, resume, interrupt the resumed run, resume again."""
    program = CORPUS["philosophers_3"]()
    opts = ExploreOptions(policy="stubborn")
    reference = explore(program, options=opts)

    path = str(tmp_path / "snap.ckpt")
    first = explore(
        program,
        options=opts,
        checkpointer=Checkpointer(path, every=3, stop_after=1),
    )
    assert first.stats.truncation_reason == "interrupted"
    second = explore(
        program,
        options=opts,
        resume_from=path,
        checkpointer=Checkpointer(path, every=3, stop_after=2),
    )
    assert second.stats.resumed
    assert second.stats.truncation_reason == "interrupted"
    final = explore(program, options=opts, resume_from=path)
    assert final.stats.resumed
    assert _signature(final) == _signature(reference)


def test_resume_rejects_wrong_program(tmp_path):
    opts = ExploreOptions(policy="stubborn")
    path = str(tmp_path / "snap.ckpt")
    explore(
        CORPUS["philosophers_3"](),
        options=opts,
        checkpointer=Checkpointer(path, every=3, stop_after=1),
    )
    with pytest.raises(CheckpointError, match="different program"):
        explore(CORPUS["mutex_counter"](), options=opts, resume_from=path)


def test_resume_rejects_wrong_options(tmp_path):
    path = str(tmp_path / "snap.ckpt")
    explore(
        CORPUS["philosophers_3"](),
        options=ExploreOptions(policy="stubborn"),
        checkpointer=Checkpointer(path, every=3, stop_after=1),
    )
    with pytest.raises(CheckpointError, match="do not match"):
        explore(
            CORPUS["philosophers_3"](),
            options=ExploreOptions(policy="full"),
            resume_from=path,
        )


def test_resume_rejects_wrong_driver(tmp_path):
    path = str(tmp_path / "snap.ckpt")
    explore(
        CORPUS["philosophers_3"](),
        options=ExploreOptions(policy="full"),
        checkpointer=Checkpointer(path, every=3, stop_after=1),
    )
    with pytest.raises(CheckpointError, match="driver"):
        explore(
            CORPUS["philosophers_3"](),
            options=ExploreOptions(policy="full", sleep=True),
            resume_from=path,
        )


def test_resume_may_raise_budget(tmp_path):
    """Budgets are excluded from the options key on purpose: the whole
    point of resuming is often to continue with a bigger budget."""
    program = CORPUS["philosophers_3"]()
    path = str(tmp_path / "snap.ckpt")
    small = explore(
        program,
        options=ExploreOptions(policy="stubborn", max_configs=40),
        checkpointer=Checkpointer(path, every=3, stop_after=1),
    )
    assert small.stats.truncated
    big = explore(
        program,
        options=ExploreOptions(policy="stubborn", max_configs=100_000),
        resume_from=path,
    )
    assert not big.stats.truncated
    reference = explore(program, "stubborn")
    assert big.final_stores() == reference.final_stores()


def test_resume_preserves_step_options_key(tmp_path):
    """StepOptions participate in the options key."""
    program = CORPUS["philosophers_3"]()
    path = str(tmp_path / "snap.ckpt")
    explore(
        program,
        options=ExploreOptions(
            policy="stubborn", step=StepOptions(track_procstrings=True)
        ),
        checkpointer=Checkpointer(path, every=3, stop_after=1),
    )
    with pytest.raises(CheckpointError, match="do not match"):
        explore(
            program,
            options=ExploreOptions(policy="stubborn"),
            resume_from=path,
        )
