"""The four benchmark workloads: program sources, sessions and verdicts.

Each workload is a short user session of calls into the public API of
``repro``.  The seed permutes the order of the cobegin branches of the
generated program sources (a rotation of the philosophers' ring, a
shuffle of the heap threads; the fold workload's tasks are identical,
so it has no order to permute), so a claim can be re-checked on a
held-out seed.  Every verdict uses seed-invariant forms only: terminal
and deadlock counts, final global values, and digests compared between
runs of the same seed.

See ``README.md`` in this directory for why each workload exists.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Callable

PHILOSOPHERS = 9
HEAP_THREADS, HEAP_STEPS = 4, 6
TASKS, TASK_STEPS = 4, 3

#: folded-state counts of identical_tasks(4) under the flat-constant
#: domain and the Taylor key
FOLD_STATES, FOLD_EDGES = 6564, 23331


# ---------------------------------------------------------------------------
# program sources
# ---------------------------------------------------------------------------


def shuffle(branches: list, seed: int) -> list:
    out = list(branches)
    random.Random(seed).shuffle(out)
    return out


def rotate(branches: list, seed: int) -> list:
    """A seeded rotation: on a ring of philosophers it relabels which
    process runs which philosopher but maps the program onto itself up
    to a renaming of the forks, so every seed does the same work (a
    general shuffle would let the pid-ordered stubborn tie-break reach
    different numbers of configurations)."""
    k = random.Random(seed).randrange(len(branches))
    return branches[k:] + branches[:k]


def permute_branches(source: str, seed: int, order=shuffle) -> str:
    """Reorder the cobegin branch lines (``    { ... }``) of *source* by
    *order*.  The generators below put each branch on its own line
    inside one cobegin, so a line reordering is a branch reordering."""
    lines = source.split("\n")
    idx = [i for i, line in enumerate(lines) if line.startswith("    { ")]
    for i, line in zip(idx, order([lines[i] for i in idx], seed)):
        lines[i] = line
    return "\n".join(lines)


def philosophers_source() -> str:
    from repro.programs.philosophers import philosophers_source as src

    return src(PHILOSOPHERS)


def pointer_heavy_source(threads: int = HEAP_THREADS, steps: int = HEAP_STEPS) -> str:
    """Source of ``repro.programs.synthetic.pointer_heavy`` (which only
    returns the compiled program): each thread bumps its own heap cell
    through a pointer, then adds it to ``out``."""
    lines = ["var out = 0;"]
    lines += [f"var p{t} = 0;" for t in range(threads)]
    lines += ["func main() {", "    cobegin"]
    for t in range(threads):
        body = [f"m{t}: p{t} = malloc(1);"]
        body += [f"w{t}x{s}: *p{t} = *p{t} + 1;" for s in range(steps)]
        body.append(f"pub{t}: out = out + *p{t};")
        lines.append("    { " + " ".join(body) + " }")
    lines.append("}")
    return "\n".join(lines)


def seeded(source: Callable[[], str], order=shuffle) -> Callable[[int], object]:
    """A program builder: parse *source()* with its cobegin branches
    reordered by the seed."""

    def build(seed: int):
        from repro.lang import parse_program

        return parse_program(permute_branches(source(), seed, order))

    return build


def identical_tasks(seed: int):
    """``repro.programs.synthetic.identical_tasks``.  Its branches are
    identical, so no reordering changes the program: the seed changes
    nothing here but ``PYTHONHASHSEED``."""
    from repro.programs.synthetic import identical_tasks as build

    return build(TASKS, steps=TASK_STEPS)


# ---------------------------------------------------------------------------
# sessions
# ---------------------------------------------------------------------------


class NoSpans:
    """Span factory of an untraced session."""

    def span(self, name: str):
        return nullcontext()


@dataclass
class Outcome:
    """What one repetition of a session produced."""

    results: dict  # phase name -> ExploreResult / FoldResult / analysis
    configs: int  # configurations (or folded states) stored, summed


def _philo_session(backend: str, jobs: int):
    def session(program, rec, observers=()) -> Outcome:
        from repro.explore import ExpandCache, ExploreOptions, explore

        opts = ExploreOptions(
            policy="stubborn", coarsen=True, backend=backend, jobs=jobs
        )
        results = {}
        for phase, o in (("bfs", opts), ("sleep", replace(opts, sleep=True))):
            cache = ExpandCache() if backend == "serial" else None
            with rec.span(f"explore.explorer.{phase}"):
                results[phase] = explore(
                    program, options=o, expand_cache=cache, observers=observers
                )
        configs = sum(r.stats.num_configs for r in results.values())
        return Outcome(results, configs)

    return session


def _heap_session(program, rec, observers=()) -> Outcome:
    from repro.analyses.dependence import dependences
    from repro.analyses.lifetime import lifetimes
    from repro.analyses.races import races
    from repro.analyses.sideeffects import side_effects
    from repro.explore import ExpandCache, explore

    with rec.span("explore.explorer.bfs"):
        result = explore(
            program, "full", expand_cache=ExpandCache(), observers=observers
        )
    results = {"bfs": result}
    for name, fn in (
        ("sideeffects", side_effects),
        ("dependence", dependences),
        ("lifetime", lifetimes),
        ("races", races),
    ):
        with rec.span(f"analyses.{name}"):
            results[name] = fn(program, result)
    return Outcome(results, result.stats.num_configs)


def fold_options():
    from repro.absdomain.absvalue import AbsValueDomain
    from repro.absdomain.flat import FlatConstDomain
    from repro.abstraction.absstep import AbsOptions

    return AbsOptions(dom=AbsValueDomain(FlatConstDomain()))


def _fold_session(program, rec, observers=()) -> Outcome:
    from repro.abstraction.folding import fold_explore, taylor_key

    with rec.span("abstraction.fold"):
        folded = fold_explore(program, fold_options(), key_fn=taylor_key)
    return Outcome({"fold": folded}, folded.stats.num_states)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


def _explore_faults(name: str, result) -> list[str]:
    s = result.stats
    out = []
    if s.truncated:
        out.append(f"{name}: truncated ({s.truncation_reason})")
    for field in ("selector_faults", "engine_faults", "degraded_observers"):
        if getattr(s, field):
            out.append(f"{name}: {field}={getattr(s, field)}")
    return out


def _check_philo(program, outcome: Outcome, ref: dict) -> list[str]:
    from repro.bench import result_digest

    problems = []
    digests = {}
    for phase, r in outcome.results.items():
        problems += _explore_faults(phase, r)
        s = r.stats
        if (s.num_terminated, s.num_deadlocks, s.num_faults) != (1, 1, 0):
            problems.append(
                f"{phase}: terminated/deadlocks/faults = "
                f"{s.num_terminated}/{s.num_deadlocks}/{s.num_faults}, "
                "expected 1/1/0"
            )
        if r.terminal_globals() != {(0,) * PHILOSOPHERS}:
            problems.append(f"{phase}: a fork is still held at termination")
        digests[phase] = result_digest(r)
    digests.update(ref)
    if len(set(digests.values())) != 1:
        problems.append(f"result digests differ: {digests}")
    return problems


def _philo_reference(program) -> dict:
    """Serial sleep-set digest, the cross-backend reference for the
    parallel workload (computed outside the timed region)."""
    from repro.bench import result_digest
    from repro.explore import explore

    return {
        "serial-sleep": result_digest(
            explore(program, "stubborn", coarsen=True, sleep=True)
        )
    }


def _heap_reference(program) -> dict:
    """A cheap stubborn run of the same program: the full run must reach
    the same result configurations (the paper's theorem)."""
    from repro.bench import result_digest
    from repro.explore import explore

    return {"stubborn": result_digest(explore(program, "stubborn"))}


def _check_heap(program, outcome: Outcome, ref: dict) -> list[str]:
    from repro.bench import result_digest

    r = outcome.results["bfs"]
    problems = _explore_faults("full", r)
    s = r.stats
    if s.num_deadlocks or s.num_faults or not s.num_terminated:
        problems.append(
            f"full: terminated/deadlocks/faults = "
            f"{s.num_terminated}/{s.num_deadlocks}/{s.num_faults}"
        )
    out = r.global_values("out")
    if out != {(HEAP_THREADS * HEAP_STEPS,)}:
        problems.append(f"final out = {sorted(out)}, expected {HEAP_THREADS * HEAP_STEPS}")
    digest = result_digest(r)
    if digest != ref["stubborn"]:
        problems.append(f"full digest {digest} != stubborn digest {ref['stubborn']}")
    # each thread publishes into the shared ``out``: the publishes race
    # pairwise, and nothing else is shared
    pubs = {frozenset((f"pub{a}", f"pub{b}")) for a in range(HEAP_THREADS)
            for b in range(a + 1, HEAP_THREADS)}
    found = {race.pair() for race in outcome.results["races"]}
    if found != pubs:
        problems.append(f"races {sorted(map(sorted, found))} != the publish pairs")
    return problems


def _check_fold(program, outcome: Outcome, ref: dict) -> list[str]:
    folded = outcome.results["fold"]
    problems = []
    st = folded.stats
    if (st.num_states, st.num_edges) != (FOLD_STATES, FOLD_EDGES):
        problems.append(
            f"folded states/edges = {st.num_states}/{st.num_edges}, "
            f"expected {FOLD_STATES}/{FOLD_EDGES}"
        )
    idx = program.global_index("total")
    num = folded.options.dom.num
    totals = {num.value_of(t.aglobals[idx][0]) for t in folded.terminal_states()}
    expected = TASKS * sum(range(1, TASK_STEPS + 1))
    if totals != {expected}:
        problems.append(f"final total = {totals}, expected {{{expected}}}")
    return problems


# ---------------------------------------------------------------------------
# registry (why each workload exists: README.md and BENCHMARK.json)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    #: seed -> compiled program (timed as ``lang.parse``)
    build: Callable[[int], object]
    session: Callable[..., Outcome]
    check: Callable[..., list]
    #: outside-the-timed-region reference the verdict compares against
    reference: Callable[..., dict] = lambda program: {}
    #: worker processes the session starts (for peak memory)
    workers: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "philo_serial",
            seeded(philosophers_source, rotate),
            _philo_session("serial", 1),
            _check_philo,
        ),
        Workload(
            "philo_parallel",
            seeded(philosophers_source, rotate),
            _philo_session("parallel", 2),
            _check_philo,
            reference=_philo_reference,
            workers=2,
        ),
        Workload(
            "heap_full",
            seeded(pointer_heavy_source),
            _heap_session,
            _check_heap,
            reference=_heap_reference,
        ),
        Workload(
            "fold_tasks",
            identical_tasks,
            _fold_session,
            _check_fold,
        ),
    )
}
