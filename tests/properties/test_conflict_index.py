"""Differential oracle for Algorithm 1's static conflict index.

:class:`AlgorithmOneSelector` answers the D2 rule (dependents of an
enabled transition) and the guard branch of D1 (writers of a disabled
guard's locations) by intersecting cached instruction universes with a
per-location conflict index.  :class:`ScanSelector` below keeps the
brute-force form of the same rules as a reference: it rebuilds every
universe and tests every instruction of every other process against
every dynamic location with :func:`repro.analyses.accesses.matches`.

Over the corpus, hand-written pointer programs (``&g`` dereferences,
which statically touch *any* global, and heap allocation sites) and the
seeded random-program generator, the two must agree at every reachable
configuration: the same chosen pids from ``select`` and, for every
enabled seed, the same closure — chosen pids and ``len(S)``.  A second
walk with the same selector checks its per-run conflict and meet tables
once warm.
"""

from __future__ import annotations

import pytest

from repro.analyses.accesses import ANY_GLOBAL, access_analysis, matches
from repro.explore.algorithm1 import AlgorithmOneSelector
from repro.explore.explorer import ExploreOptions, _expand
from repro.lang import parse_program
from repro.programs.corpus import corpus_programs
from repro.programs.synthetic import pointer_heavy, random_program
from repro.semantics import initial_config
from repro.semantics.config import JOINING

#: configurations walked per program and expansion granularity
MAX_CONFIGS = 150


class ScanSelector(AlgorithmOneSelector):
    """Reference selector: per-step scans, no index, no universe cache."""

    def _universe(self, proc):
        return self._build_universe(proc)

    def _add_dependents(self, exp, by_pid, universes, add):
        for other, uni in universes.items():
            if other == exp.pid:
                continue
            for f2, pc2 in uni:
                g = self.access.gen_at(f2, pc2)
                if any(
                    matches(g.reads, w) or matches(g.writes, w) for w in exp.writes
                ) or any(matches(g.writes, r) for r in exp.reads):
                    add((other, f2, pc2))

    def _add_guard_enablers(self, exp, by_pid, universes, add):
        if exp.proc.status == JOINING or exp.blocked_children:
            return super()._add_guard_enablers(exp, by_pid, universes, add)
        for other, uni in universes.items():
            if other == exp.pid:
                continue
            for f2, pc2 in uni:
                g = self.access.gen_at(f2, pc2)
                if any(matches(g.writes, loc) for loc in exp.nes):
                    add((other, f2, pc2))


def closures(sel, exps):
    """(seed pid, chosen pids, len(S)) for every enabled seed."""
    by_pid = {e.pid: e for e in exps}
    universes = {e.pid: sel._universe(e.proc) for e in exps}
    cur = {e.pid: (e.proc.top.func, e.proc.top.pc) for e in exps}
    out = []
    for seed in exps:
        if seed.enabled:
            chosen, size = sel._closure(seed, by_pid, universes, cur)
            out.append((seed.pid, [e.pid for e in chosen], size))
    return out


def check_program(
    prog, coarsen: bool, indexed: AlgorithmOneSelector | None = None
) -> tuple[int, AlgorithmOneSelector]:
    """Walk up to MAX_CONFIGS configurations of the full interleaving
    space and compare both selectors at each; returns the number of
    configurations with a real choice and the indexed selector.  Pass a
    selector from an earlier walk as *indexed* to check its warm tables."""
    access = access_analysis(prog) if indexed is None else indexed.access
    opts = ExploreOptions(coarsen=coarsen)
    if indexed is None:
        indexed = AlgorithmOneSelector(prog, access)
    scan = ScanSelector(prog, access)
    start = initial_config(prog)
    seen = {start}
    frontier = [start]
    compared = 0
    while frontier and len(seen) < MAX_CONFIGS:
        config = frontier.pop(0)
        exps = _expand(prog, config, access, opts)
        if sum(e.enabled for e in exps) > 1:
            compared += 1
            assert [e.pid for e in indexed.select(exps)] == [
                e.pid for e in scan.select(exps)
            ]
            assert closures(indexed, exps) == closures(scan, exps)
        for e in exps:
            if e.enabled and e.succ not in seen:
                seen.add(e.succ)
                frontier.append(e.succ)
    return compared, indexed


ADDRESS_OF = """
var g = 0; var h = 0; var p = 0; var q = 0; var r = 0;
func main() {
    p = &g;
    q = &h;
    cobegin { a1: *p = 1; a2: r = *q; }
            { b1: g = 2; b2: assume(h == 0); }
            { c1: h = *p + 1; c2: r = 3; }
}
"""

HEAP_AND_GLOBALS = """
var g = 0; var p = 0; var q = 0;
func main() {
    p = malloc(2);
    q = &g;
    cobegin { a1: *p = 1; a2: *q = *p; }
            { b1: g = *p; b2: assume(g == 1); }
}
"""


@pytest.mark.parametrize("coarsen", [False, True])
@pytest.mark.parametrize("name", [name for name, _ in corpus_programs()])
def test_corpus_matches_scan(name, coarsen):
    prog = dict(corpus_programs())[name]
    check_program(prog, coarsen)


@pytest.mark.parametrize("seed", range(50))
def test_random_programs_match_scan(seed):
    check_program(random_program(seed), coarsen=seed % 2 == 1)


@pytest.mark.parametrize("coarsen", [False, True])
def test_warm_tables_match_scan(coarsen):
    """Walk each program twice with one selector: on the second pass
    every answer comes from the conflict and meet tables filled by the
    first, and must still equal the scan's."""
    programs = [prog for _, prog in corpus_programs()]
    programs += [random_program(seed) for seed in range(0, 50, 5)]
    programs += [parse_program(ADDRESS_OF), pointer_heavy(2, 2)]
    for prog in programs:
        _, warm = check_program(prog, coarsen)
        filled = len(warm._step_conflicts), len(warm._meets)
        check_program(prog, coarsen, indexed=warm)
        assert (len(warm._step_conflicts), len(warm._meets)) == filled


def test_any_global_pointer_matches_scan():
    prog = parse_program(ADDRESS_OF)
    compared, sel = check_program(prog, coarsen=False)
    assert compared > 0
    access = access_analysis(prog)
    star_writer = next(pt for pt, label in prog.label_of_pc.items() if label == "a1")
    assert ANY_GLOBAL in access.gen_at(*star_writer).writes
    # the `*p = 1` write through `&g` conflicts with every global
    keys = [key for key, hits in sel._index.items() if star_writer in hits]
    assert {loc for (loc, _readers) in keys} >= {("g", 0), ("g", 1)}


@pytest.mark.parametrize("coarsen", [False, True])
def test_heap_sites_match_scan(coarsen):
    for prog in (parse_program(HEAP_AND_GLOBALS), pointer_heavy(2, 2)):
        compared, sel = check_program(prog, coarsen)
        assert compared > 0
        assert any(loc[0] == "site" and hits for (loc, _), hits in sel._index.items())
