"""Configuration structure tests: hashing, canonicity, GC."""

import pickle
from dataclasses import replace

from repro.analyses.accesses import access_analysis
from repro.explore import ExpandCache, ExploreOptions
from repro.explore.memo import expand_memoized
from repro.lang import parse_program
from repro.semantics import (
    Config,
    Frame,
    HeapObj,
    Pointer,
    Process,
    collect_garbage,
    initial_config,
)
from repro.semantics.config import clear_intern_caches, stable_digest


def _mk(heap=(), globals_=(0,)):
    root = Process(pid=(0,), frames=(Frame(func="main", pc=0, locals=()),))
    return Config(procs=(root,), globals=tuple(globals_), heap=tuple(heap))


def test_equal_configs_hash_equal():
    a = _mk()
    b = _mk()
    assert a == b and hash(a) == hash(b)


def test_configs_differ_on_globals():
    assert _mk(globals_=(0,)) != _mk(globals_=(1,))


def test_configs_differ_on_fault():
    a = _mk()
    b = Config(procs=a.procs, globals=a.globals, heap=a.heap, fault="boom")
    assert a != b


def test_initial_config_shape():
    prog = parse_program("var g = 3; func main() { var t = 0; g = t; }")
    cfg = initial_config(prog)
    assert cfg.globals == (3,)
    assert cfg.procs[0].pid == (0,)
    assert cfg.procs[0].top.locals == (0,)


def test_fresh_oid_skips_used():
    heap = (HeapObj(oid=("s", 0), cells=(0,)), HeapObj(oid=("s", 2), cells=(0,)))
    cfg = _mk(heap=heap)
    assert cfg.fresh_oid("s") == ("s", 1)
    assert cfg.fresh_oid("other") == ("other", 0)


def test_gc_empty_heap_returns_the_config_itself():
    # nothing to collect: no walk over the globals and frames, no copy
    cfg = _mk(globals_=(0, 1))
    assert collect_garbage(cfg) is cfg


def test_gc_keeps_reachable_from_global():
    obj = HeapObj(oid=("s", 0), cells=(5,))
    cfg = _mk(heap=(obj,), globals_=(Pointer(("s", 0), 0),))
    assert collect_garbage(cfg).heap == (obj,)


def test_gc_drops_unreachable():
    obj = HeapObj(oid=("s", 0), cells=(5,))
    cfg = _mk(heap=(obj,), globals_=(0,))
    assert collect_garbage(cfg).heap == ()


def test_gc_follows_pointer_chains():
    a = HeapObj(oid=("a", 0), cells=(Pointer(("b", 0), 0),))
    b = HeapObj(oid=("b", 0), cells=(7,))
    cfg = _mk(heap=(a, b), globals_=(Pointer(("a", 0), 0),))
    assert len(collect_garbage(cfg).heap) == 2


def test_gc_keeps_locals_roots():
    obj = HeapObj(oid=("s", 0), cells=(1,))
    root = Process(
        pid=(0,),
        frames=(Frame(func="main", pc=0, locals=(Pointer(("s", 0), 0),)),),
    )
    cfg = Config(procs=(root,), globals=(0,), heap=(obj,))
    assert collect_garbage(cfg).heap == (obj,)


def test_result_store_excludes_process_state():
    # two configs with different pcs but same store have the same result
    p0 = Process(pid=(0,), frames=(Frame(func="main", pc=0, locals=()),))
    p1 = Process(pid=(0,), frames=(Frame(func="main", pc=1, locals=()),))
    a = Config(procs=(p0,), globals=(1,), heap=())
    b = Config(procs=(p1,), globals=(1,), heap=())
    assert a.result_store() == b.result_store()


def test_is_terminated():
    done = Process(pid=(0,), frames=(), status="done")
    cfg = Config(procs=(done,), globals=(), heap=())
    assert cfg.is_terminated and cfg.is_terminal


# -- lazy, per-component hash caches ----------------------------------------

def _hashed(value):
    """*value* with its hash cache filled."""
    hash(value)
    return value


def test_replace_never_copies_a_cached_hash():
    proc = _hashed(Process(pid=(0,), frames=(Frame(func="main", pc=0, locals=()),)))
    moved = replace(proc, status="done")
    assert moved._hash is None
    assert hash(moved) == hash(
        Process(
            pid=(0,), frames=(Frame(func="main", pc=0, locals=()),), status="done"
        )
    )
    obj = _hashed(HeapObj(oid=("s", 0), cells=(1,)))
    assert hash(replace(obj, cells=(2,))) == hash(HeapObj(oid=("s", 0), cells=(2,)))
    cfg = _hashed(_mk(heap=(obj,)))
    stable_digest(cfg)
    cfg.proc((0,))
    changed = replace(cfg, globals=(7,))
    fresh = _mk(heap=(obj,), globals_=(7,))
    assert changed._hash is None and changed._digest is None
    assert changed._proc_index is None and changed._heap_index is None
    assert hash(changed) == hash(fresh)
    assert stable_digest(changed) == stable_digest(fresh)


def test_pickle_never_ships_the_salted_hash():
    """A planted bogus cache value must not survive a pickle round trip:
    the receiver recomputes the hash of its own (fresh) object."""
    bogus = 0x5EED_F00D_5EED
    obj = HeapObj(oid=("s", 0), cells=(1,))
    cfg = _mk(heap=(obj,))
    clear_intern_caches()
    try:
        for value in (cfg, obj, cfg.procs[0]):
            genuine = hash(value)
            object.__setattr__(value, "_hash", bogus)
            assert bogus not in value.__reduce__()[1]
            data = pickle.dumps(value)
            clear_intern_caches()
            loaded = pickle.loads(data)
            assert loaded is not value and loaded == value
            assert hash(loaded) == genuine != bogus
    finally:
        clear_intern_caches()


def test_config_is_hashed_only_when_it_enters_a_dict():
    prog = parse_program(
        "var g = 0; func main() { cobegin { g = 1; } { g = 2; } }"
    )
    access = access_analysis(prog)
    opts = ExploreOptions()
    cache = ExpandCache()
    config = initial_config(prog)
    assert config._hash is None
    # the cobegin step (a memo miss), then per branch a miss and a
    # replayed hit (the joining root is a disabled miss, then a hit)
    (fork,) = expand_memoized(prog, config, access, opts, cache)
    config = fork.succ
    succs = [
        e.succ
        for _ in range(2)
        for e in expand_memoized(prog, config, access, opts, cache)
        if e.enabled
    ]
    assert cache.hits == 3 and len(succs) == 4
    assert all(s._hash is None for s in succs)
    seen = {s: None for s in succs}
    assert len(seen) == 2
    for s in succs:
        assert s._hash == hash((s.procs, s.globals, s.heap, s.fault))
