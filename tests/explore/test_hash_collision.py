"""Hash-collision regression suite (satellite of the parallel backend).

``Config._hash`` is a salted, per-process value used for dict probing —
nothing in the engine may treat hash equality as identity.  These tests
*force* two structurally distinct configurations to collide on
``_hash`` and assert that every dedup surface (ConfigGraph interning,
visited-dict semantics, the structural intern caches, shard routing)
keeps them apart.  A driver that ever keys on ``hash(config)`` alone
would conflate them and fail here.
"""

from __future__ import annotations

import pytest

from repro.explore.graph import ConfigGraph
from repro.semantics import Config, Frame, Process
from repro.semantics.config import (
    clear_intern_caches,
    intern_config,
    shard_of,
    stable_digest,
)


def _mk(globals_):
    root = Process(pid=(0,), frames=(Frame(func="main", pc=0, locals=()),))
    return Config(procs=(root,), globals=tuple(globals_), heap=())


@pytest.fixture
def colliding_pair():
    """Two distinct configurations with identical ``_hash``."""
    a, b = _mk((0,)), _mk((1,))
    # hashes are lazy: hash(a) fills a's cache, b gets the same value
    object.__setattr__(b, "_hash", hash(a))
    assert hash(a) == hash(b) and a != b
    return a, b


def test_graph_interning_not_fooled(colliding_pair):
    a, b = colliding_pair
    g = ConfigGraph()
    ida, fresh_a = g.add_config(a)
    idb, fresh_b = g.add_config(b)
    assert fresh_a and fresh_b
    assert ida != idb
    assert g.num_configs == 2
    # re-adding either one still dedups correctly
    assert g.add_config(a) == (ida, False)
    assert g.add_config(b) == (idb, False)


def test_visited_dict_semantics(colliding_pair):
    """Both drivers key visited sets by the Config itself; a collision
    lands both in one bucket but equality keeps the entries apart."""
    a, b = colliding_pair
    visited = {a: 0}
    assert b not in visited
    visited[b] = 1
    assert len(visited) == 2 and visited[a] == 0 and visited[b] == 1


def test_intern_caches_not_fooled(colliding_pair):
    a, b = colliding_pair
    clear_intern_caches()
    try:
        ia, ib = intern_config(a), intern_config(b)
        assert ia is not ib and ia != ib
        # identity only for *equal* configs
        assert intern_config(_mk((0,))) is ia
    finally:
        clear_intern_caches()


def test_shard_routing_ignores_salted_hash(colliding_pair):
    """Routing uses the structural stable digest, so a forced ``_hash``
    collision cannot move a configuration to the wrong shard — and even
    a genuine digest collision only co-locates (dedup stays structural)."""
    a, b = colliding_pair
    assert stable_digest(a) == stable_digest(_mk((0,)))
    assert stable_digest(b) == stable_digest(_mk((1,)))
    for nshards in (1, 2, 4):
        assert shard_of(a, nshards) == shard_of(_mk((0,)), nshards)
        assert shard_of(b, nshards) == shard_of(_mk((1,)), nshards)
