"""Pinned observable streams of the exploration drivers.

Every other determinism test compares one run of a driver with another
run of the *same* code, so a change that reorders what a driver does
(while still producing the same graph) slips through them.  This suite
pins the complete observable stream of each driver path to a constant:

- the ordered observer callback log (``on_config``/``on_edge``/
  ``on_done``);
- the trace, recorded without wall-clock fields;
- the wall-stripped progress frames under a count-based cadence;
- the run's ``result_digest``.

Only process-independent parts (ints and strings) enter the digest, so
the constants hold under any ``PYTHONHASHSEED``.  A constant that
changes means the driver's observable behaviour changed: either the
change is a bug, or it is deliberate and the constant is re-pinned with
the reason in the commit message.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.bench import result_digest
from repro.explore import ExploreOptions, Observer, explore
from repro.programs.corpus import CORPUS
from repro.progress import ProgressEmitter
from repro.trace import TraceRecorder, canonical_lines
from repro.trace.tracer import encode_record, strip_wall


class _CallbackLog(Observer):
    def __init__(self) -> None:
        self.lines: list[str] = []

    def on_config(self, graph, cid, config, fresh, status) -> None:
        self.lines.append(f"config {cid} {int(fresh)} {status}")

    def on_edge(self, graph, src, dst, actions) -> None:
        labels = ",".join(a.label for a in actions)
        self.lines.append(f"edge {src} {dst} {labels}")

    def on_done(self, graph) -> None:
        self.lines.append("done")


def _stream_digest(opts: ExploreOptions) -> str:
    log = _CallbackLog()
    rec = TraceRecorder(capacity=None, record_wall=False)
    em = ProgressEmitter(every=7)
    result = explore(
        CORPUS["philosophers_3"](), options=opts, observers=(log, rec, em)
    )
    parts = (
        "\n".join(log.lines),
        canonical_lines(rec.records()),
        "\n".join(encode_record(strip_wall(f)) for f in em.frames),
        result_digest(result),
    )
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


_BASE = dict(policy="stubborn", coarsen=True)

CASES = {
    "bfs": (ExploreOptions(**_BASE), "b1346442ddb5c90d512bbb6121f11c17"),
    "bfs-truncated": (
        ExploreOptions(**_BASE, max_configs=40),
        "d1ad007a6a75ed72c3660ba6cbcb8f03",
    ),
    "sleep": (
        ExploreOptions(**_BASE, sleep=True),
        "8410296c295d955fb725266107745ab4",
    ),
    "sleep-truncated": (
        ExploreOptions(**_BASE, sleep=True, max_configs=40),
        "17c3354fd5ae721d9e8f76a6e35ba105",
    ),
    "sleep-parallel-j2": (
        ExploreOptions(**_BASE, sleep=True, backend="parallel", jobs=2),
        "7bef188efcd9051722b21dcc221e1c1f",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_driver_stream_is_pinned(case):
    opts, expected = CASES[case]
    assert _stream_digest(opts) == expected
