"""One benchmark run: a fresh interpreter that sets up, repeats one
workload's session, checks every result, and prints one JSON line.

Started by ``run.py``; not meant to be run by hand, but it can be::

    PYTHONPATH=src python3 perfbench/session.py --workload philo_serial \
        --seed 1 --mode measure --t0 0 --until 0

Modes:

``probe``
    set up and stop (extra ``setup_s`` samples);
``measure``
    set up, then untraced repetitions until ``--until``, each with its
    ``time.monotonic()`` interval, so ``run.py`` can divide it by the
    host factor of that interval (``hostspeed.py``);
``trace``
    set up, one untraced repetition, then one repetition with the layer
    wrappers of ``layers.py`` and a ``MetricsObserver`` attached.

``setup_s`` runs from ``--t0`` (the parent's ``time.monotonic()`` just
before it started this interpreter; the clock is system-wide) to the
end of set-up, just before the first exploration call; ``setup_end``
is that end.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import resource
import sys
import time

import layers
from workloads import WORKLOADS, NoSpans

#: repetitions a measuring run makes even when --until has passed
MIN_REPS = 2


def cpu_times() -> tuple[float, float]:
    """(this process, its reaped children) user+sys CPU seconds."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime


def peak_rss_mb(workers: int) -> float:
    """Peak resident memory of this process plus its workers.  The
    kernel reports only the largest reaped child's peak, so each worker
    is charged that peak."""
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (me + workers * kids) / 1024.0  # ru_maxrss is KiB on Linux


def setup(workload, seed: int, rec):
    """Import the package, build the program, run the access analysis
    (``access_analysis`` is cached per program, so exploration reuses
    it)."""
    import repro  # noqa: F401
    import repro.abstraction.folding  # noqa: F401
    import repro.analyses.dependence  # noqa: F401
    import repro.analyses.lifetime  # noqa: F401
    import repro.analyses.races  # noqa: F401
    import repro.analyses.sideeffects  # noqa: F401
    from repro.analyses.accesses import access_analysis

    with rec.span("lang.parse"):
        program = workload.build(seed)
    with rec.span("analyses.accesses.build"):
        access_analysis(program)
    return program


def repetition(workload, program, rec, observers=()):
    """One timed repetition from clean caches: (outcome, sample).  The
    sample holds the repetition's ``time.monotonic()`` interval, its
    wall seconds and the CPU seconds of this process and its reaped
    children (the parallel workers)."""
    from repro.semantics.config import clear_intern_caches

    clear_intern_caches()
    gc.collect()
    c0, k0 = cpu_times()
    start = time.monotonic()
    t0 = time.perf_counter()
    with rec.span("session"):
        outcome = workload.session(program, rec, observers)
    wall = time.perf_counter() - t0
    end = time.monotonic()
    c1, k1 = cpu_times()
    return outcome, {
        "start": start,
        "end": end,
        "wall_s": wall,
        "cpu_s": (c1 - c0) + (k1 - k0),
        "master_cpu_s": c1 - c0,
        "workers_cpu_s": k1 - k0,
        "configs": outcome.configs,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("probe", "measure", "trace"))
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument(
        "--until", type=float, default=0.0,
        help="measure: time.monotonic() by which the repetitions end",
    )
    ap.add_argument("--spans-out", help="trace mode: gzip JSON span dump")
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]
    out: dict = {"problems": []}
    rec = layers.Recorder() if args.mode == "trace" else NoSpans()

    program = setup(w, args.seed, rec)
    out["setup_end"] = time.monotonic()
    out["setup_s"] = out["setup_end"] - args.t0
    if args.mode == "probe":
        print(json.dumps(out))
        return 0

    ref = w.reference(program)
    reps = []
    # measure: repeat while the next repetition (predicted to last as
    # long as the last one) ends before --until, but at least MIN_REPS
    # times; trace: one untraced repetition, the overhead baseline
    while not reps or (
        args.mode == "measure"
        and (len(reps) < MIN_REPS or time.monotonic() + reps[-1]["wall_s"] <= args.until)
    ):
        outcome, sample = repetition(w, program, NoSpans())
        reps.append(sample)
        out["problems"] += w.check(program, outcome, ref)
        del outcome
    out["reps"] = reps
    out["peak_rss_mb"] = peak_rss_mb(w.workers)
    if args.mode == "measure":
        print(json.dumps(out))
        return 0

    from repro.metrics import MetricsObserver
    from repro.semantics.config import digest_stats, intern_table_sizes

    mo = MetricsObserver()
    layers.install(rec)
    d0 = digest_stats()
    outcome, traced = repetition(w, program, rec, observers=(mo,))
    d1 = digest_stats()
    sizes = intern_table_sizes()
    rec.uninstall()
    out["problems"] += w.check(program, outcome, ref)
    m = layers.collect(
        rec, program, outcome.results, mo.registry,
        digest_delta={k: d1[k] - d0[k] for k in d0},
        intern_sizes=sizes, master_cpu_s=traced["master_cpu_s"],
        workers_cpu_s=traced["workers_cpu_s"],
    )
    m["trace.overhead"] = traced["wall_s"] / min(r["wall_s"] for r in reps)
    out["layers"] = m
    out["problems"] += [
        f"prediction failed: {p}" for p in layers.check_predictions(w.name, m)
    ]
    if args.spans_out:
        with gzip.open(args.spans_out, "wt") as fh:
            json.dump(rec.dump(), fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
