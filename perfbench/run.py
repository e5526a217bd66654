"""Scale-tier benchmark of the ``repro`` engine.

Usage (from the repository root)::

    python3 perfbench/run.py --workload philo_serial --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 0

Every run is a fresh interpreter (``session.py``) that the parent kills
at a deadline.  With ``--trace 0`` the parent starts the host-speed
sampler (``hostspeed.py``) beside a few set-up-only runs and one
measuring run, which repeats the workload until ``--seconds`` have
passed.  Each set-up and each repetition is divided by the host factor
of its own interval; the end-to-end metrics are medians over set-ups
and repetitions (``wall_s`` and ``cpu_s``: the fastest raw
repetition).  With ``--trace 1`` it starts two traced runs and reports
the per-layer metrics; the deterministic ones must repeat exactly.

Human-readable lines go first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The raw
samples, host description and (traced) spans are written under
``perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
RESULTS = HERE / "results"

sys.path.insert(0, str(HERE))
import hostspeed  # noqa: E402
import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: set-up-only runs before the measuring run (more ``setup_s`` samples)
PROBES = 4
#: traced runs (two, so deterministic counters can be compared)
TRACED_RUNS = 2
#: one run is killed after this long
RUN_LIMIT_S = 120.0
#: the whole invocation stays below this (it must end within 180 s)
TOTAL_LIMIT_S = 170.0


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("msg_bytes"):
        return "B"
    if name.endswith("bytes_per_config"):
        return "B/config"
    if name.endswith(("_ratio", "_rate", "_mean", "_j2", "balance", "coverage", "share", "overhead", "factor")):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def _wait_group_gone(pgid: int, timeout: float) -> bool:
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.02)
    return False


def launch(
    workload: str, seed: int, mode: str, deadline: float, *, until: float = 0.0,
    spans_out=None, sampler=None,
) -> dict:
    """Start one run in a fresh interpreter and its own process group;
    kill the whole group at *deadline*.  The host-speed *sampler*, if
    any, is told to follow the run.  Returns the run's record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    t0 = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "session.py"), "--workload", workload,
        "--seed", str(seed), "--mode", mode, "--t0", repr(t0), "--until", repr(until),
    ]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    if sampler is not None:
        try:
            sampler.stdin.write(f"{proc.pid}\n")
            sampler.stdin.flush()
        except OSError:
            pass  # a sampler that died leaves no samples: a problem
    killed = False
    try:
        out, err = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        killed = True
        # SIGINT first: the engine then unlinks its shared-memory segments
        os.killpg(proc.pid, signal.SIGINT)
        try:
            out, err = proc.communicate(timeout=5.0)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
    # anything the run left in its group (workers, a resource tracker)
    if not _wait_group_gone(proc.pid, 3.0):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        _wait_group_gone(proc.pid, 5.0)
    record = {
        "mode": mode, "t0": t0, "elapsed_s": time.monotonic() - t0, "exit": proc.returncode,
    }
    lines = out.strip().splitlines()
    try:
        record.update(json.loads(lines[-1]))
    except (IndexError, ValueError):
        record["problems"] = []
    if killed:
        record["problems"].append("killed at its deadline")
    elif proc.returncode != 0 or "setup_s" not in record:
        record["problems"].append(f"run crashed (exit {proc.returncode})")
    if record["problems"]:
        record["stderr_tail"] = err[-4000:]
    reps = record.get("reps", [])
    if len({r["configs"] for r in reps}) > 1:
        record["problems"].append("configs differ between repetitions")
    return record


def measure(
    workload: str, seed: int, seconds: float, start: float, sampler
) -> list[dict]:
    """Set-up probes, then one measuring run that repeats the workload
    until *seconds* after *start*."""
    hard = start + TOTAL_LIMIT_S
    runs = []
    for mode in ["probe"] * PROBES + ["measure"]:
        runs.append(
            launch(
                workload, seed, mode, min(time.monotonic() + RUN_LIMIT_S, hard),
                until=start + seconds, sampler=sampler,
            )
        )
    return runs


def start_sampler() -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(HERE / "hostspeed.py")], cwd=ROOT,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )


def stop_sampler(proc: subprocess.Popen) -> list:
    """Close the sampler's input, and return its samples."""
    try:
        out, _ = proc.communicate(input="", timeout=10.0)
        return json.loads(out)
    except (subprocess.TimeoutExpired, ValueError):
        return []
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def normalize(runs: list[dict], samples: list) -> None:
    """Divide each set-up and each repetition by the host factor of its
    own interval."""
    for r in runs:
        if "setup_end" in r:
            f = hostspeed.factor(samples, r["t0"], r["setup_end"])
            r["setup_factor"] = f
            r["setup_ref_s"] = r["setup_s"] / f
        for x in r.get("reps", ()):
            f = hostspeed.factor(samples, x["start"], x["end"])
            x["host_factor"] = f
            x["wall_ref_s"] = x["wall_s"] / f
            x["cpu_ref_s"] = x["cpu_s"] / f


def trace(workload: str, seed: int, start: float, stamp: str) -> list[dict]:
    hard = start + TOTAL_LIMIT_S
    runs = []
    for k in range(TRACED_RUNS):
        spans = RESULTS / f"{stamp}-spans{k}.json.gz"
        run = launch(
            workload, seed, "trace", min(time.monotonic() + RUN_LIMIT_S, hard),
            spans_out=spans,
        )
        run["spans_file"] = str(spans.relative_to(ROOT))
        runs.append(run)
    return runs


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(runs: list[dict]) -> dict[str, tuple[float, int]]:
    """metric -> (median, sample count)."""
    measured = [r for r in runs if r.get("reps")]
    good = [r for r in measured if not r["problems"]] or measured
    reps = [x for r in good for x in r["reps"]]
    fastest = [min(r["reps"], key=lambda x: x["wall_s"]) for r in good]
    failed = sum(1 for r in runs if r["problems"])

    def med(values):
        values = list(values)
        return (statistics.median(values), len(values)) if values else (0.0, 0)

    return {
        "setup_s": med(r["setup_ref_s"] for r in runs if "setup_ref_s" in r),
        "setup_wall_s": med(r["setup_s"] for r in runs if "setup_s" in r),
        # normalized times are no longer skewed by host noise that only
        # adds time, so the median repetition is the steadier figure
        "cpu_ref_s": med(x["cpu_ref_s"] for x in reps if "cpu_ref_s" in x),
        "wall_ref_s": med(x["wall_ref_s"] for x in reps if "wall_ref_s" in x),
        "wall_s": med(f["wall_s"] for f in fastest),
        "cpu_s": med(f["cpu_s"] for f in fastest),
        "host_factor": med(x["host_factor"] for x in reps if "host_factor" in x),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in good),
        "configs": med(f["configs"] for f in fastest),
        "ok_ratio": ((len(runs) - failed) / len(runs), len(runs)),
    }


def per_layer(workload: str, runs: list[dict]) -> tuple[dict[str, tuple[float, int]], list[str]]:
    """metric -> (median over traced runs, count), plus the repeat-check
    failures of deterministic metrics."""
    tables = [r["layers"] for r in runs if "layers" in r]
    if not tables:
        return {}, ["no traced run produced per-layer metrics"]
    parallel = WORKLOADS[workload].workers > 0
    problems = []
    out = {}
    for name in tables[0]:
        values = [t[name] for t in tables]
        out[name] = (statistics.median(values), len(values))
        if layers.deterministic(name, parallel) and len(set(values)) > 1:
            problems.append(f"{name} did not repeat: {values}")
    return out, problems


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git
    (absent when the checkout is not a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": sys.version,
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    start = time.monotonic()
    stamp = f"{workload}-seed{seed}-trace{int(traced)}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    RESULTS.mkdir(exist_ok=True)
    samples = None
    if traced:
        runs = trace(workload, seed, start, stamp)
        table, repeat_problems = per_layer(workload, runs)
    else:
        sampler = start_sampler()
        try:
            runs = measure(workload, seed, seconds, start, sampler)
        finally:
            samples = stop_sampler(sampler)
        if samples:
            normalize(runs, samples)
        else:
            for r in runs:
                r["problems"].append("the host-speed sampler recorded nothing")
        table, repeat_problems = end_to_end(runs), []
    failed = sum(1 for r in runs if r["problems"])
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "host": host(),
        "attempted": len(runs),
        "failed": failed,
        "correct": failed == 0 and not repeat_problems,
        "problems": repeat_problems + [p for r in runs for p in r["problems"]],
        "metrics": {k: {"value": v, "samples": n} for k, (v, n) in table.items()},
        "runs": runs,
        # (time.monotonic(), dicts and reads probe seconds, cpu) per tick
        "host_speed_samples": samples,
    }
    path = RESULTS / f"{stamp}.json"
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
    result["record"] = str(path.relative_to(ROOT))
    return result


def untraced_wall(result: dict) -> float:
    """Median wall time of the traced runs' untraced repetitions."""
    return statistics.median(r["reps"][0]["wall_s"] for r in result["runs"] if r.get("reps"))


def print_result(result: dict, units: dict[str, str]) -> None:
    print(
        f"workload={result['workload']} seed={result['seed']} "
        f"trace={result['trace']} runs={result['attempted']} "
        f"failed={result['failed']} correct={result['correct']}"
    )
    for name, m in result["metrics"].items():
        unit = units.get(name) or unit_of(name)
        print(f"  {name:42s} {m['value']:>16.6g} {unit:9s} (median of {m['samples']})")
    for p in result["problems"]:
        print(f"  PROBLEM: {p}")
    print(f"  raw record: {result['record']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="repro scale-tier benchmark")
    ap.add_argument("--workload", required=True, help="a workload name or 'all'")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no engine source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    bench = spec()
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    listed = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}

    results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    for result in results:
        print_result(result, units)
    by_name = {r["workload"]: r for r in results}
    if {"philo_serial", "philo_parallel"} <= by_name.keys():
        # measured two-worker speedup beside the graph's ceiling
        serial, par = by_name["philo_serial"], by_name["philo_parallel"]
        if args.trace:
            ratio = untraced_wall(serial) / untraced_wall(par)
            ideal = serial["metrics"]["explore.graph.ideal_speedup_j2"]["value"]
            print(
                f"philo_serial/philo_parallel untraced wall_s: {ratio:.3f} "
                f"(ideal_speedup_j2 {ideal:.3f})"
            )
        else:
            ratio = (
                serial["metrics"]["wall_ref_s"]["value"]
                / par["metrics"]["wall_ref_s"]["value"]
            )
            print(f"philo_serial/philo_parallel wall_ref_s: {ratio:.3f}")
    final = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {},
    }
    if len(results) == 1:
        got = results[0]["metrics"]
        final["metrics"] = {
            m["name"]: {
                "value": got.get(m["name"], {"value": 0.0})["value"],
                "unit": m["unit"],
            }
            for m in listed
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
