"""sunlab benchmark: one seeded workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload extract --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; sunlab is imported from ./src.
The last line of standard output is the result,
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}},
and the line before it is a report with the run record (Python, platform,
nproc, git rev, seed), sample counts and other details.

A workload is one cycle of ops whose inputs come from --seed: an op is one
extraction plus certificate check (extract) or one CLI job (the others).
The cycle is repeated, with fresh input objects, a fixed number of times:
--seconds over the workload's nominal cycle time `cycle_s` (the wall time
of one cycle on the reference machine, a 2-vCPU x86-64 VM running
CPython 3.11), and at least MIN_CYCLES.  The count depends on --seconds
alone, not on how fast the program runs, so every statistic below rests
on the same number of samples on every version of the program; a run
lasts about --seconds on the reference machine.  The first cycle's
outputs are checked; every later cycle must reproduce them byte for
byte.  An op that raises, exits with the wrong code, fails its check or
changes its output counts in `failed`.

Co-tenants on a small VM slow the whole machine by up to 1.7x for
seconds to minutes at a time, longer than a run, so raw timings of one
run and the next differ by more than any bound worth setting.  Every
timing is therefore normalised to the reference machine's calm speed:
at the start and end of a cycle, and between ops once PROBE_EVERY_S of
op time has passed since the last probe, the fastest of two runs of a
fixed probe (pure Python, no sunlab: a sort and a dict of sets) is
timed, and each op's time is multiplied by REFERENCE_PROBE_S over the
probe time, averaged over the probes just before and just after it.  The probe slows with the machine, so the
product stays close to the op's cost on a calm machine while a change in
the program passes through unchanged.  An op's latency is the median of
its normalised times over the cycles; the report carries the raw times.

--trace 0 measures the end-to-end metrics with the library untouched:
  setup_s      median of the workload's `setup_repeats` set-ups, each a
               fresh-interpreter import of sunlab compiled from source (no
               bytecode cache is read or written) plus building the inputs
               the program needs and a warm-up job, normalised by the mean
               of the probes taken just before and just after it
  ops_per_s    ops that passed their checks, per second of op latency
  op_p50_ms    median op latency; with 50 ops or more, the mean of the
               middle fifth of the ops, because extract's latencies cluster
               by extraction case with gaps between the clusters, and a
               bare median jumps across a gap when the input mix shifts by
               a per cent
  op_tail_ms   latency at the highest percentile with >= 10 ops beyond it,
               or the slowest op when there are fewer than 20 ops (the
               percentile and the count beyond it are in the report)
  peak_rss_mb  peak resident set size of the process

--trace 1 reports the per-layer metrics of tracer.LAYER_METRICS.  It sets
up once with the tracer installed, then alternates untraced and traced
cycles, half as many pairs as --trace 0 runs cycles and at least one.
Layer values cover the set-up plus one cycle of ops and their checks;
times are medians over the traced cycles.  Every traced op must
reproduce the untraced output, and the overhead is traced over untraced
op time.  Spans are written to
.perfbench_out/spans-<workload>-<seed>.json.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_CYCLES = 2
PROBE_EVERY_S = 0.2
# the fastest of many probes on the reference machine (2-vCPU x86-64 VM,
# CPython 3.11.7) when it is calm
REFERENCE_PROBE_S = 0.0077
TAIL_PERCENTILES = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


def tail(latencies: list):
    """(percentile, value, ops beyond) at the highest percentile with at
    least ten ops beyond it (nearest rank), else the slowest op."""
    xs = sorted(latencies)
    n = len(xs)
    for p in TAIL_PERCENTILES:
        rank = -(-n * p // 100)
        if n - rank >= 10:
            return p, xs[int(rank) - 1], n - int(rank)
    return 100.0, xs[-1], 0


def p50(latencies: list) -> float:
    """The median, or with 50 or more values the mean of those ranked
    between the 40th and 60th percentiles."""
    n = len(latencies)
    if n < 50:
        return statistics.median(latencies)
    return statistics.fmean(sorted(latencies)[n * 2 // 5:-(-n * 3 // 5)])


def git_rev():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def digest_of(digests: list) -> str:
    return hashlib.sha256("\n".join(map(str, digests)).encode()).hexdigest()


def probe() -> float:
    """Seconds for a fixed piece of pure-Python work that never calls
    sunlab, allocating and hashing like the library does."""
    t0 = time.perf_counter()
    xs = sorted([((i * 7919) % 10007, i) for i in range(20000)])
    groups = {}
    for a, b in xs[:8000]:
        groups.setdefault(a & 255, set()).add(b)
    return time.perf_counter() - t0


def speed() -> float:
    """Factor that turns a time measured now into reference-machine time."""
    return REFERENCE_PROBE_S / min(probe(), probe())


IMPORT_SCRIPT = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import sunlab; "
                "print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Time to import sunlab in a fresh interpreter that compiles it from
    source: -B writes no bytecode, and the cache prefix is an empty
    directory, so no bytecode left by an earlier run or a test run is read."""
    cache = OUT / "empty-pycache"
    shutil.rmtree(cache, ignore_errors=True)
    cache.mkdir()
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(cache))
    out = subprocess.run([sys.executable, "-B", "-c", IMPORT_SCRIPT, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=120,
                         env=env)
    return float(out.stdout)


def set_up(wl, seed, work):
    """The workload's set-ups, each a fresh-interpreter import of sunlab plus
    building the workload's inputs and its warm-up; returns the last state,
    the normalised set-up times and the raw ones."""
    times, raw = [], []
    after = speed()
    for _ in range(wl.setup_repeats):
        before = after
        t = import_seconds()
        t0 = time.perf_counter()
        state = wl.setup(seed, work)
        raw.append(t + time.perf_counter() - t0)
        after = speed()
        times.append(raw[-1] * (before + after) / 2)
    return state, times, raw


def run_cycle(wl, state, jobs, check, reference=None, tracer=None, label=""):
    """Run one cycle of ops.  After each op, off its clock, check its output
    (if `check`) and digest it (compared with `reference`, if given).
    Returns normalised latencies, raw latencies, digests and one ok flag
    per op.  With a tracer, each op and each check gets a span."""
    raw, dig, oks = [], [], []
    # speed factors; ops between probes b and b + 1 form block b
    probes, blocks, since_probe = [speed()], [], 0.0
    for i, job in enumerate(jobs):
        if since_probe >= PROBE_EVERY_S:
            probes.append(speed())
            since_probe = 0.0
        blocks.append(len(probes) - 1)
        if tracer is not None:
            tracer.op = f"{label}{i}"
            span = tracer.open_span("op")
        t0 = time.perf_counter()
        try:
            ran, res = True, wl.run(state, job)
        except Exception:
            traceback.print_exc()
            ran, res = False, None
        raw.append(time.perf_counter() - t0)
        since_probe += raw[-1]
        if tracer is not None:
            tracer.close_span(span)
        ok = ran
        if ran and check:
            if tracer is not None:
                span = tracer.open_span("check")
            try:
                ok = bool(wl.check(state, job, res))
            except Exception:
                traceback.print_exc()
                ok = False
            if tracer is not None:
                tracer.close_span(span)
        d = wl.digest(state, job, res) if ran else None
        if reference is not None:
            ok = ok and d == reference[i]
        if not ok:
            print(f"op failed: {wl.name} {getattr(job, 'label', i)}",
                  file=sys.stderr)
        dig.append(d)
        oks.append(ok)
    if tracer is not None:
        tracer.op = None
    probes.append(speed())
    wl.cleanup(state)
    latencies = [t * (probes[b] + probes[b + 1]) / 2 for t, b in zip(raw, blocks)]
    return latencies, raw, dig, oks


def cycle_count(wl, seconds: float) -> int:
    return max(MIN_CYCLES, round(seconds / wl.cycle_s))


def measure(wl, state, seed, cycles):
    """--trace 0: run the cycle `cycles` times; returns each op's median
    normalised and raw latencies, the set of failed op indices, executions,
    failed executions and the first cycle's output digests."""
    reference = None
    norm, raw = [], []
    bad: set = set()
    failed = 0
    for _ in range(cycles):
        lat, lat_raw, dig, oks = run_cycle(wl, state, wl.jobs(state, seed),
                                           reference is None, reference)
        if reference is None:
            reference = dig
        norm.append(lat)
        raw.append(lat_raw)
        bad.update(i for i, ok in enumerate(oks) if not ok)
        failed += oks.count(False)
    return ([statistics.median(xs) for xs in zip(*norm)],
            [statistics.median(xs) for xs in zip(*raw)],
            bad, cycles * len(reference), failed, reference)


def timings(latencies, bad, setup_times) -> dict:
    n = len(latencies)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": ((n - len(bad)) / sum(latencies), "1/s"),
        "op_p50_ms": (p50(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail(latencies)[1] * 1e3, "ms"),
    }


def end_to_end(norm, raw, bad, setup_norm, setup_raw):
    """Metrics from the normalised times, and a report with the same
    timings computed from the raw times."""
    n = len(norm)
    p, _, beyond = tail(norm)
    metrics = timings(norm, bad, setup_norm)
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    samples = {"setup_s": len(setup_norm), "ops_per_s": n, "op_p50_ms": n,
               "op_tail_ms": n, "peak_rss_mb": 1}
    details = {"op_tail_percentile": p, "op_tail_ops_beyond": beyond,
               "raw": {name: value for name, (value, _)
                       in timings(raw, bad, setup_raw).items()},
               "setup_runs_s": setup_raw}
    return metrics, samples, details


def traced(wl, seed, pairs, work, tracer_mod):
    """--trace 1: set-up traced once, then alternating untraced and traced
    cycles; traced cycles run the output checks too."""
    setup = tracer_mod.Tracer("setup")
    setup.install()
    try:
        state = wl.setup(seed, work)
    finally:
        setup.uninstall()

    start = time.perf_counter()
    lat, _, reference, oks = run_cycle(wl, state, wl.jobs(state, seed), True)
    untraced_times, traced_times, cycles = [sum(lat)], [], []
    attempted, failed = len(oks), oks.count(False)
    for _ in range(pairs):
        # inputs are made before the tracer goes in, so it sees only ops
        # and checks
        jobs = list(wl.jobs(state, seed))
        tracer = tracer_mod.Tracer("cycle")
        tracer.install()
        try:
            lat, _, _, oks = run_cycle(wl, state, jobs, True, reference, tracer,
                                    f"c{len(cycles)}.")
        finally:
            tracer.uninstall()
        cycles.append(tracer)
        traced_times.append(sum(lat))
        failed += oks.count(False)
        lat, _, _, oks = run_cycle(wl, state, wl.jobs(state, seed), False,
                                reference)
        untraced_times.append(sum(lat))
        failed += oks.count(False)
        attempted += 2 * len(oks)

    overhead = statistics.median(traced_times) / statistics.median(untraced_times)
    values = tracer_mod.layer_values(setup, cycles, overhead)
    units = {name: unit for name, unit, _ in tracer_mod.LAYER_METRICS}
    metrics = {name: (value, units[name]) for name, value in values.items()}
    def repeatable(t):
        return {k: v for k, v in tracer_mod.counters([t]).items()
                if k not in tracer_mod.TIMING_DEPENDENT}

    first = repeatable(cycles[0])
    spans_file = OUT / f"spans-{wl.name}-{seed}.json"
    spans_file.write_text(json.dumps({
        "setup": setup.export_spans(start),
        "cycles": [t.export_spans(start) for t in cycles],
    }))
    details = {
        "traced_cycles": len(cycles),
        "traced_op_time_s": traced_times,
        "untraced_op_time_s": untraced_times,
        "counters_repeat_across_cycles": all(
            repeatable(t) == first for t in cycles),
        "counters": tracer_mod.counters([setup, cycles[0]]),
        "output_digest": digest_of(reference),
        "spans_file": str(spans_file.relative_to(ROOT)),
        "predictions": {name: pred for name, _, pred in tracer_mod.LAYER_METRICS},
    }
    samples = {name: len(cycles) for name in metrics}
    return metrics, samples, details, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sunlab" / "__init__.py").is_file():
        print(f"error: no sunlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sunlab
    if Path(sunlab.__file__).resolve().parent != SRC / "sunlab":
        print(f"error: sunlab imported from {sunlab.__file__}", file=sys.stderr)
        return 2
    import tracer as tracer_mod
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{wl.name}"
    try:
        cycles = cycle_count(wl, args.seconds)
        if args.trace:
            metrics, samples, details, attempted, failed = traced(
                wl, args.seed, max(1, cycles // 2), work, tracer_mod)
        else:
            state, setup_norm, setup_raw = set_up(wl, args.seed, work)
            start = time.perf_counter()
            norm, raw, bad, attempted, failed, reference = measure(
                wl, state, args.seed, cycles)
            wall = time.perf_counter() - start
            metrics, samples, details = end_to_end(norm, raw, bad, setup_norm,
                                                   setup_raw)
            details.update(cycles=cycles, measure_wall_s=wall,
                           failed_ratio=failed / attempted,
                           output_digest=digest_of(reference))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "run": {"python": platform.python_version(),
                "platform": platform.platform(),
                "nproc": len(os.sched_getaffinity(0)), "git_rev": git_rev()},
        "samples": samples, **details,
    }
    print(json.dumps({"report": report}))
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit:6s} n={samples[name]}",
              file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
