"""Self-check of the benchmark: one command over all four workloads.

    python3 perfbench/selfcheck.py

For each workload of BENCHMARK.json it makes one untraced run and two
traced runs of SECONDS seconds at seed SEED, the traced ones in fresh
processes under PYTHONHASHSEED 1 and 2, and checks:

* BENCHMARK.json has the keys and limits the benchmark contract sets, and
  its metric names and units are the ones run.py and tracer.py emit;
* every run exits 0, ends with the result line, emits every metric named
  in BENCHMARK.json with its unit, and has no failed op;
* the untraced and traced runs produce byte-identical outputs (the digest
  of cycle 0's certificates, verdicts and JSON files), so the wrappers
  change no result;
* the layer counters repeat exactly between the two traced runs;
* run.py exits non-zero without a result in a directory that holds only
  BENCHMARK.json and the benchmark's own files.

It prints every metric with its unit and sample count, and exits 1 if any
check fails.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import LAYER_METRICS, TIMING_DEPENDENT  # noqa: E402

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
              "op_tail_ms": "ms", "peak_rss_mb": "MB"}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SECONDS = 2
SEED = 1

problems = []


def expect(cond: bool, message: str) -> bool:
    if not cond:
        problems.append(message)
        print(f"FAIL: {message}")
    return cond


def check_config(cfg: dict, workloads) -> None:
    expect(set(cfg) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    expect(isinstance(cfg["run_seconds"], int) and 1 <= cfg["run_seconds"] <= 60,
           "run_seconds is a whole number from 1 to 60")
    expect(2 <= len(cfg["workloads"]) <= 8, "2 to 8 workloads")
    expect(1 <= len(cfg["end_to_end"]) <= 16, "1 to 16 end-to-end metrics")
    expect(1 <= len(cfg["per_layer"]) <= 128, "1 to 128 per-layer metrics")
    names = [w["name"] for w in cfg["workloads"]]
    for w in cfg["workloads"]:
        expect(set(w) == {"name", "why"} and len(w["why"]) <= 200
               and "\n" not in w["why"], f"workload {w['name']} entry")
    expect(sorted(names) == sorted(workloads), "workloads match run.py")
    for m in cfg["end_to_end"]:
        expect(set(m) == {"name", "unit", "better", "bound"}
               and 0 < m["bound"] <= 0.25, f"end-to-end entry {m['name']}")
    for m in cfg["per_layer"]:
        expect(set(m) == {"name", "unit", "better"}, f"per-layer entry {m['name']}")
    everything = names + [m["name"] for m in cfg["end_to_end"] + cfg["per_layer"]]
    expect(len(set(everything)) == len(everything), "names used once")
    for name in everything:
        expect(bool(NAME.fullmatch(name)), f"name {name!r}")
    for m in cfg["end_to_end"] + cfg["per_layer"]:
        expect(bool(UNIT.fullmatch(m["unit"])), f"unit {m['unit']!r}")
        expect(m["better"] in ("higher", "lower"), f"better of {m['name']}")
    setup = [m for m in cfg["end_to_end"] if m["name"] == "setup_s"]
    expect(bool(setup) and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
           and setup[0]["bound"] == max(m["bound"] for m in cfg["end_to_end"]),
           "setup_s in seconds, lower is better, with the largest bound")
    expect({m["name"]: m["unit"] for m in cfg["end_to_end"]} == END_TO_END,
           "end-to-end metrics match run.py")
    expect({m["name"]: m["unit"] for m in cfg["per_layer"]}
           == {n: u for n, u, _ in LAYER_METRICS},
           "per-layer metrics match tracer.LAYER_METRICS")
    expect(len(json.dumps(cfg)) <= 64 * 1024, "BENCHMARK.json at most 64 KiB")


def run(cfg, workload, seed, seconds, trace, hashseed, cwd=ROOT):
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    cmd = cfg["command"] + ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=600)


def parse(proc, label):
    if not expect(proc.returncode == 0, f"{label}: exit {proc.returncode}\n"
                  f"{proc.stderr[-2000:]}"):
        return None, None
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{label}: result keys")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{label}: {result['failed']} of {result['attempted']} ops failed")
    return result, report


def show(label, result, report, wanted):
    print(f"== {label}: attempted {result['attempted']}, failed "
          f"{result['failed']} (failed_ratio "
          f"{result['failed'] / result['attempted']:.3g})")
    for name, unit in wanted.items():
        got = result["metrics"].get(name)
        if expect(got is not None and got["unit"] == unit,
                  f"{label}: metric {name} [{unit}]"):
            extra = ""
            if name == "op_tail_ms":
                extra = (f" (p{report['op_tail_percentile']:g}, "
                         f"{report['op_tail_ops_beyond']} beyond)")
            print(f"  {name:40s} {got['value']:14.6g} {unit:6s} "
                  f"n={report['samples'][name]}{extra}")


def bare_directory_fails(cfg) -> None:
    """run.py must refuse to report without the program's sources."""
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for p in cfg["paths"]:
        shutil.copytree(ROOT / p, bare / p,
                        ignore=shutil.ignore_patterns("__pycache__"))
    name = cfg["workloads"][0]["name"]
    proc = run(cfg, name, 1, 1, 0, 0, cwd=bare)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "run.py fails without a result in a bare directory")


def main() -> int:
    import workloads  # needs sunlab on the path, which run.py sets up
    cfg = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_config(cfg, list(workloads.WORKLOADS))
    per_layer = {m["name"]: m["unit"] for m in cfg["per_layer"]}
    end_to_end = {m["name"]: m["unit"] for m in cfg["end_to_end"]}
    for w in [w["name"] for w in cfg["workloads"]]:
        plain, plain_rep = parse(run(cfg, w, SEED, SECONDS, 0, 0), w)
        if plain:
            show(f"{w} --trace 0", plain, plain_rep, end_to_end)
        traced = []
        for hashseed in (1, 2):
            label = f"{w} --trace 1 PYTHONHASHSEED={hashseed}"
            result, report = parse(run(cfg, w, SEED, SECONDS, 1, hashseed),
                                   label)
            if result:
                traced.append(report)
                if hashseed == 1:
                    show(label, result, report, per_layer)
        if plain and len(traced) == 2:
            expect(all(r["output_digest"] == plain_rep["output_digest"]
                       for r in traced),
                   f"{w}: traced outputs identical to untraced outputs")
            expect(all(r["counters_repeat_across_cycles"] for r in traced),
                   f"{w}: counters repeat across traced rounds")
            a, b = (r["counters"] for r in traced)
            differ = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
            for k in differ:
                if k in TIMING_DEPENDENT:
                    print(f"FINDING: {w}: {k} differs between runs "
                          f"({a.get(k)} vs {b.get(k)}): {TIMING_DEPENDENT[k]}")
            expect(not [k for k in differ if k not in TIMING_DEPENDENT],
                   f"{w}: counters differ across hash seeds: {differ}")
    bare_directory_fails(cfg)
    print("self-check:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
