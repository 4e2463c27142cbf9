#!/usr/bin/env python3
"""Builds and runs the hqmr stack benchmark.

    python3 perfbench/run.py --workload <ingest|scan|viewer> --seed <n> \
        --seconds <s> --trace <0|1> [--tiny]

Builds the `perfbench` package from source (into `$CARGO_TARGET_DIR`, or
`perfbench/target`), runs it from the repository root and passes its output
through. Before the last line is printed it is checked against
`BENCHMARK.json`: with `--trace 0` it must carry exactly the end-to-end
metrics, with `--trace 1` the per-layer metrics, each with its unit. A
per-layer metric the workload does not exercise is reported as 0.

The values the record line lists as deterministic must repeat exactly for a
seed. Each run stores them under `.bench_state/`, keyed by a hash of the
built program, the workload, the seed and the input size, and fails if an
earlier run of the same program disagrees.

The gated rates are per CPU-second, so they do not see time spent waiting
(a lock held across decode, a backoff sleep, serialised fan-out). Each
untraced run therefore also appends its wall-clock rate and tail latency to
`.bench_state/history-<workload>.jsonl`; once this build and the build run
before it in the same checkout each have three runs, a warning goes to
standard error when the median wall-clock rate or tail got worse than the
median CPU rate by more than `WALL_WARN`.

Exits non-zero, without printing a result, when the build, the run or a
check fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
# Share by which the wall-clock figures may trail the CPU rate between two
# builds before run.py warns; host steal alone moves single runs by ~30%.
WALL_WARN = 0.25


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    target = Path(os.environ.get("CARGO_TARGET_DIR", HERE / "target"))
    if not target.is_absolute():
        target = ROOT / target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return target / "release" / "perfbench"


def check_metrics(result, spec, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys are {sorted(result)}")
    want = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    extra = set(got) - {m["name"] for m in want}
    if extra:
        fail(f"metrics missing from BENCHMARK.json: {sorted(extra)}")
    metrics = {}
    for m in want:
        name, unit = m["name"], m["unit"]
        if name not in got:
            if not trace:
                fail(f"end-to-end metric {name} was not reported")
            metrics[name] = {"value": 0, "unit": unit}
            continue
        value = got[name]
        if value.get("unit") != unit:
            fail(f"{name}: unit {value.get('unit')!r}, BENCHMARK.json says {unit!r}")
        if not isinstance(value.get("value"), (int, float)):
            fail(f"{name}: value {value.get('value')!r} is not a number")
        metrics[name] = value
    return dict(result, metrics=metrics)


def check_deterministic(exe, args, record):
    digest = hashlib.sha256(exe.read_bytes()).hexdigest()[:16]
    size = "tiny" if args.tiny else "full"
    path = ROOT / ".bench_state" / f"{digest}-{args.workload}-{args.seed}-{size}.json"
    now = record["deterministic"]
    if path.exists():
        before = json.loads(path.read_text())
        if before != now:
            changed = sorted(k for k in set(before) | set(now) if before.get(k) != now.get(k))
            fail(f"deterministic values differ from an earlier run of this build "
                 f"with seed {args.seed}: {changed}")
        return
    path.parent.mkdir(exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(now, sort_keys=True))
    tmp.replace(path)


def median(values):
    s = sorted(values)
    return (s[(len(s) - 1) // 2] + s[len(s) // 2]) / 2


def warn_wall_clock(exe, args, record, result):
    """Appends this run to the workload's history and compares builds."""
    path = ROOT / ".bench_state" / f"history-{args.workload}.jsonl"
    path.parent.mkdir(exist_ok=True)
    run = {"build": hashlib.sha256(exe.read_bytes()).hexdigest()[:16],
           "cpu_rate": result["metrics"]["ops_per_cpu_s"]["value"],
           "wall_rate": record["ops_per_s"], "tail_ms": record["tail_ms"]}
    with path.open("a") as f:
        f.write(json.dumps(run) + "\n")
    runs = [json.loads(l) for l in path.read_text().splitlines() if l.strip()]
    others = [r for r in runs if r["build"] != run["build"]]
    if not others:
        return
    mine = [r for r in runs if r["build"] == run["build"]]
    before = [r for r in others if r["build"] == others[-1]["build"]]
    if len(mine) < 3 or len(before) < 3:
        return
    ratio = {k: median(r[k] for r in mine) / median(r[k] for r in before)
             for k in ("cpu_rate", "wall_rate", "tail_ms")}
    for name, better in (("wall-clock ops/s", ratio["wall_rate"]),
                         (f"tail latency ({record['tail_quantile']})", 1 / ratio["tail_ms"])):
        if better < ratio["cpu_rate"] * (1 - WALL_WARN):
            print(f"run.py: warning: {args.workload} {name} is {better:.2f}x build "
                  f"{before[0]['build']} while ops per CPU-second is "
                  f"{ratio['cpu_rate']:.2f}x: this build may wait more (locks, sleeps, "
                  f"serialised fan-out) than the gated rates show", file=sys.stderr)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")

    exe = build()
    try:
        proc = subprocess.run([str(exe), *sys.argv[1:]], cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"no result within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"perfbench exited with {proc.returncode}")
    records = [json.loads(l)["record"] for l in lines if l.startswith('{"record"')]
    if len(records) != 1:
        fail("expected one record line")
    result = check_metrics(json.loads(lines[-1]), spec, args.trace)
    check_deterministic(exe, args, records[0])
    if not args.trace:
        warn_wall_clock(exe, args, records[0], result)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
