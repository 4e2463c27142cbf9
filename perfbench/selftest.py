#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at tiny scale, untraced and
traced, through the same `run.py` the benchmark command uses.

    python3 perfbench/selftest.py

Checks that each run is correct with no failed operation (error rate 0),
that it reports every metric of BENCHMARK.json with its unit (every
end-to-end metric nonzero), that the deterministic values repeat between
the untraced and the traced run of a seed, and that another seed changes
them. Exits non-zero on the first failure.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, seed, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}"
    lines = proc.stdout.splitlines()
    record = json.loads(lines[-2])["record"]
    return record, json.loads(lines[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in (w["name"] for w in spec["workloads"]):
        det = {}
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            record, result = run(w, 7, trace)
            tag = f"{w} trace={trace}"
            assert result["correct"], f"{tag}: not correct"
            assert result["attempted"] >= 1, f"{tag}: nothing attempted"
            assert result["failed"] == 0, f"{tag}: {result['failed']} failed"
            assert record["error_rate"] == 0, f"{tag}: error rate {record['error_rate']}"
            got = result["metrics"]
            for m in spec[kind]:
                assert got[m["name"]]["unit"] == m["unit"], f"{tag}: unit of {m['name']}"
                if trace == 0:
                    assert got[m["name"]]["value"] > 0, f"{tag}: {m['name']} is not positive"
            assert set(got) == {m["name"] for m in spec[kind]}, f"{tag}: metric set"
            det[trace] = record["deterministic"]
        assert det[0] == det[1], f"{w}: deterministic values differ between runs"
        other, _ = run(w, 8, 0)
        assert other["deterministic"] != det[0], f"{w}: the seed does not change the inputs"
        print(f"selftest: {w} ok")


if __name__ == "__main__":
    main()
