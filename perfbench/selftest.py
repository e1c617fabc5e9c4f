"""Smoke-size self-test of the benchmark (about half a minute).

    python3 perfbench/selftest.py

For every workload at tiny sizes it checks that the gated run emits every
end-to-end metric of BENCHMARK.json with its unit, that the traced run emits
every per-layer metric with its unit, that ``ok_ratio`` is 1.0 and
``correct`` is true, and that two traced runs with one seed report identical
counts.  It also checks that the benchmark exits non-zero, without a result,
in a directory that holds only BENCHMARK.json and the benchmark.  Exit code 0
means every check passed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Every workload run.py has, gated in BENCHMARK.json or not.
WORKLOADS = ("sign_durable", "verify_k16k", "provision_k4k", "cli_session")


def _run(cwd, workload, trace, seed=7):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--smoke"]
    done = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)
    return done.returncode, done.stdout.strip().splitlines(), done.stderr


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    errors = []
    for workload in WORKLOADS:
        counts = []
        for trace in (0, 1, 1):
            code, lines, stderr = _run(ROOT, workload, trace)
            tag = f"{workload} --trace {trace}"
            if code != 0 or not lines:
                errors.append(f"{tag}: exit {code}\n{stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{tag}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                errors.append(f"{tag}: correct={result['correct']} failed={result['failed']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                missing = set(wanted[trace].items()) ^ set(got.items())
                errors.append(f"{tag}: metric names/units differ: {sorted(missing)}")
            if trace == 0 and result["metrics"]["ok_ratio"]["value"] != 1.0:
                errors.append(f"{tag}: ok_ratio {result['metrics']['ok_ratio']['value']}")
            if trace == 1:
                counts.append(json.loads(lines[-2])["counts"])
        if len(counts) == 2 and counts[0] != counts[1]:
            errors.append(f"{workload}: traced counts differ between two runs with one seed")
        print(f"{workload}: done", flush=True)

    bare = os.path.join(ROOT, ".perfbench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, lines, _ = _run(bare, WORKLOADS[0], 0)
    shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or any(line.startswith("{") for line in lines):
        errors.append(f"bare directory: exit {code}, stdout {lines[-1:]}")

    for e in errors:
        print("FAIL " + e)
    print("selftest: " + ("FAILED" if errors else "all checks passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
