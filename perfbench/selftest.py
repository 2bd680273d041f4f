#!/usr/bin/env python3
"""Self-test of the benchmark's output contract.

Run from the repository root:

    python3 perfbench/selftest.py [--seconds S]

It checks that BENCHMARK.json is well formed, then runs every workload
through the BENCHMARK.json command in both modes at the pinned seed and
checks that:

- the last line is one JSON object with exactly the keys correct,
  attempted, failed and metrics, and every operation passed;
- the metrics are exactly the declared end_to_end (--trace 0) or per_layer
  (--trace 1) metrics, each with its declared unit;
- every `metric` line printed names a declared metric with its unit.

Finally it runs one workload against a pin file with one wrong digest and
checks that the run fails: fail_frac > 0, correct false, exit code not 0.
"""

import argparse
import json
import os
import re
import subprocess
import sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(msg):
    print(f"selftest: FAIL: {msg}")
    sys.exit(1)


def check_schema(bench):
    want = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(bench) != want:
        fail(f"BENCHMARK.json keys {sorted(bench)} != {sorted(want)}")
    names = set()
    for w in bench["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            fail(f"bad workload entry {w}")
        names.add(w["name"])
    for m in bench["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            fail(f"bad end_to_end entry {m}")
    for m in bench["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            fail(f"bad per_layer entry {m}")
    for m in bench["end_to_end"] + bench["per_layer"]:
        if not NAME.match(m["name"]) or not UNIT.match(m["unit"]):
            fail(f"bad name or unit in {m}")
        if m["better"] not in ("higher", "lower"):
            fail(f"bad direction in {m}")
        if m["name"] in names:
            fail(f"name used twice: {m['name']}")
        names.add(m["name"])
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        fail("setup_s (s, lower) must be an end_to_end metric")
    if setup[0]["bound"] != max(m["bound"] for m in bench["end_to_end"]):
        fail("setup_s must carry the largest bound")


def run(cmd, args):
    p = subprocess.run(cmd + args, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    return p.returncode, lines, p.stderr


def check_run(bench, cmd, workload, trace, seconds):
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    mode = bench["per_layer"] if trace else bench["end_to_end"]
    want = {m["name"]: m["unit"] for m in mode}
    args = ["--workload", workload, "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)]
    code, lines, err = run(cmd, args)
    if code != 0 or not lines:
        fail(f"{workload} trace={trace}: exit {code}\n{err[-2000:]}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{workload} trace={trace}: {result['failed']} of {result['attempted']} failed")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"{workload} trace={trace}: metrics {sorted(set(got) ^ set(want))} differ from BENCHMARK.json")
    for k, v in result["metrics"].items():
        if not isinstance(v["value"], (int, float)):
            fail(f"{workload}: {k} is not a number")
    for line in lines:
        if line.startswith("metric "):
            _, name, _, unit = line.split()
            if declared.get(name) != unit:
                fail(f"{workload}: printed metric {name} [{unit}] is not declared")
    print(f"selftest: ok {workload} trace={trace} ({result['attempted']} operations)")


def check_wrong_pin(cmd, seconds):
    pins_path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.txt")
    with open(pins_path) as f:
        pins = f.read()
    line = next(l for l in pins.splitlines() if l.startswith("fast_array/cell "))
    op, digest = line.split()
    wrong = digest[:-1] + ("0" if digest[-1] != "0" else "1")
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join("perfbench", "target"))
    os.makedirs(target, exist_ok=True)
    bad = os.path.join(target, "selftest-wrong-pins.txt")
    with open(bad, "w") as f:
        f.write(pins.replace(line, f"{op} {wrong}"))
    args = ["--workload", "fast_array", "--seed", "1", "--seconds", str(seconds), "--pins", bad]
    code, lines, _ = run(cmd, args)
    os.remove(bad)
    result = json.loads(lines[-1])
    fail_line = next((l for l in lines if l.startswith("metric fail_frac ")), "")
    fail_frac = float(fail_line.split()[2]) if fail_line else 0.0
    if code == 0 or result["correct"] or result["failed"] == 0 or fail_frac <= 0:
        fail(f"a wrong pinned digest passed: exit {code}, {result}")
    if not any(l.startswith(f"FAIL {op}") for l in lines):
        fail("the failing operation is not named")
    print(f"selftest: ok wrong pin -> exit {code}, fail_frac {fail_frac}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", default="0.5")
    opts = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    check_schema(bench)
    cmd = bench["command"]
    for w in bench["workloads"]:
        for trace in (0, 1):
            check_run(bench, cmd, w["name"], trace, opts.seconds)
    check_wrong_pin(cmd, opts.seconds)
    print("selftest: PASS")


if __name__ == "__main__":
    main()
