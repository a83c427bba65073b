#!/usr/bin/env python3
"""Self-test of the benchmark: every workload, a tiny window, both passes.

Run from the repository root:

    python3 simbench/selftest.py

Each run's last line must parse as the result object, report no failed
check, and carry exactly the metrics BENCHMARK.json lists for its pass,
with the listed units. Workloads that BENCHMARK.json does not gate are
run too and must pass the same checks.
"""

import json
import subprocess
import sys

SECONDS = "0.5"
UNGATED = ["chain8_closed_ro128"]


def run(command, workload, trace):
    args = command + ["--workload", workload, "--seed", "1",
                      "--seconds", SECONDS, "--trace", str(trace)]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {proc.returncode}\n"
                             f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def check(bench, workload, trace):
    result, detail = run(bench["command"], workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, (workload, trace, result)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0, (workload, trace, result)
    wanted = bench["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    assert set(got) == {m["name"] for m in wanted}, (workload, trace, sorted(got))
    for m in wanted:
        value = got[m["name"]]
        assert value["unit"] == m["unit"], (workload, m["name"], value)
        assert isinstance(value["value"], (int, float)), (workload, m["name"], value)
        if not trace:
            assert value["value"] != 0, (workload, m["name"], "end-to-end metric is 0")
    assert detail["workload"] == workload and detail["host_cores"] >= 1
    print(f"ok  {workload:28s} trace={trace}  attempted={result['attempted']}")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]] + UNGATED
    for workload in workloads:
        for trace in (0, 1):
            check(bench, workload, trace)
    proc = subprocess.run(bench["command"] + ["--workload", "nonesuch", "--seed", "1",
                                              "--seconds", SECONDS, "--trace", "0"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode != 0 and not proc.stdout.strip(), "bad workload must fail"
    print("ok  unknown workload rejected")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        print(f"FAIL {e}", file=sys.stderr)
        sys.exit(1)
