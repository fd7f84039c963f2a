"""Self-test of the benchmark itself (not of gkzcurve).

    python3 bench/selftest.py

* Runs each workload for one pass, untraced and traced, and asserts that
  every metric BENCHMARK.json declares is printed with its unit, that the
  outputs pass the gate, and that a second seed gives a workload of similar
  size.
* Feeds the gate a corrupted coefficient and a CLI output with one key
  missing, and asserts that it reports both.
* Runs the benchmark in a directory holding only BENCHMARK.json and the
  benchmark, and asserts that it fails without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction

import run as bench

sys.path.insert(0, str(bench.SRC))

import gate  # noqa: E402
import cases  # noqa: E402
import runners  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
#: work counts of two seeds may differ by at most this factor
SIZE_FACTOR = 1.5


def run_bench(workload, seed, trace, cwd=bench.ROOT):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(workload, seed, trace) -> dict:
    proc = run_bench(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}, workload
    lines = proc.stdout.splitlines()
    for name, unit in (bench.PER_LAYER if trace else bench.END_TO_END).items():
        assert any(ln.startswith(f"{name} ") and ln.endswith(f" {unit}") for ln in lines), name
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got["unit"])
        assert isinstance(got["value"], (int, float)), m["name"]
        if not trace:
            assert got["value"] > 0, (workload, m["name"])
    return {k: v["value"] for k, v in result["metrics"].items()}


def test_workloads() -> None:
    for w in SPEC["workloads"]:
        name = w["name"]
        check_result(name, 1, 0)
        one = check_result(name, 1, 1)
        two = check_result(name, 2, 1)
        if name != "cli-session":
            for count in ("lattice.offsets", "series.term_products"):
                ratio = (one[count] + 1) / (two[count] + 1)
                assert 1 / SIZE_FACTOR <= ratio <= SIZE_FACTOR, (name, count, one[count], two[count])
        print(f"ok {name}")


def test_gate_catches_corruption() -> None:
    import random
    golden = gate.load_golden()
    step = cases.Step("exact", ((1, 2, 5), "10", (3, 4, 5), "12"))
    outcome = runners.run_step(step)
    assert gate.check_step(step.key, outcome, golden, random.Random(0)) == []
    f = outcome["series"]["smooth"]
    u = sorted(f.terms)[-1]
    f.terms[u] = f.terms[u] * 2
    assert gate.check_step(step.key, outcome, golden, random.Random(0)), "corruption not caught"
    assert f.terms[u] != gate.oracle_coefficient(f.base, u)
    assert gate.oracle_coefficient((Fraction(1), Fraction(0)), (-1, 0)) == 1
    print("ok gate catches a corrupted coefficient")

    line = "exponents -A 2,3 -b 1"
    data = json.loads(json.dumps(golden["cli"][line]["json"]))
    code = golden["cli"][line]["exit"]
    data["extra"] = "allowed"
    assert gate.check_cli(line, code, json.dumps(data), golden) == []
    del data["generic"][0]["exact_check"]
    assert gate.check_cli(line, code, json.dumps(data), golden), "missing key not caught"
    text = "dims -A 2,3 -b 2 -s 2 --output text"
    assert gate.check_cli(text, 0, golden["cli"][text]["text"] + " ", golden)
    print("ok gate catches a missing CLI key and changed text")


def test_fails_without_sources() -> None:
    bare = bench.RESULTS / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(bench.BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench("sparse-support", 1, 0, cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare)
    print("ok fails without the package sources")


if __name__ == "__main__":
    test_gate_catches_corruption()
    test_fails_without_sources()
    test_workloads()
