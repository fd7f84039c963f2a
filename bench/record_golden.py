"""Record ``golden.json``: the outputs every seed's cases must reproduce.

    python3 bench/record_golden.py

Runs every case any seed can draw, in-process and through the CLI, and
stores verdicts, digests and CLI outputs.  The recording was made from the
commit that introduced the benchmark; re-record only in a change whose
issue says that an output changes on purpose, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import random
import sys

import run as bench

sys.path.insert(0, str(bench.SRC))

import gate  # noqa: E402
import cases  # noqa: E402
import runners  # noqa: E402


def main() -> int:
    golden = {"steps": {}, "cli": {}}
    rng = random.Random(0)
    for workload in ("dense-certify", "sparse-support"):
        for step in cases.all_steps(workload):
            outcome = runners.run_step(step)
            golden["steps"][step.key] = gate.fingerprint(outcome)
            problems = gate.check_step(step.key, outcome, golden, rng)
            if problems:
                print("\n".join(problems), file=sys.stderr)
                return 1
            print(step.key, golden["steps"][step.key]["verdicts"], flush=True)
    for step in cases.all_steps("cli-session"):
        for argv in cases.cli_argvs(step):
            _, proc = bench.timed_process([sys.executable, "-m", "gkzcurve", *argv])
            entry = {"exit": proc.returncode}
            if "--output" in argv and argv[argv.index("--output") + 1] == "text":
                entry["text"] = proc.stdout
            else:
                entry["json"] = json.loads(proc.stdout)
            golden["cli"][" ".join(argv)] = entry
            print(" ".join(argv), proc.returncode, flush=True)
    with open(gate.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
