"""Benchmark of the gkzcurve package: one seeded workload per run.

    python3 bench/run.py --workload dense-certify --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all            # the three, one after another
    python3 bench/selftest.py        # checks the benchmark itself

Workloads (see ``cases.py`` and BENCHMARK.json for why each exists):

* ``dense-certify``   Gamma series with dense support, certified by every
                      operator; Fraction arithmetic dominates.
* ``sparse-support``  integer parameters with tiny support sets, box scans
                      and refusals; lattice enumeration dominates.
* ``cli-session``     the README ``gkz`` commands, one fresh process each;
                      interpreter start and import dominate.

All run in one process, one caller, closed loop; ``cli-session`` starts at
most one child at a time.  With ``--trace 0`` the run times passes over the
case list for ``--seconds`` and prints the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and prints the
per-layer metrics (a function the workload never calls reads 0).  Every
output is checked by ``gate.py``; a failed case counts in ``failed`` and
``fail_ratio``, which is printed but is not a metric, since it is 0 on
correct code.  The last line of standard output is one JSON object; a full
record with the host, the seed and the sample counts goes to
``bench/results/``, next to the spans of a traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORKLOADS = ("dense-certify", "sparse-support", "cli-session")

#: end-to-end metrics (--trace 0) and their units; all are printed and kept
#: in the result file
END_TO_END = {
    "setup_s": "s",
    "pass_s_p50": "s",
    "pass_s_tail": "s",
    "cmd_s_p50": "s",
    "cmd_s_tail": "s",
    "terms_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: the end-to-end metrics BENCHMARK.json declares, each with a bound.  This
#: host's speed switches between two levels about 1.5x apart for tens of
#: seconds, so the median of a 35 s run, and a mean such as terms_per_s,
#: depend on the mix of the two: their 10-run spreads reached 0.22 against
#: the 0.25 cap on a bound.  The slowest pass and the p75 command follow the
#: slow level, with spreads of at most 0.15, and gate the run instead.
GATED = ("setup_s", "pass_s_tail", "cmd_s_tail", "peak_rss_mb")

#: per-layer metrics (--trace 1) and their units
PER_LAYER = {
    "lattice.enumerate_offsets.self_s": "s",
    "lattice.enumerate_offsets.calls": "count",
    "lattice.offsets": "count",
    "lattice.semigroup.self_s": "s",
    "lattice.delta_j_set.self_s": "s",
    "lattice.refusal_s": "s",
    "gamma.gamma_series.self_s": "s",
    "gamma.terms": "count",
    "gamma.series_offsets": "count",
    "gamma.keep_ratio": "ratio",
    "gamma.coeff_bits_max": "bits",
    "gamma.has_minimal_nsupp.self_s": "s",
    "gamma.has_minimal_nsupp.calls": "count",
    "gamma.has_minimal_nsupp.exact": "count",
    "gamma.nsupp_exact_ratio": "ratio",
    "gamma.restrict_series_x0.self_s": "s",
    "series.apply_operator.self_s": "s",
    "series.apply_operator.calls": "count",
    "series.term_products": "count",
    "series.residual_terms": "count",
    "series.verify_annihilation.self_s": "s",
    "system.build_system.self_s": "s",
    "system.operators": "count",
    "gevrey.gevrey_index_estimate.self_s": "s",
    "gevrey.index_abs_err": "abs",
    "gevrey.polynomial_solution.self_s": "s",
    "restriction.homogenize.self_s": "s",
    "restriction.ext1_generator.self_s": "s",
    "restriction.ext1_recurrence_solve.self_s": "s",
    "restriction.gevrey_envelope_fit.self_s": "s",
    "cli.interp_s": "s",
    "cli.import_s": "s",
    "cli.main_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_s": "s",
}

#: per-layer numbers that must repeat exactly from pass to pass
COUNT_METRICS = tuple(k for k, u in PER_LAYER.items() if u in ("count", "bits", "ratio", "bytes"))

#: child processes timed for setup_s and for the interpreter/import split
SETUP_REPS = 5
#: percentile reported as cmd_s_tail on cli-session.  Fixed rather than
#: chosen from the sample count, so that it does not jump when a slower
#: machine fits fewer passes into a run; a 35 s run has about 40 commands
#: beyond it (the result file records how many).  p90 would sit on the edge
#: of the slowest command's group, one eleventh of the samples.
CMD_TAIL_PERCENTILE = 75
#: no single case or command may take longer than this
CHILD_TIMEOUT_S = 120


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                   help="'all' runs the three in turn, each in its own process")
    p.add_argument("--seed", type=int, default=0,
                   help="input seed; 0 is the ROADMAP baseline grid")
    p.add_argument("--seconds", type=float, default=35.0, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# statistics


def percentile(samples: list[float], q: int) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# child processes


def child_env() -> dict:
    """The package from ``src``, with byte-code caching on as in an install."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def timed_process(cmd: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0, proc


def median_process_s(cmd: list[str]) -> float:
    times = []
    for _ in range(SETUP_REPS):
        dt, proc = timed_process(cmd)
        if proc.returncode != 0:
            raise RuntimeError(f"{cmd} exited with {proc.returncode}: {proc.stderr[-500:]}")
        times.append(dt)
    return statistics.median(times)


def setup_command(args) -> list[str]:
    if args.workload == "cli-session":
        return [sys.executable, "-c", "import gkzcurve"]
    return [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-child"]


def host_record(args) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "host": platform.node(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# passes


class Run:
    """Samples and failures gathered over the passes of one run."""

    def __init__(self, workload, cases, golden, seed):
        self.workload = workload
        self.cases = cases
        self.golden = golden
        self.rng = random.Random(seed)  # picks the coefficients the oracle checks
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, msgs: list[str]) -> None:
        """Count one failed case or command, with what went wrong."""
        self.failed += 1
        self.failures += msgs

    def in_process_pass(self, tracer=None) -> dict:
        """One pass over the case list; returns times and per-pass facts."""
        import gate
        import runners
        case_times = []
        certified = 0
        gevrey_err = 0.0
        for case in self.cases:
            self.attempted += 1
            outcomes = []
            if tracer is not None:
                tracer.case = case.key
            t0 = time.perf_counter()
            try:
                for step in case.steps:
                    with tracer.span(f"step:{step.kind}") if tracer else contextlib.nullcontext():
                        outcomes.append(runners.run_step(step))
            except Exception:
                self.fail([f"{case.key}: {traceback.format_exc(limit=3)}"])
                continue
            finally:
                case_times.append(time.perf_counter() - t0)
            failures = []
            for step, outcome in zip(case.steps, outcomes):
                failures += gate.check_step(step.key, outcome, self.golden, self.rng)
                for _, est, expected, _ in outcome.get("gevrey", ()):
                    gevrey_err = max(gevrey_err, abs(est - float(expected)))
            if failures:
                self.fail(failures)
            else:
                certified += sum(o["certified"] for o in outcomes)
        return {"case_times": case_times, "certified": certified,
                "gevrey_err": gevrey_err, "stdout_bytes": 0}

    def cli_pass(self, in_process=False, tracer=None) -> dict:
        """The session's commands in order: fresh processes, or ``cli.main``
        called in this process with stdout captured (traced runs)."""
        import cases
        import gate
        case_times = []
        outputs = {}
        stdout_bytes = 0
        gevrey_err = 0.0
        for argv in cases.cli_commands(self.cases):
            self.attempted += 1
            line = " ".join(argv)
            if tracer is not None:
                tracer.case = line
            if in_process:
                import gkzcurve.cli
                out, err = io.StringIO(), io.StringIO()
                t0 = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = gkzcurve.cli.main(argv)
                except Exception:
                    self.fail([f"gkz {line}: {traceback.format_exc(limit=3)}"])
                    continue
                finally:
                    case_times.append(time.perf_counter() - t0)
                stdout = out.getvalue()
            else:
                dt, proc = timed_process([sys.executable, "-m", "gkzcurve", *argv])
                case_times.append(dt)
                code, stdout = proc.returncode, proc.stdout
            stdout_bytes += len(stdout.encode())
            failures = gate.check_cli(line, code, stdout, self.golden)
            if failures:
                self.fail(failures)
                continue
            if argv[0] == "dims":  # the one text-output command
                continue
            data = json.loads(stdout)
            outputs[line] = data
            if argv[0] == "gevrey-index":  # along (2 3): b/a = 3/2
                gevrey_err = max(gevrey_err, abs(data["estimate"] - 1.5))
        return {"case_times": case_times, "certified": cases.cli_certified_terms(outputs),
                "gevrey_err": gevrey_err, "stdout_bytes": stdout_bytes}

    def one_pass(self, tracer=None, in_process_cli=False) -> dict:
        if self.workload == "cli-session":
            return self.cli_pass(in_process=in_process_cli, tracer=tracer)
        return self.in_process_pass(tracer)


def measure(run: Run, args) -> tuple[dict, dict]:
    """Untraced passes for --seconds: the end-to-end metrics.

    On cli-session a command is one ``gkz`` process.  The in-process
    workloads have no process per command: their one caller waits for a
    whole pass, so there a command is a pass and cmd_s_* equal pass_s_*
    (per-case medians go to the result file).
    """
    passes = []
    case_times = []
    certified = 0
    t_start = time.perf_counter()
    while not passes or time.perf_counter() - t_start < args.seconds:
        p = run.one_pass()
        passes.append(sum(p["case_times"]))
        case_times.append(p["case_times"])
        certified += p["certified"]
    # a run holds too few passes for a percentile with ten samples beyond
    # it, so the tail of a pass is the slowest pass
    pass_p50, pass_tail = statistics.median(passes), max(passes)
    if args.workload == "cli-session":
        commands = [t for ts in case_times for t in ts]
        cmd_p50 = statistics.median(commands)
        cmd_tail = percentile(commands, CMD_TAIL_PERCENTILE)
        cmd = {"commands": len(commands), "cmd_tail_percentile": CMD_TAIL_PERCENTILE,
               "cmd_samples_beyond_tail": sum(t > cmd_tail for t in commands)}
        who = resource.RUSAGE_CHILDREN
    else:
        cmd_p50, cmd_tail = pass_p50, pass_tail
        cmd = {"case_s_p50": {c.name: statistics.median(ts[i] for ts in case_times)
                              for i, c in enumerate(run.cases)}}
        who = resource.RUSAGE_SELF
    metrics = {
        "pass_s_p50": pass_p50,
        "pass_s_tail": pass_tail,
        "cmd_s_p50": cmd_p50,
        "cmd_s_tail": cmd_tail,
        "terms_per_s": certified / sum(passes),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    samples = {"passes": len(passes), "pass_tail_percentile": 100,
               "certified_terms": certified, "pass_s": passes, **cmd}
    return metrics, samples


def measure_traced(run: Run, args) -> tuple[dict, dict]:
    """Alternate untraced and traced passes: the per-layer metrics."""
    from spans import Tracer, layer_metrics
    plain, traced, layers, kept = [], [], [], []
    t_start = time.perf_counter()
    while len(traced) < 1 or time.perf_counter() - t_start < args.seconds:
        p = run.one_pass(in_process_cli=True)
        plain.append(sum(p["case_times"]))
        tracer = Tracer()
        with tracer:
            p = run.one_pass(tracer=tracer, in_process_cli=True)
        traced.append(sum(p["case_times"]))
        lm = layer_metrics(tracer.spans)
        kept.append(tracer.spans)
        lm["gevrey.index_abs_err"] = p["gevrey_err"]
        lm["cli.stdout_bytes"] = p["stdout_bytes"]
        layers.append(lm)
    for name in COUNT_METRICS:
        if name in layers[0] and any(lm[name] != layers[0][name] for lm in layers):
            run.fail([f"count {name} differs between passes: {[lm[name] for lm in layers]}"])
    metrics = {name: (layers[0][name] if name in COUNT_METRICS
                      else statistics.median(lm[name] for lm in layers))
               for name in layers[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    interp = median_process_s([sys.executable, "-c", "pass"])
    imported = median_process_s([sys.executable, "-c", "import gkzcurve"])
    metrics["cli.interp_s"] = interp
    metrics["cli.import_s"] = imported - interp
    samples = {"untraced_passes": len(plain), "traced_passes": len(traced),
               "spans_per_pass": len(kept[0]), "process_reps": SETUP_REPS}
    write_spans(kept, RESULTS / f"{args.workload}-seed{args.seed}-spans.json")
    return metrics, samples


def write_spans(passes, path: Path) -> None:
    """One list per traced pass of [name, start, end, parent, case];
    times in seconds from the first span of the pass."""
    out = []
    for spans in passes:
        t0 = spans[0].start if spans else 0.0
        out.append([[s.name, s.start - t0, s.end - t0, s.parent, s.case] for s in spans])
    RESULTS.mkdir(exist_ok=True)
    path.write_text(json.dumps({"passes": out}) + "\n")


# ---------------------------------------------------------------------------


def run_all(args) -> int:
    """Every workload in turn, each in a process of its own."""
    code = 0
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", workload, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              cwd=ROOT)
        code = code or proc.returncode
    return code


def setup_child(args) -> int:
    """What setup_s times: import, generate the cases, warm the workload."""
    import cases
    import runners  # imports gkzcurve
    runners.warm(cases.make_cases(args.workload, args.seed))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gkzcurve" / "__init__.py").is_file():
        print(f"error: no gkzcurve sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    if args.setup_child:
        return setup_child(args)

    import cases
    import gate

    case_list = cases.make_cases(args.workload, args.seed)
    run = Run(args.workload, case_list, gate.load_golden(), args.seed)
    if args.trace:
        metrics, samples = measure_traced(run, args)
        units = PER_LAYER
    else:
        metrics = {"setup_s": median_process_s(setup_command(args))}
        more, samples = measure(run, args)
        metrics.update(more)
        samples["setup_reps"] = SETUP_REPS
        units = END_TO_END
    failed = run.failed
    gated = GATED if not args.trace else units
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in gated},
    }
    record = {"host": host_record(args), "cases": [c.key for c in case_list],
              "samples": samples, "fail_ratio": failed / run.attempted,
              "failures": run.failures[:50],
              "reported": {name: {"value": metrics[name], "unit": unit}
                           for name, unit in units.items()},
              **result}
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    for msg in run.failures[:10]:
        print(f"FAIL {msg}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{json.dumps({k: v for k, v in samples.items() if k != 'pass_s'})}")
    for name, m in record["reported"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio {failed / run.attempted:.6g} ({failed}/{run.attempted})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
