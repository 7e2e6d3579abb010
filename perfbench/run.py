"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload query --seed 0 --seconds 30 --trace 0

The workload's steps are run in rounds, a closed loop in one thread, as
long as another round fits in ``--seconds`` of timed steps (and at least
twice).  ``run_s`` is
the sum over steps of each step's fastest round: the time the fixed, seeded
work takes when nothing else holds the core.  ``setup_s`` is the median of
the set-up (imports, level specs, seeded inputs) repeated in fresh
interpreters.  With ``--trace 1`` the run wraps the program's public
functions, prints the per-layer metrics instead and writes the spans to
``perfbench/out/``.  The exit code is 0 when every output checked correct,
1 when a check failed and 2 when the run could not start.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
MIN_ROUNDS = 2
SHOWN_PROBLEMS = 20


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("query", "orbit-scan", "oracle"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, then print the seconds it took")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def load_workloads():
    """Import the benchmark against this checkout's ``src/chaoscope``."""
    src = ROOT / "src"
    if not (src / "chaoscope" / "__init__.py").is_file():
        print(f"perfbench: no chaoscope sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(src), str(ROOT)]
    from perfbench import workloads

    if Path(workloads.bq.__file__).resolve().parent != src / "chaoscope":
        print(f"perfbench: imported chaoscope from {workloads.bq.__file__}", file=sys.stderr)
        raise SystemExit(2)
    return workloads


def setup_probe(args) -> float:
    """Set-up time of the workload in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return float(done.stdout.split()[-1])


def run_step(step, failed_type):
    outputs = []
    failures = 0
    for op in step.ops:
        try:
            outputs.append(op())
        except Exception as exc:  # an operation that raises counts as failed
            outputs.append(failed_type(exc))
            failures += 1
    return outputs, failures


def measure(workload, failed_type, seconds, tracer=None, between_rounds=None):
    """Run rounds of the workload's steps; return per-step best times."""
    steps = workload.steps
    best = [float("inf")] * len(steps)
    attempted = failures = rounds = 0
    timed = last_round = 0.0
    problems = []
    # stop before a round that would take the timed total past `seconds`
    while rounds < MIN_ROUNDS or timed + last_round <= seconds:
        first = rounds == 0
        round_start = timed
        if tracer is not None:
            tracer.new_round()
        for i, step in enumerate(steps):
            if tracer is not None:
                tracer.active = True
            start = time.perf_counter()
            outputs, failed = run_step(step, failed_type)
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.active = False
            timed += elapsed
            best[i] = min(best[i], elapsed)
            attempted += len(step.ops)
            failures += failed
            problems += workload.inspect(i, outputs, first)
            del outputs
        problems += workload.end_round(first)
        last_round = timed - round_start
        rounds += 1
        if between_rounds is not None:
            between_rounds()
    return {"best": best, "attempted": attempted, "failed": failures,
            "rounds": rounds, "timed": timed, "problems": problems}


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = load_workloads()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        print(time.perf_counter() - _T0)
        return 0

    tracer = None
    probes = []
    between = None
    if args.trace:
        from perfbench.trace import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
        for target in tracer.missing:
            print(f"perfbench: not traced, no such function: {target}", file=sys.stderr)
    else:
        # probes between rounds sample set-up across the whole run
        def between():
            if len(probes) < SETUP_PROBES:
                probes.append(setup_probe(args))

    result = measure(workload, workloads.Failed, args.seconds, tracer, between)
    run_s = sum(result["best"])
    if tracer is not None:
        tracer.uninstall()
        metrics = layer_metrics(tracer, workload.shape())
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        record = {"workload": args.workload, "seed": args.seed,
                  "rounds": result["rounds"], "traced_run_s": run_s,
                  "metrics": metrics, "trace": tracer.to_json()}
        path.write_text(json.dumps(record))
    else:
        while len(probes) < SETUP_PROBES:
            probes.append(setup_probe(args))
        metrics = {
            "setup_s": {"value": statistics.median(probes), "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    groups: dict[str, float] = {}
    for step, best in zip(workload.steps, result["best"]):
        group = step.label.rstrip("0123456789 ")
        groups[group] = groups.get(group, 0.0) + best
    for group, seconds in groups.items():
        print(f"perfbench: {group}: {seconds:.4f} s", file=sys.stderr)
    problems = result["problems"]
    for problem in problems[:SHOWN_PROBLEMS]:
        print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {result['rounds']} rounds, "
          f"{result['timed']:.2f} s timed, run_s {run_s:.4f}, "
          f"{len(problems)} problems", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
