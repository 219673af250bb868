"""tubeplan benchmark: one workload per invocation, from the checkout root.

    python3 bench/run.py --workload plan --seed 1 --seconds 15 --trace 0

Untraced (``--trace 0``) runs report the end-to-end metrics; a traced run
(``--trace 1``) reports the per-layer metrics and the tracing overhead.
The last line of standard output is the JSON result.  See README.md.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402  (the clock above starts set-up time)
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import stamp  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
# workloads.py imports NumPy, which has to wait for cap_blas_threads()
WORKLOAD_NAMES = ("plan", "swarm_corridor", "members")
SETUP_REPEATS = 3
MIN_PASSES = 2      # a repeat is needed for the byte-identical output check


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measure passes for at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _seconds(values) -> str:
    return ", ".join(f"{v:.3f}" for v in values) + " s"


def main(argv=None) -> int:
    args = _args(argv)
    loadavg = os.getloadavg()
    src = ROOT / "src"
    if not (src / "tubeplan" / "cli.py").is_file() \
            or not (ROOT / "scenarios").is_dir():
        print(f"error: {ROOT} is not a tubeplan checkout "
              "(src/tubeplan and scenarios/ are required)", file=sys.stderr)
        return 2
    stamp.cap_blas_threads()
    sys.path.insert(0, str(src))
    from tubeplan.cli import main as cli_main

    import layers
    import tracing
    from workloads import WORKLOADS, Session
    import_s = time.perf_counter() - START

    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    session = Session(cli_main)
    bench = WORKLOADS[args.workload](ROOT, work, args.seed, session)
    print("environment: "
          + json.dumps(stamp.environment(ROOT, loadavg), sort_keys=True))

    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        bench.setup()
        setups.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setups)

    passes = []
    if args.trace:
        # one untraced pass, then the same pass traced
        tracer = tracing.Tracer()
        for traced in (False, True):
            session.tracer = tracer if traced else None
            passes.append(bench.run_pass())
        session.tracer = None
        metrics = layers.per_layer_metrics(tracer, passes[0].command_s,
                                           passes[1].command_s)
    else:
        loop_start = time.perf_counter()
        while (len(passes) < MIN_PASSES
               or time.perf_counter() - loop_start < args.seconds):
            passes.append(bench.run_pass())
        metrics = {
            "setup_s": (setup_s, "s"),
            "command_s": (statistics.median(p.command_s for p in passes),
                          "s"),
            "work_per_s": (statistics.median(p.work_per_s for p in passes),
                           "1/s"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}: "
          f"set-ups {_seconds(setups)}, import {import_s:.3f} s, "
          f"passes {_seconds(p.command_s for p in passes)} (CLI time)")
    for problem in session.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    if session.unwrapped:
        print("warning: not in the package, so reported as 0: "
              + ", ".join(sorted(session.unwrapped)), file=sys.stderr)
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name} = {value:.6g} {unit}")
    if not args.trace:
        for name, (_, unit) in passes[0].details.items():
            value = statistics.median(p.details[name][0] for p in passes)
            print(f"  ({args.workload} detail) {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
