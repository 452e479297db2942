"""graphconf benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/``.  The workloads, their pinned answers and why each was chosen are in
``workloads.py``; the seeded inputs are made by ``inputs.py``.

Load is a closed loop from one client: passes run one after another, each in
a fresh single-threaded process (``worker.py``), so that peak memory belongs
to one pass of one workload.  Within a pass the jobs also run one at a time.
First a few processes only set up (start the interpreter, import graphconf,
write the inputs), so set-up time is sampled more often than passes run; the
first of them also validates the inputs against the repository's schemas.
Then passes run until another would not fit in ``--seconds``; there is always
at least one.

With ``--trace 0`` the result holds the end-to-end metrics:

    wall_s       median time of one pass over the job list
    peak_rss_mb  median peak resident memory of a pass's process
    setup_s      median time from process spawn to the first job

With ``--trace 1`` every round is an untraced pass followed by a traced one,
and the result holds the per-layer metrics of ``tracing.py`` (medians over
the traced passes) plus ``trace.overhead_frac``, the traced over the untraced
median wall time, minus one.  Spans of each traced pass are written to
``.perfbench/spans/`` under the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A job fails when it
raises, exits with a code other than 0, or reports another answer than
pinned; failures are counted, not fatal.  A pass that cannot run at all
(for instance because there is no ``src/graphconf``) ends the benchmark with
a non-zero exit code and no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from tracing import PER_LAYER, combine, unit_of
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
SETUP_PROBES = 9
# Room past --seconds for the round that crosses it.  A round that would end
# later still is cut off, and the rounds completed before it are reported.
ROUND_MARGIN_S = 150


def machine():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": cpu,
    }


class Runner:
    """Spawns worker processes one at a time, within an overall deadline."""

    def __init__(self, workload, seed, workdir, seconds):
        self.base = ["--workload", workload, "--seed", str(seed), "--workdir", str(workdir)]
        self.deadline = time.perf_counter() + seconds + ROUND_MARGIN_S
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")

    def spawn(self, *extra):
        spawned_at = time.perf_counter()
        cmd = [sys.executable, str(HERE / "worker.py"), *self.base, *extra,
               "--spawned-at", repr(spawned_at)]
        # subprocess.run kills and reaps the worker if the deadline passes.
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, self.deadline - spawned_at))
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(runner, seconds, trace, spans_dir, seed, workload):
    setups = [runner.spawn("--setup-only", "--validate")["setup_s"]]
    setups += [runner.spawn("--setup-only")["setup_s"] for _ in range(SETUP_PROBES - 1)]
    untraced, traced = [], []
    began = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        try:
            plain = runner.spawn()
            if trace:
                spans = spans_dir / f"{workload}-seed{seed}-pass{len(traced)}.json"
                traced.append(runner.spawn("--trace", str(spans)))
        except subprocess.TimeoutExpired:
            if not untraced:
                raise
            break
        untraced.append(plain)
        now = time.perf_counter()
        if (now - began) + (now - round_start) > seconds:
            break
    setups += [p["setup_s"] for p in untraced + traced]
    return setups, untraced, traced


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "graphconf" / "cli.py").is_file():
        print(f"error: no graphconf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench"
    spans_dir = scratch / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    workdir = scratch / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        runner = Runner(args.workload, args.seed, workdir, args.seconds)
        setups, untraced, traced = measure(runner, args.seconds, args.trace,
                                           spans_dir, args.seed, args.workload)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = untraced + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for problem in p["failures"]:
            print(f"FAILED {problem}", file=sys.stderr)

    w = WORKLOADS[args.workload]
    print(f"machine: {json.dumps(machine())}")
    print(f"workload {args.workload}: {w.why}")
    print(f"  exercises: {w.exercises}; bypasses: {w.bypasses}")
    print(f"closed loop, 1 client, 1 job in flight; {len(untraced)} untraced "
          f"and {len(traced)} traced passes, {len(setups)} set-up samples")
    print(f"failed_frac = {failed}/{attempted} jobs")
    if args.trace:
        metrics = combine([p["layers"] for p in traced], [p["wall_s"] for p in untraced])
        samples = len(traced)
        metrics = {key: (metrics[key], unit_of(key)) for key in PER_LAYER}
    else:
        metrics = {
            "wall_s": median(p["wall_s"] for p in untraced),
            "peak_rss_mb": median(p["peak_rss_mb"] for p in untraced),
            "setup_s": median(setups),
        }
        samples = len(untraced)
        metrics = {key: (value, END_TO_END[key]) for key, value in metrics.items()}
    for key, (value, unit) in metrics.items():
        n = len(setups) if key == "setup_s" else samples
        print(f"metric {key} = {value:.6g} {unit} (median of {n})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
