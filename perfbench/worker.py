"""One benchmark pass, run by ``run.py`` in a fresh process.

The pass writes the seeded inputs, runs the workload's jobs in order through
``graphconf.cli.main`` (one job at a time), checks every report against its
pinned answer and prints one JSON line:

    setup_s       from the parent's spawn of this process to the first job
    wall_s        the job loop, answer checks included
    peak_rss_mb   this process's own peak resident memory
    attempted, failed, failures
    layers        per-layer metrics, when traced

With ``--setup-only`` it stops before the first job, so that the parent can
sample set-up time more often than it runs passes.  ``--validate`` then also
checks the written inputs against the repository's schemas; the check runs
after set-up time is taken, so the schema library is not part of it.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, observed

ROOT = Path(__file__).resolve().parent.parent


def run_job(cli, job, paths, out):
    """Run one job; returns a list of problems (empty when it passed)."""
    argv = [a.format(**paths) for a in job.argv] + ["--out", str(out)]
    if out.exists():
        out.unlink()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        return ["raised " + traceback.format_exc(limit=3)]
    if code != 0:
        return [f"exit code {code}, expected 0"]
    report = json.loads(out.read_text())
    problems = []
    for key, want in job.pinned.items():
        try:
            got = observed(report, key)
        except (KeyError, TypeError) as exc:
            got = f"<missing: {exc!r}>"
        if got != want:
            problems.append(f"{key} = {got!r}, pinned {want!r}")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="the parent's time.perf_counter() at spawn")
    parser.add_argument("--trace", default=None,
                        help="trace the pass and write its spans to this file")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--validate", action="store_true")
    args = parser.parse_args(argv)

    import graphconf.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"graphconf was imported from {cli.__file__}, "
                         f"not from {ROOT / 'src'}")
    from inputs import validate_inputs, write_inputs

    workload = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    paths = write_inputs(workload.inputs, args.seed, workdir)
    setup_s = time.perf_counter() - args.spawned_at
    if args.validate:
        validate_inputs(paths, ROOT / "schemas")
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer().install()

    out = workdir / "report.json"
    failed, failures = 0, []
    start = time.perf_counter()
    for i, job in enumerate(workload.jobs):
        problems = run_job(cli, job, paths, out)
        failed += bool(problems)
        failures += [f"job {i} ({' '.join(job.argv)}): {p}" for p in problems]
    wall_s = time.perf_counter() - start

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(workload.jobs),
        "failed": failed,
        "failures": failures,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(wall_s)
        Path(args.trace).write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "wall_s": wall_s,
            "span_fields": ["name", "start", "end", "parent"],
            "spans": tracer.spans, "counts": dict(tracer.counts)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
