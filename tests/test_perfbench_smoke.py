"""One traced ``smoke`` pass of the benchmark's worker: every job keeps its
pinned answer, every traced function still exists, and every layer the
tracer splits time into records some (a call path that bypasses a traced
function would leave its layer at zero)."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from test_trace_targets import load_tracing

ROOT = Path(__file__).resolve().parent.parent


def test_traced_smoke_pass(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"),
         "--workload", "smoke", "--seed", "5", "--workdir", str(tmp_path),
         "--spawned-at", str(time.perf_counter()),
         "--trace", str(tmp_path / "spans.json")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, result["failures"]
    layers = result["layers"]
    assert layers["trace.missing_targets"] == 0
    silent = [m for m in load_tracing().SELF_TIME.values() if not layers[m] > 0]
    assert not silent, f"layers that recorded no time: {silent}"
