"""Run the mutant catalogue.

    python3 mutants/run.py [NAME ...]

For each entry of ``catalogue.MUTANTS`` (or only those named), copy the
repository into a temporary directory, replace the entry's old text by its
new text there, and run the entry's killing tests with pytest.  A mutant is
"killed" when the tests fail, "survived" when they pass, and "stale" when
its old text no longer occurs exactly once or pytest cannot run its tests
(a killing test id that is gone, say).  Before the mutants, the killing
tests run once on an unmutated copy and must pass.

Prints one line per mutant and exits 0 when every one is killed, 1
otherwise.  Uses the standard library only; the tests need pytest.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from catalogue import MUTANTS  # noqa: E402

IGNORE = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache",
                                "__pycache__", ".perfbench", ".benchmarks",
                                HERE.name)
TEST_TIMEOUT = 240


def copy_repository(into):
    target = Path(into) / "repo"
    shutil.copytree(ROOT, target, ignore=IGNORE)
    return target


def run_tests(repo, test_ids):
    """pytest's exit code on the given test ids inside ``repo``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(repo / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           *test_ids]
    try:
        proc = subprocess.run(cmd, cwd=repo, env=env, capture_output=True,
                              text=True, timeout=TEST_TIMEOUT)
    except subprocess.TimeoutExpired:
        return None, "timed out"
    tail = (proc.stdout.strip().splitlines() or [""])[-1]
    return proc.returncode, tail


def verdict(name, path, old, new, test_ids):
    """(status, detail) of one mutant."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        repo = copy_repository(tmp)
        target = repo / path
        text = target.read_text() if target.is_file() else ""
        count = text.count(old)
        if count != 1:
            return "stale", f"old text occurs {count} times in {path}"
        target.write_text(text.replace(old, new))
        code, tail = run_tests(repo, test_ids)
    if code == 1:
        return "killed", tail
    if code == 0:
        return "survived", tail
    return "stale", f"pytest exit {code}: {tail}"


def main(argv):
    chosen = [m for m in MUTANTS if not argv or m[0] in argv]
    unknown = set(argv) - {m[0] for m in MUTANTS}
    if unknown or not chosen:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 1
    t0 = time.time()
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        ids = sorted({t for m in chosen for t in m[4]})
        code, tail = run_tests(copy_repository(tmp), ids)
    if code != 0:
        print(f"the killing tests fail without a mutant: {tail}")
        return 1
    statuses = []
    for name, path, old, new, test_ids in chosen:
        status, detail = verdict(name, path, old, new, test_ids)
        statuses.append(status)
        print(f"{status:9s} {name}: {detail}", flush=True)
    counts = {s: statuses.count(s) for s in ("killed", "survived", "stale")}
    print(f"{counts['killed']} killed, {counts['survived']} survived, "
          f"{counts['stale']} stale of {len(chosen)} in {time.time() - t0:.0f} s")
    return 0 if counts["killed"] == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
