"""Self-check of the benchmark; takes about half a minute.

    python3 perfbench/selfcheck.py

Runs ``run.py`` on the ``smoke`` workload (every layer, at n=2) with
``--seconds 0``, so each run makes exactly one round of passes, and checks:

* with ``--trace 0`` it prints every end-to-end metric of BENCHMARK.json, and
  with ``--trace 1`` every per-layer metric, each with its declared unit;
* two seeds relabel the inputs differently, yet both reproduce every pinned
  answer, and the schema check accepts the inputs and rejects a broken one;
* every traced layer recorded time, so no wrapper missed its binding;
* no span has a negative self time, every root span is ``cli.main``, and the
  time outside the root spans is a small share of the traced wall time, so
  the spans cover the job loop;
* in a directory holding only BENCHMARK.json and the benchmark's files, the
  benchmark fails without printing a result.

Exits 0 when every check passes and 1 otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

from tracing import SELF_TIME

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench"
# Largest share of a traced smoke pass that may fall outside every cli.main
# span: the answer checks between jobs take about 2%.
UNTRACED_MAX_SHARE = 0.2


def run(seed, trace, root=ROOT):
    cmd = [sys.executable, str(root / HERE.name / "run.py"), "--workload", "smoke",
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


def result_of(seed, trace):
    code, lines, errors = run(seed, trace)
    if code != 0:
        raise AssertionError(f"seed {seed}, trace {trace}: exit code {code}\n{errors}")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    return result


def check_metric_names(result, declared):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    assert got == want, f"metrics {sorted(got)} differ from {sorted(want)}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name


def check_inputs():
    sys.path.insert(0, str(ROOT / "src"))
    from jsonschema import ValidationError
    from inputs import validate_inputs, write_inputs

    texts = []
    for seed in (1, 2):
        out = SCRATCH / f"selfcheck-inputs-{seed}"
        out.mkdir(parents=True, exist_ok=True)
        paths = write_inputs(("star3", "circle_family_3", "star_family"), seed, out)
        validate_inputs(paths, ROOT / "schemas")
        texts.append({name: Path(p).read_text() for name, p in paths.items()})
        family = json.loads(texts[-1]["star_family"])
        del family["summands"][0]["graph"]["vertices"]
        Path(paths["star_family"]).write_text(json.dumps(family))
        try:
            validate_inputs(paths, ROOT / "schemas")
            raise AssertionError("a family whose summand graph has no vertices passed")
        except ValidationError:
            pass
        finally:
            shutil.rmtree(out)
    assert texts[0] != texts[1], "seeds 1 and 2 wrote identical inputs"


def check_spans(layers, dump):
    silent = [m for m in SELF_TIME.values() if layers[m]["value"] <= 0]
    assert not silent, f"layers that recorded no time: {silent}"
    assert layers["trace.missing_targets"]["value"] == 0
    wall, untraced = layers["trace.wall_s"]["value"], layers["trace.untraced_s"]["value"]
    assert 0 <= untraced <= UNTRACED_MAX_SHARE * wall, (untraced, wall)

    spans = json.loads(dump.read_text())["spans"]
    assert len(spans) == layers["trace.spans"]["value"], (len(spans), dump)
    self_time = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            self_time[parent] -= end - start
    negative = [(spans[i][0], t) for i, t in enumerate(self_time) if t < -1e-9]
    assert not negative, f"spans with negative self time: {negative[:5]}"
    roots = {name for name, _, _, parent in spans if parent < 0}
    assert roots == {"cli.main"}, f"root spans: {sorted(roots)}"


def check_bare_directory():
    bare = SCRATCH / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        code, lines, _ = run(1, 0, root=bare)
    finally:
        shutil.rmtree(bare)
    assert code != 0, "the benchmark succeeded without the program's sources"
    assert not any(line.startswith("{") for line in lines), lines


def check_traced(spec):
    result = result_of(3, 1)
    check_metric_names(result, spec["per_layer"])
    check_spans(result["metrics"], SCRATCH / "spans" / "smoke-seed3-pass0.json")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    checks = [
        ("seeded inputs differ between seeds and follow the schemas", check_inputs),
        ("seed 1: pinned answers and end-to-end metric names",
         lambda: check_metric_names(result_of(1, 0), spec["end_to_end"])),
        ("seed 2: pinned answers and end-to-end metric names",
         lambda: check_metric_names(result_of(2, 0), spec["end_to_end"])),
        ("traced run: per-layer metric names, every layer recorded, spans cover the jobs",
         lambda: check_traced(spec)),
        ("no result without the program's sources", check_bare_directory),
    ]
    failures = 0
    for name, check in checks:
        try:
            check()
            print(f"ok    {name}")
        except AssertionError as exc:
            failures += 1
            print(f"FAIL  {name}: {exc}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
