"""Self-check of the benchmark itself, not of structkit.

    python3 perfbench/selfcheck.py

1. Runs the traced `planning` workload twice at seed 7 and requires the
   deterministic work counts to be identical.
2. Generates every workload's inputs at seed 7 and at the held-out seed 2027
   and requires the same shape: the same requests, families and sizes.
Exits 0 when both hold.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402

WORKLOAD = "planning"
SEED = 7
HELD_OUT = 2027
DETERMINISTIC = ("solver.solve.expanded", "pixels.segment_regions.pixels",
                 "pixels.extract_strokes.chains", "rules.mine_rules.rules_emitted",
                 "structure.occurrences.hit_ratio",
                 "solver.solve_with_cache.hit_ratio",
                 "solver.state_recognitions.per_expansion")


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "2", "--trace", "1"],
        capture_output=True, text=True, check=True)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items()
            if k.endswith(".calls") or k in DETERMINISTIC}


def shape(req: dict) -> tuple:
    """What must not depend on the seed: the request and its input sizes."""
    if "a" in req:
        return (req["name"], len(req["a"]["parts"]), len(req["a"]["edges"]),
                len(req["b"]["parts"]), len(req["b"]["edges"]))
    if "distance" in req:
        return (req["name"], len(req["blocks"]), req["distance"])
    text = Path(req["argv"][1]).read_text()
    if req["argv"][0] == "analyze":
        return (req["name"], text.splitlines()[1])
    return (req["name"], len({line.split()[0] for line in text.splitlines()}))


def shapes(workload: str, seed: int) -> list:
    with tempfile.TemporaryDirectory() as tmp:
        manifest = inputs.make_inputs(workload, seed, Path(tmp))
        return sorted(shape(r) for r in manifest["requests"])


def main() -> int:
    ok = True
    first = traced_counts(WORKLOAD, SEED)
    second = traced_counts(WORKLOAD, SEED)
    if first != second:
        ok = False
        for k in sorted(first):
            if first[k] != second.get(k):
                print(f"count {k} differs: {first[k]} vs {second.get(k)}")
    print(f"{WORKLOAD} seed {SEED}: {len(first)} counts "
          f"{'identical' if first == second else 'DIFFER'} across two runs")
    for workload in inputs.WORKLOADS:
        same = shapes(workload, SEED) == shapes(workload, HELD_OUT)
        ok = ok and same
        print(f"{workload}: seeds {SEED} and {HELD_OUT} give "
              f"{'the same' if same else 'DIFFERENT'} workload shape")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
