"""structkit benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload polygons --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout (it needs `src/structkit` and the
test suite's `tests/loggen.py` and `tests/oracles.py`).  It
generates the workload's inputs from the seed into a scratch directory under
`.perfbench/`, measures set-up time in fresh interpreters, runs the closed
loop in one more fresh interpreter (worker.py) and prints a summary line
followed by the result line.  With `--trace 1` the result holds the
per-layer metrics and the spans are written to `.perfbench/trace-<workload>.bin`.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKER = HERE / "worker.py"
BENCHMARK = ROOT / "BENCHMARK.json"
SETUP_PROBES = 4        # measured set-ups before the run and again after it
DEADLINE_S = 170        # the whole run must end within 180 s


def _worker(args: list[str], env: dict, deadline: float) -> dict:
    proc = subprocess.run([sys.executable, str(WORKER), *args], env=env,
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    import inputs

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    deadline = time.monotonic() + DEADLINE_S

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # set and dict iteration order follows the hash seed; tie it to --seed so
    # that a seed repeats the program's work exactly
    env["PYTHONHASHSEED"] = str(args.seed % 2**32)

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        manifest = inputs.make_inputs(args.workload, args.seed, workdir)
        manifest_path = workdir / "manifest.json"
        manifest_path.write_text(json.dumps(manifest))
        def setup_probes(n):
            return [_worker(["--workload", args.workload, "--setup-only"],
                            env, deadline)["setup_s"] for _ in range(n)]

        # the first set-up warms the file caches and is not counted
        setups = setup_probes(SETUP_PROBES + 1)[1:]
        run_args = ["--workload", args.workload, "--manifest", str(manifest_path),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            run_args += ["--trace-out", str(OUT / f"trace-{args.workload}.bin")]
        res = _worker(run_args, env, deadline)
        setups += setup_probes(SETUP_PROBES)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "setup_s_samples": setups,
              "failed_frac": {"value": res["failed"] / res["attempted"],
                              "unit": "ratio"},
              "failures": res["failures"]}
    spec = json.loads(BENCHMARK.read_text())
    if args.trace:
        metrics = {m["name"]: {"value": res["per_layer"][m["name"]],
                               "unit": m["unit"]} for m in spec["per_layer"]}
        detail.update(traced_rounds=res["traced_rounds"],
                      untraced_share=res["untraced_share"])
    else:
        res["setup_s"] = statistics.median(setups)
        metrics = {m["name"]: {"value": res[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        detail.update(tail_percentile=res["tail_percentile"],
                      samples=res["samples"],
                      samples_beyond_tail=res["samples_beyond_tail"])
        detail.update(metrics)
    for failure in res["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    needed = [SRC / "structkit" / "cli.py", ROOT / "tests" / "loggen.py",
              ROOT / "tests" / "oracles.py"]
    missing = [str(p) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a structkit checkout, missing {missing}",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.exit(main())
