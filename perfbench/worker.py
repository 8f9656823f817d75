"""One workload in a fresh interpreter: set-up, closed loop, checks.

Run by run.py with the generated manifest; prints one JSON line.  A round
issues every request of the manifest once, in its order, one at a time; each
request is timed from the moment it is issued until it returns, and checked
right after.  Rounds repeat until the summed request time reaches the
measured seconds, so every run holds whole rounds and the same request mix.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

# A run holds whole rounds of the same M requests.  Each request's latency
# is its mean over the rounds, which averages a shared machine's slow and fast
# spells instead of reading one of them.  The tail is the TAIL_RANK-th most
# expensive request of the mix: (TAIL_RANK - 1) * rounds samples lie beyond it,
# at least ten from MIN_ROUNDS rounds on.
TAIL_RANK = 5
MIN_ROUNDS = 3
# at most this share of traced request time may fall outside every traced
# function; more means a binding was missed and the breakdown is incomplete
UNTRACED_LIMIT = 0.01
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _out_path(argv) -> Path:
    return Path(argv[argv.index("--out") + 1])


class CliWorkload:
    """Requests are in-process `structkit.cli.main(argv)` calls."""

    def __init__(self, requests):
        self.requests = requests

    def setup(self) -> None:
        pass

    def round(self):
        cli = sys.modules["structkit.cli"]
        for req in self.requests:
            # main is looked up per call, so an installed tracer sees it
            yield req, (lambda argv=req["argv"]: cli.main(argv)), None

    def check(self, req, code, _ctx):
        if code != req["exit"]:
            return f"exit code {code}, expected {req['exit']}"
        return self.check_report(req, json.loads(_out_path(req["argv"]).read_text()))


class Polygons(CliWorkload):
    def setup(self) -> None:
        from structkit import corpus
        # what `demo-polygons` builds before its first analysis
        self.corpus = corpus.generate_corpus()
        self.subjects = sorted(s.subject for s in corpus.class_signatures())

    def check_report(self, req, report):
        fired = sorted(s["subject"] for s in report["signatures"] if s["fired"])
        if fired != req["expected"]:
            return f"fired {fired}, expected {req['expected']}"
        if report["problems"]:
            return f"problems {report['problems']}"
        if sorted(s["subject"] for s in report["signatures"]) != self.subjects:
            return "signature list differs from class_signatures()"
        blocks = sorted([b["value"], b["size"]] for b in report["blocks"])
        if report["regions"] != len(req["blocks"]) or blocks != req["blocks"]:
            return (f"{report['regions']} regions, oracle has "
                    f"{len(req['blocks'])} components")
        return None


class Symmetric(CliWorkload):
    def check_report(self, req, report):
        if report["isomorphic"] != (req["exit"] == 0):
            return f"isomorphic={report['isomorphic']}"
        if req["exit"] == 1:
            return None if report["witness"] is None else "witness on a no"
        if not self.witness_holds(report["witness"], req["a"], req["b"]):
            return "witness is not an isomorphism"
        return None

    @staticmethod
    def witness_holds(mapping: dict, a: dict, b: dict) -> bool:
        """mapping is a bijection from a's parts onto b's that maps a's
        undirected edge multiset onto b's (both sides have one part type)."""
        if sorted(mapping) != sorted(a["parts"]) or \
                sorted(mapping.values()) != sorted(b["parts"]):
            return False
        image = Counter(frozenset((mapping[u], mapping[v])) for u, v in a["edges"])
        return image == Counter(frozenset(e) for e in b["edges"])


class Mining(CliWorkload):
    @staticmethod
    def _rule(report, literals, target):
        for rule in report["rules"]:
            got = [(m["subject"], m["positive"])
                   for m in rule["condition"]["members"]]
            if got == literals and \
                    [c["subject"] for c in rule["consequents"]] == [target]:
                return rule
        return None

    def check_report(self, req, report):
        if req["kind"] == "planted":
            rule = self._rule(report, [("A", True)], "X")
            if rule is None:
                return "planted A -> X not mined"
            if abs(rule["p"] - req["planted_p"]) > 0.05:
                return f"A -> X has p={rule['p']}, planted {req['planted_p']}"
        elif req["kind"] == "absence":
            if self._rule(report, [("W", False)], "D") is None:
                return "absence rule not W -> D not mined"
        elif report["rules"]:
            return f"{len(report['rules'])} rules mined from noise"
        return None


class Planning:
    """Requests are library `solver.solve_with_cache` calls.

    Each round starts from an empty plan cache, so every round sees the same
    misses (first sight of a problem class) and hits (its repeat and its
    scaled twin).
    """

    def __init__(self, requests):
        self.requests = requests

    def setup(self) -> None:
        pass

    def round(self):
        import blocks
        from structkit.derivation import MorphismMask
        from structkit.solver import SolutionCache
        from structkit.structure import TypeCatalog
        solver = sys.modules["structkit.solver"]
        catalog = TypeCatalog()
        cache = SolutionCache(MorphismMask.make(drop_part_attrs={"size"}),
                              catalog)
        for req in self.requests:
            spec = blocks.block_spec(tuple(req["blocks"]), req["supports"],
                                     [tuple(g) for g in req["goal"]],
                                     catalog, req["sizes"])
            yield req, (lambda s=spec: solver.solve_with_cache(s, cache)), spec

    def check(self, req, result, spec):
        if result.status != "solved":
            return f"status {result.status}"
        if len(result.plan) != req["distance"]:
            return (f"plan of {len(result.plan)} moves, breadth-first "
                    f"optimum {req['distance']}")
        sys.modules["structkit.solver"].replay(spec, result.plan)
        return None


WORKLOADS = {"polygons": Polygons, "symmetric": Symmetric,
             "planning": Planning, "mining": Mining}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def run_phase(workload, seconds: float, tracer=None, min_rounds=1) -> dict:
    latencies, failures, per_round = [], [], []
    busy = 0.0
    rounds = 0
    while True:
        if tracer is not None:
            tracer.reset_totals()
        for req, call, ctx in workload.round():
            exc = None
            start = perf_counter()
            try:
                result = tracer.root(call) if tracer is not None else call()
            except Exception as e:     # a request that raises counts as failed
                exc = e
            elapsed = perf_counter() - start
            busy += elapsed
            latencies.append((req["name"], elapsed))
            if exc is not None:
                reason = f"raised {type(exc).__name__}: {exc}"
            else:
                try:
                    reason = workload.check(req, result, ctx)
                except Exception as e:  # malformed output fails the check
                    reason = f"check raised {type(e).__name__}: {e}"
            if reason:
                failures.append(f"{req['name']}: {reason}")
        if tracer is not None:
            per_round.append((list(tracer.calls), list(tracer.self_s),
                              dict(tracer.counts)))
        rounds += 1
        if busy >= seconds and rounds >= min_rounds:
            break
    return {"latencies": latencies, "failures": failures, "busy": busy,
            "rounds": rounds, "per_round": per_round}


def end_to_end(phase: dict) -> dict:
    per_request: dict[str, list[float]] = {}
    for name, elapsed in phase["latencies"]:
        per_request.setdefault(name, []).append(elapsed)
    means = sorted((statistics.fmean(v) for v in per_request.values()),
                   reverse=True)
    mix = len(means)
    return {
        "ops_per_s": len(phase["latencies"]) / phase["busy"],
        "latency_p50_ms": statistics.median(means) * 1000,
        "latency_tail_ms": means[TAIL_RANK - 1] * 1000,
        "tail_percentile": 100 * (mix - TAIL_RANK + 0.5) / mix,
        "samples": len(phase["latencies"]),
        "samples_beyond_tail": (TAIL_RANK - 1) * phase["rounds"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, traced: dict, setup_self: list, untraced_ops: float,
              traced_ops: float) -> dict:
    """Counts from the first traced round, self times averaged per round."""
    calls, _, counts = traced["per_round"][0]
    rounds = traced["per_round"]
    self_s = [sum(r[1][i] for r in rounds) / len(rounds)
              for i in range(len(tracer.names))]
    ids = tracer.name_ids

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for entry in json.loads(BENCHMARK.read_text())["per_layer"]:
        metric = entry["name"]
        span, _, kind = metric.rpartition(".")
        if metric == "corpus.generate_corpus.self_s":
            out[metric] = setup_self[ids[span]]
        elif kind == "calls":
            out[metric] = calls[ids[span]]
        elif kind == "self_s":
            out[metric] = self_s[ids[span]]
        elif kind == "hit_ratio":
            out[metric] = ratio(counts.get(f"{span}.hits", 0), calls[ids[span]])
        elif kind == "per_expansion":
            out[metric] = ratio(calls[ids[span]],
                                counts.get("solver.solve.expanded", 0))
        elif metric == "trace.overhead_ratio":
            out[metric] = ratio(untraced_ops, traced_ops)
        else:
            out[metric] = counts.get(metric, 0)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--manifest")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t0 = perf_counter()
    importlib.import_module("structkit.cli")
    requests = []
    if not args.setup_only:
        requests = json.loads(Path(args.manifest).read_text())["requests"]
    workload = WORKLOADS[args.workload](requests)
    workload.setup()
    setup_s = perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    result = {"setup_s": setup_s}
    if not args.trace:
        phase = run_phase(workload, args.seconds, min_rounds=MIN_ROUNDS)
        result.update(end_to_end(phase))
        phases = [phase]
    else:
        import tracing
        untraced = run_phase(workload, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        tracer.root(workload.setup, name=tracing.SETUP)
        setup_self = list(tracer.self_s)
        traced = run_phase(workload, args.seconds / 2, tracer)
        untraced_ops = len(untraced["latencies"]) / untraced["busy"]
        traced_ops = len(traced["latencies"]) / traced["busy"]
        layers = per_layer(tracer, traced, setup_self, untraced_ops, traced_ops)
        # self time of the request root: time outside every traced function
        untraced_share = layers["bench.request.self_s"] * traced["rounds"] \
            / traced["busy"]
        if untraced_share > UNTRACED_LIMIT:
            print(f"trace incomplete: {untraced_share:.1%} of request time is "
                  f"outside every traced function (limit {UNTRACED_LIMIT:.0%})",
                  file=sys.stderr)
            return 1
        result["per_layer"] = layers
        result["traced_rounds"] = traced["rounds"]
        result["untraced_share"] = untraced_share
        if args.trace_out:
            tracer.dump(Path(args.trace_out),
                        {"workload": args.workload, "rounds": traced["rounds"]})
        phases = [untraced, traced]
    failures = [f for p in phases for f in p["failures"]]
    result["attempted"] = sum(len(p["latencies"]) for p in phases)
    result["failed"] = len(failures)
    result["failures"] = failures[:10]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
