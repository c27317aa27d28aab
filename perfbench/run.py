"""kneser-lab benchmark: run one workload, run them all, or compare two results.

    python3 perfbench/run.py --workload hom-refute --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 30 --out results.json
    python3 perfbench/run.py --compare old.json new.json

A workload run repeats iterations for about --seconds. An iteration imports
kneser_lab afresh and builds every input graph (set-up), then makes every
call of the workload once (a pass). The answers are checked after the pass,
outside the timed regions, and every iteration must repeat the first one's
answers and node counts exactly.

Times are reported at a reference CPU speed. On a shared machine the CPU
speed can drift by a third within minutes (seen on a 2-vCPU Xeon VM), alike
for kneser_lab and for any other Python code. So while a workload runs, a fixed
reference computation (`reference_work`, benchmark code only) is timed
every 50 ms of CPU time and at the ends of every timed region, and each
region's time, less those samples, is scaled by SLICE_S over the median
sample taken during it (`ReferenceClock`). The measured times are kept in
the line before the last.

The last output line is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. A traced run alternates traced and untraced
iterations, starting with a traced one, and reports the difference in pass
time as the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from tracing import COUNT_UNITS, PER_LAYER, Tracer
from workloads import NODE_CAP, WORKLOADS, Verdict, bits, setup

SRC = Path(__file__).resolve().parent.parent / "src"

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "decided_ratio": "ratio",
    "correct_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# Seconds reference_work takes on the reference machine; a 2-vCPU Xeon VM
# with Python 3.11 measures 0.7 to 1.3 ms.
SLICE_S = 0.001
SAMPLE_EVERY_S = 0.05


def reference_work() -> int:
    """A fixed computation shaped like the solvers' inner loops: generators
    over integer bitsets, small lists and dicts, calls with key functions."""
    word = (1 << 64) - 1
    seen = {}
    total = 0
    for i in range(1, 65):
        row = (i * 0x9E3779B97F4A7C15) & word
        found = list(bits(row))
        total += max(found, key=lambda b: (b * 7 + i) % 11)
        seen[row & 1023] = len(found)
    return total + len(seen)


class ReferenceClock:
    """Converts measured seconds into seconds at the reference speed.

    While active, a SIGPROF handler times one slice of reference_work every
    SAMPLE_EVERY_S of CPU time, so the machine's current speed is known
    throughout a timed call, not only at its ends. `span` returns the time
    between two marks without the handler's own time, and that time scaled
    by SLICE_S over the median slice time sampled in between.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._sampling = False

    def sample(self, *_):
        if self._sampling:  # the timer fired during an explicit sample
            return
        self._sampling = True
        start = perf_counter()
        reference_work()
        took = perf_counter() - start
        self.samples.append(took)
        self.spent += took
        self._sampling = False

    def mark(self) -> tuple[int, float, float]:
        self.sample()
        return len(self.samples), self.spent, perf_counter()

    def span(self, begin, end) -> tuple[float, float]:
        measured = end[2] - begin[2] - (end[1] - begin[1])
        slices = self.samples[begin[0] - 1 : end[0]]
        return measured, measured * SLICE_S / statistics.median(slices)

    def __enter__(self):
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)


def import_lab() -> SimpleNamespace:
    """Import kneser_lab from the source tree, afresh."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "kneser_lab" or m.startswith("kneser_lab.")]:
        del sys.modules[name]
    pkg = importlib.import_module("kneser_lab")
    harness = importlib.import_module("kneser_lab.harness")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"kneser_lab imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(
        families=pkg.families, graphs=pkg.graphs, homsolver=pkg.homsolver,
        coloring=pkg.coloring, cliques=pkg.cliques, dihedral=pkg.dihedral,
        isomorphism=pkg.isomorphism, harness=harness,
        SearchBudget=pkg.SearchBudget, BudgetExhausted=pkg.BudgetExhausted,
        modules=[m for n, m in sys.modules.items() if n.startswith("kneser_lab")],
    )


@dataclass
class Iteration:
    setup_s: float  # scaled to the reference speed, as are wall_s and case_s
    wall_s: float
    case_s: dict[str, float]
    measured_setup_s: float
    measured_wall_s: float
    slice_s: list[float]
    total_s: float  # measured, checks included
    order: list[str]
    verdicts: dict[str, Verdict]
    layers: dict[str, float] | None = None


def iterate(workload: str, seed: int, traced: bool, clique_memo: dict) -> Iteration:
    """One set-up and one pass of a workload, then the checks.

    `clique_memo` caches clique_number nodes per graph across traced
    iterations; they split chromatic_number nodes into bound and search.
    """
    with ReferenceClock() as clock:
        start = perf_counter()
        marks = [clock.mark()]
        lab = import_lab()
        tracer = Tracer(lab) if traced else None
        try:
            cases = setup(lab, workload, random.Random(seed))
            marks.append(clock.mark())
            answers = []
            for case in cases:
                try:
                    answers.append((True, case.run()))
                except Exception as exc:
                    answers.append((False, exc))
                marks.append(clock.mark())
        finally:
            if tracer is not None:
                tracer.close()
    spans = [clock.span(a, b) for a, b in zip(marks, marks[1:])]
    measured = [m for m, _ in spans]
    scaled = [s for _, s in spans]
    verdicts = {}
    for case, (returned, answer) in zip(cases, answers):
        try:
            verdicts[case.name] = case.check(answer) if returned else case.raised(answer)
        except Exception as exc:
            verdicts[case.name] = case.raised(exc)
    layers = None
    if tracer is not None:
        budget = lab.SearchBudget(NODE_CAP, None)

        def clique_nodes(g):
            key = (g.order, g.adj)
            if key not in clique_memo:
                clique_memo[key] = lab.cliques.clique_number(g, budget).nodes
            return clique_memo[key]

        layers = tracer.metrics(clique_nodes, sum(scaled) / sum(measured))
    return Iteration(
        setup_s=scaled[0],
        wall_s=sum(scaled[1:]),
        case_s={case.name: t for case, t in zip(cases, scaled[1:])},
        measured_setup_s=measured[0],
        measured_wall_s=sum(measured[1:]),
        slice_s=clock.samples,
        total_s=perf_counter() - start,
        order=[case.name for case in cases],
        verdicts=verdicts,
        layers=layers,
    )


def changed_counts(layers: list[dict]) -> list[str]:
    """Counts must repeat exactly across traced iterations; times may vary."""
    return [
        f"{name} changed between traced iterations"
        for name, unit in PER_LAYER.items()
        if unit in COUNT_UNITS and any(values[name] != layers[0][name] for values in layers)
    ]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run iterations for about `seconds` and summarise them."""
    # An unset budget would read this variable; every call here passes its own.
    os.environ.pop("KNESER_LAB_BUDGET", None)
    clique_memo = {}
    start = perf_counter()
    runs: list[Iteration] = []
    while True:
        traced = trace and len(runs) % 2 == 0
        runs.append(iterate(workload, seed, traced, clique_memo))
        gc.collect()  # drop the previous import, so peak memory does not grow with iterations
        # start another iteration only if at least half of one still fits
        typical = statistics.median(r.total_s for r in runs)
        if len(runs) >= 1 + trace and perf_counter() - start + typical / 2 > seconds:
            break

    errors = [e for r in runs for v in r.verdicts.values() for e in v.errors]
    first = runs[0]
    for r in runs[1:]:
        for name, v in r.verdicts.items():
            ref = first.verdicts[name]
            if (v.answer, v.nodes) != (ref.answer, ref.nodes):
                errors.append(f"{name}: answer or nodes changed between iterations: "
                              f"{ref.answer} / {ref.nodes} then {v.answer} / {v.nodes}")
    verdicts = [v for r in runs for v in r.verdicts.values()]
    attempted = sum(v.units for v in verdicts)
    failed = sum(v.failed for v in verdicts)

    plain = [r for r in runs if r.layers is None]
    if trace:
        traced = [r for r in runs if r.layers is not None]
        metrics = {
            name: traced[0].layers[name] if unit in COUNT_UNITS
            else statistics.median(r.layers[name] for r in traced)
            for name, unit in PER_LAYER.items() if name != "trace.overhead_s"
        }
        errors += changed_counts([r.layers for r in traced])
        metrics["trace.overhead_s"] = (
            statistics.median(r.wall_s for r in traced) - statistics.median(r.wall_s for r in plain)
        )
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": statistics.median(r.wall_s for r in plain),
            "setup_s": statistics.median(r.setup_s for r in plain),
            "decided_ratio": sum(v.decided for v in verdicts) / attempted,
            "correct_ratio": 1 - failed / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    detail = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "order": first.order,
        "traced": [r.layers is not None for r in runs],
        "wall_s": [r.wall_s for r in runs],
        "setup_s": [r.setup_s for r in runs],
        "measured_wall_s": [r.measured_wall_s for r in runs],
        "measured_setup_s": [r.measured_setup_s for r in runs],
        "slice_s": statistics.median(t for r in runs for t in r.slice_s),
        "cases": {
            name: {"answer": v.answer, "nodes": v.nodes,
                   "seconds": statistics.median(r.case_s[name] for r in runs)}
            for name, v in first.verdicts.items()
        },
        "errors": errors,
    }
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return {"detail": detail, "result": result}


def run_all(seed: int, seconds: float, out: str | None) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    summary = {"seed": seed, "seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        entry = {}
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=seconds + 600)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            detail, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
            entry["end_to_end" if trace == 0 else "per_layer"] = result["metrics"]
            if trace == 0:
                entry.update(
                    correct=result["correct"], attempted=result["attempted"],
                    failed=result["failed"], cases=detail["cases"], errors=detail["errors"],
                    measured_wall_s=statistics.median(detail["measured_wall_s"]),
                )
            else:
                entry["correct"] = entry["correct"] and result["correct"]
                entry["errors"] += detail["errors"]
        summary["workloads"][workload] = entry
        rows = dict(entry["end_to_end"])
        rows["error_ratio"] = {"value": entry["failed"] / entry["attempted"], "unit": "ratio"}
        rows["measured_wall_s"] = {"value": entry["measured_wall_s"], "unit": "s"}
        for name, metric in rows.items():
            print(f"{workload:11s} {name:16s} {metric['value']:>14.6g} {metric['unit']}")
        for error in entry["errors"]:
            print(f"{workload:11s} ERROR {error}")
    if out:
        Path(out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if all(w["correct"] for w in summary["workloads"].values()) else 1


def compare(old_path: str, new_path: str) -> int:
    """Print new/old per workload and metric, flag count changes, and name
    the layer whose self time moved most."""
    old = json.loads(Path(old_path).read_text())["workloads"]
    new = json.loads(Path(new_path).read_text())["workloads"]
    for workload in [w for w in new if w in old]:
        print(f"== {workload}")
        o, n = old[workload], new[workload]
        for section in ("end_to_end", "per_layer"):
            for name, metric in n[section].items():
                if name not in o[section]:
                    continue
                before, after, unit = o[section][name]["value"], metric["value"], metric["unit"]
                ratio = f"{after / before:8.3f}" if before else "     n/a"
                flag = ""
                if unit in COUNT_UNITS and after != before:
                    flag = "  COUNT CHANGED"
                print(f"  {name:26s} new/old {ratio} = {after:.6g} / {before:.6g} {unit}{flag}")
        for name, case in n["cases"].items():
            was = o["cases"].get(name)
            if was is not None and (was["answer"], was["nodes"]) != (case["answer"], case["nodes"]):
                print(f"  NODES CHANGED {name}: old {was['nodes']} ({was['answer']}), "
                      f"new {case['nodes']} ({case['answer']})")
        moves = {
            name: metric["value"] - o["per_layer"][name]["value"]
            for name, metric in n["per_layer"].items()
            if metric["unit"] == "s" and name in o["per_layer"] and name != "trace.overhead_s"
        }
        if moves:
            layer = max(moves, key=lambda name: abs(moves[name]))
            print(f"  self time moved most: {layer} {moves[layer]:+.6g} s "
                  f"(new {n['per_layer'][layer]['value']:.6g} s, old {o['per_layer'][layer]['value']:.6g} s)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, traced and not")
    parser.add_argument("--out", help="with --all: write the results to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two --all result files")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.all:
        return run_all(args.seed, args.seconds, args.out)
    if args.workload is None:
        parser.error("give --workload, --all or --compare")
    try:
        import_lab()
    except ImportError as exc:
        print(f"cannot import kneser_lab from {SRC}: {exc}", file=sys.stderr)
        return 2
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for error in report["detail"]["errors"]:
        print(f"ERROR {error}", file=sys.stderr)
    print(json.dumps(report["detail"], sort_keys=True))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
