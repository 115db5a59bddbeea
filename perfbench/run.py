#!/usr/bin/env python3
"""The bottlenet benchmark: end-to-end times, checked outputs, per-layer spans.

One workload in this process:

    python3 perfbench/run.py --workload converge-generic --seed 1 --seconds 20 --trace 0

Every workload, each in a fresh process, one after another:

    python3 perfbench/run.py --seed 1

Two sets of ten runs over fresh seeds, with each end-to-end metric's
spread and median shift printed against its bound in BENCHMARK.json:

    python3 perfbench/run.py --steady

A run builds its workload's inputs, discards one warm-up round, then
repeats whole rounds (set up, simulate, summarize, replay, check) until
``--seconds`` have passed, and reports each end-to-end time as the median
over every timed sample of its phase. With ``--trace 1`` it alternates
untraced and traced rounds and reports the per-layer metrics instead. The
last line of standard output is one JSON object: correct, attempted,
failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
RESULTS = HERE / "results"

PHASES = ("setup_s", "simulate_s", "summarize_s", "replay_s")
MIN_ROUNDS = 3
PHASE_TARGET_S = 0.5      # timed samples per phase per round, in seconds
SAMPLE_MIN_S = 0.05       # a graph's step shorter than this is timed in batches
MAX_REPEATS = 10
STEADY_SETS = (range(1, 11), range(11, 21))
# Under faults the live summary measures against the fault-mutated topology,
# and the trace has no record of the routes that hello_tick and
# on_delivery_failure drop, so the replayed summary differs from the live
# one. It differs on all but a few seeds (299 of 300 churn-generic
# instances), so the check runs only on churn-generic's fixed-input
# scenario, where it fails on every run, and is counted as failed there.
KNOWN_FAULTS = {("churn-generic", "live_equals_replay")}


def import_program() -> None:
    """Put the checkout's own src/ first on the path, or stop."""
    package = SRC / "bottlenet"
    if not (package / "__init__.py").is_file():
        sys.exit(f"run.py: {package} not found; run from a bottlenet checkout")
    sys.path.insert(0, str(SRC))
    import bottlenet
    if Path(bottlenet.__file__).resolve().parent != package.resolve():
        sys.exit(f"run.py: imported bottlenet from {bottlenet.__file__}, not {package}")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class WorkloadRun:
    """One workload's inputs for one seed, and the rounds run over them."""

    def __init__(self, workload, seed: int, workdir: Path) -> None:
        from bottlenet import network, topogen
        from truth import Graph

        self.w = workload
        self.dir = workdir
        self.graphs = []
        self.scenarios = []         # one scenario document per graph
        for gi, gen_seed in enumerate(workload.gen_seeds):
            path = self.topo_path(gi)
            network.save_topology(
                topogen.generate_topology(workload.kind, workload.nodes, gen_seed),
                str(path))
            self.graphs.append(Graph.from_file(str(path)))
            fixed = random.Random(f"{workload.name}:{gi}")
            rng = (fixed if gi < workload.fixed_scenarios
                   else random.Random(f"{workload.name}:{seed}:{gi}"))
            doc = workload.plan(self.graphs[gi], fixed, rng)
            self.scenarios.append({"topology": {"file": path.name}, **doc})
        self.reference: list[tuple[str, str]] = []    # digests of the warm-up round

    def topo_path(self, gi: int) -> Path:
        return self.dir / f"g{gi}.topo.json"

    def trace_path(self, gi: int) -> Path:
        return self.dir / f"g{gi}.trace.jsonl"

    def setup(self, gi: int):
        """Build one graph's inputs: generate and save its topology, write
        and load its scenario file."""
        from bottlenet import config, network, topogen

        network.save_topology(
            topogen.generate_topology(self.w.kind, self.w.nodes, self.w.gen_seeds[gi]),
            str(self.topo_path(gi)))
        path = self.dir / f"g{gi}.scenario.json"
        with open(path, "w") as fh:
            json.dump(self.scenarios[gi], fh)
        return config.load_scenario(str(path))

    def replay(self, gi: int, trace):
        """Write one trace as JSONL, load it back and summarize it."""
        from bottlenet import engine, metrics, network

        trace.write(str(self.trace_path(gi)))
        return metrics.summarize(engine.load_trace(str(self.trace_path(gi))),
                                 network.load_topology(str(self.topo_path(gi))))

    def round(self, plan: dict[str, tuple[int, int]]) -> tuple[dict[str, list[float]], dict]:
        """One round: each phase over every graph. plan[phase] is (repeats,
        batch): the phase is timed `repeats` times back to back. A sample
        times each graph's step on its own, running it `batch` times and
        counting the mean, rescales it by the calibration kernel run just
        before and just after it (see clock.py) and sums over the graphs.
        Returns every sample's calibrated time, the raw wall times and the
        outputs of the last sample of each phase."""
        from bottlenet import engine, metrics

        times: dict[str, list[float]] = {}
        raw: dict[str, list[float]] = {}
        graphs = range(len(self.graphs))

        def timed(phase, step):
            repeats, batch = plan[phase]
            times[phase], raw[phase] = [], []
            for _ in range(repeats):
                # The last sample's outputs are freed here, so that
                # peak_rss_mb counts one set of them.
                outs, calibrated, wall = [], 0.0, 0.0
                before = clock.kernel_s()
                for gi in graphs:
                    gc.collect()
                    t0 = time.perf_counter()
                    for _ in range(batch - 1):
                        step(gi)
                    outs.append(step(gi))
                    t = (time.perf_counter() - t0) / batch
                    after = clock.kernel_s()
                    calibrated += t * clock.REFERENCE_S / ((before + after) / 2)
                    wall += t
                    before = after
                times[phase].append(calibrated)
                raw[phase].append(wall)
            return outs

        scenarios = timed("setup_s", self.setup)
        traces = timed("simulate_s", lambda gi: engine.run(scenarios[gi]))
        live = timed("summarize_s", lambda gi: metrics.summarize(traces[gi]))
        replayed = timed("replay_s", lambda gi: self.replay(gi, traces[gi]))
        return times, {"traces": traces, "live": live, "replayed": replayed,
                       "times": times, "raw": raw}

    def output_digests(self) -> list[tuple[str, str]]:
        """(trace, topology) digests per graph."""
        return [(digest(self.trace_path(gi)), digest(self.topo_path(gi)))
                for gi in range(len(self.graphs))]

    def check(self, outputs: dict, tally: dict[str, list[int]]) -> None:
        """Run every check on every instance; tally[name] = [passed, failed]."""
        import checks

        now = self.output_digests()
        for gi, g in enumerate(self.graphs):
            tr, live, replayed = (outputs[k][gi] for k in ("traces", "live", "replayed"))
            results = {
                "route_paths": checks.route_paths(tr, g),
                "bottle_bytes": checks.bottle_bytes(tr, live),
                "deterministic": now[gi] == self.reference[gi],
            }
            if not self.w.faults or gi < self.w.fixed_scenarios:
                results["live_equals_replay"] = checks.live_equals_replay(live, replayed)
            if not self.w.faults:
                results["final_tables"] = checks.final_tables(tr, g)
                results["optimality"] = checks.optimality(tr, live, g)
            if self.w.partitioned:
                results["partition"] = checks.partition(tr, g)
            for name, ok in results.items():
                tally.setdefault(name, [0, 0])[0 if ok else 1] += 1


def layer_metrics(agg: dict, tracer, outputs: dict, run: WorkloadRun,
                  simulate_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced round; span times are rescaled like
    the round's phase times."""
    raw = outputs["raw"]
    scale = statistics.median(outputs["times"][p][0] / raw[p][0] for p in PHASES)

    def get(name: str, key: str) -> float:
        value = agg.get(name, {}).get(key, 0)
        return value if key == "calls" else value * scale

    traces, live = outputs["traces"], outputs["live"]
    events = sum(tr.meta["events_processed"] for tr in traces)
    ticks = get("network.hello_tick", "calls")
    launched = sum(s.discoveries_attempted + s.retries for s in live)
    successes = sum(s.discoveries_succeeded for s in live)
    return {
        "topogen.generate_topology.s": get("topogen.generate_topology", "s"),
        "topogen.attempts_per_graph": (get("oracle.components", "calls")
                                       / get("topogen.generate_topology", "calls")),
        "network.live_neighbors.calls": get("network.live_neighbors", "calls"),
        "network.live_neighbors.s": get("network.live_neighbors", "s"),
        "network.hello_tick.calls": ticks,
        "network.hello_tick.self_s": get("network.hello_tick", "self_s"),
        "network.hello_tick.changed_ratio": tracer.hello_changed / ticks if ticks else 0.0,
        "network.load_topology.s": get("network.load_topology", "s"),
        "engine.events_processed": events,
        "engine.loop.self_s": get("engine.loop", "self_s"),
        "engine.us_per_event": simulate_s / events * 1e6,
        "engine.trace_records": sum(len(tr.events) for tr in traces),
        "engine.trace_bytes": sum(run.trace_path(gi).stat().st_size
                                  for gi in range(len(run.graphs))),
        "engine.trace_write.s": get("engine.trace_write", "s"),
        "engine.load_trace.s": get("engine.load_trace", "s"),
        "fsm.handle_bottle.calls": get("fsm.handle_bottle", "calls"),
        "fsm.handle_bottle.self_s": get("fsm.handle_bottle", "self_s"),
        "fsm.update_table_from_history.calls": get("fsm.update_table_from_history", "calls"),
        "fsm.update_table_from_history.s": get("fsm.update_table_from_history", "s"),
        "fsm.choose_next_hop.s": get("fsm.choose_next_hop", "s"),
        "fsm.handle_route_request.calls": get("fsm.handle_route_request", "calls"),
        "fsm.handle_route_request.self_s": get("fsm.handle_route_request", "self_s"),
        "fsm.on_timeout.calls": get("fsm.on_timeout", "calls"),
        "fsm.on_delivery_failure.calls": get("fsm.on_delivery_failure", "calls"),
        "fsm.bottles_per_success": launched / max(successes, 1),
        "domain.serialize_bottle.calls": get("domain.serialize_bottle", "calls"),
        "domain.serialize_bottle.s": get("domain.serialize_bottle", "s"),
        "domain.bottle_bytes": sum(tr.meta["bottle_bytes_sent"] for tr in traces),
        "oracle.bfs_distance.calls": get("oracle.bfs_distance", "calls"),
        "oracle.bfs_distance.s": get("oracle.bfs_distance", "s"),
        "oracle.components.calls": get("oracle.components", "calls"),
        "metrics.summarize.self_s": get("metrics.summarize", "self_s"),
        "metrics.episodes.s": get("metrics.episodes", "s"),
        "metrics.table_optimality.self_s": get("metrics.table_optimality", "self_s"),
        "metrics.reconstruct_tables.s": get("metrics.reconstruct_tables", "s"),
    }


def median_of(rows: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import_program()
    from tracer import Tracer
    from workloads import WORKLOADS

    spec = load_spec()
    workload = WORKLOADS[name]
    workdir = WORK / f"{name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    once = dict.fromkeys(PHASES, (1, 1))
    try:
        run = WorkloadRun(workload, seed, workdir)
        warm = run.round(once)[0]                    # warm-up, discarded
        run.reference = run.output_digests()
        # A graph's step shorter than SAMPLE_MIN_S runs in batches, so that
        # every timed span lasts at least that long. Short phases repeat
        # within a round so that every phase gets about PHASE_TARGET_S of
        # samples per round; the median then rests on enough samples to
        # ride out bursts of contention on the host.
        plan = {}
        for p in PHASES:
            batch = math.ceil(SAMPLE_MIN_S * len(run.graphs) / warm[p][0])
            repeats = max(1, min(MAX_REPEATS, round(PHASE_TARGET_S / (batch * warm[p][0]))))
            plan[p] = (repeats, batch)
        tally: dict[str, list[int]] = {}
        samples = {p: [] for p in PHASES}
        raw = {p: [] for p in PHASES}
        traced, layers = [], []
        tracer = Tracer()
        rounds = 0
        start = time.perf_counter()
        while rounds < (1 if trace else MIN_ROUNDS) or time.perf_counter() - start < seconds:
            outputs = None          # free the last round's traces before the next
            times, outputs = run.round(plan)
            run.check(outputs, tally)
            for p in PHASES:
                samples[p] += times[p]
                raw[p] += outputs["raw"][p]
            rounds += 1
            if trace:
                outputs = None
                with tracer:
                    times, outputs = run.round(once)
                run.check(outputs, tally)
                traced.append({p: t[0] for p, t in times.items()})
                layers.append(layer_metrics(tracer.aggregate(), tracer, outputs, run,
                                            statistics.median(samples["simulate_s"])))
        untraced = {p: statistics.median(s) for p, s in samples.items()}
        if trace:
            RESULTS.mkdir(exist_ok=True)
            tracer.write(str(RESULTS / f"spans-{name}-s{seed}.tsv"))
            values = median_of(layers)
            values["trace.overhead_s"] = (sum(median_of(traced).values())
                                          - sum(untraced.values()))
            declared = spec["per_layer"]
        else:
            values = dict(untraced)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(values):
        raise SystemExit(f"run.py: metrics {sorted(set(units) ^ set(values))} "
                         "differ from BENCHMARK.json")
    attempted = sum(p + f for p, f in tally.values())
    failed = sum(f for _, f in tally.values())
    unexpected = [c for c, (_, f) in tally.items() if f and (name, c) not in KNOWN_FAULTS]

    print(f"workload {name}  seed {seed}  rounds {rounds}  trace {int(trace)}  "
          "repeats×batch " + " ".join(f"{p}={r}×{b}" for p, (r, b) in plan.items()))
    for check, (passed, fails) in sorted(tally.items()):
        note = "  (known fault)" if (name, check) in KNOWN_FAULTS and fails else ""
        print(f"  check {check:<20} passed {passed:>5}  failed {fails:>5}{note}")
    for metric in units:
        wall = f"  (wall {statistics.median(raw[metric]):.6g} s)" if metric in raw else ""
        print(f"  {metric:<40} {values[metric]:>14.6g} {units[metric]}{wall}")
    print(f"  attempted {attempted}  failed {failed}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }))
    return 0


def child_run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in a fresh process and return its result object."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, timeout=seconds + 140)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def steady(workloads: list[str], seconds: float) -> int:
    """Two sets of runs on fresh seeds; each metric's spread and shift vs its bound."""
    spec = load_spec()
    results = {w: [[] for _ in STEADY_SETS] for w in workloads}
    for k, seeds in enumerate(STEADY_SETS):
        for seed in seeds:
            for w in workloads:
                res = child_run(w, seed, seconds, trace=False)
                results[w][k].append(res)
                vals = "  ".join(f"{m}={v['value']:.4g}" for m, v in res["metrics"].items())
                print(f"set {k + 1} seed {seed:>3} {w:<17} {vals}", flush=True)
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json", "w") as fh:
        json.dump(results, fh, indent=1)

    ok = True
    for w in workloads:
        print(f"\n{w}")
        shares = {(r["failed"], r["attempted"]) for rs in results[w] for r in rs}
        same_share = len({f / a for f, a in shares}) == 1
        ok &= same_share
        print(f"  failed/attempted: {sorted(shares)}  {'same share' if same_share else 'SHARE DIFFERS'}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cols = []
            meds = []
            for rs in results[w]:
                vals = [r["metrics"][name]["value"] for r in rs]
                meds.append(statistics.median(vals))
                s = spread(vals)
                good = s <= bound
                ok &= good
                cols.append(f"median {meds[-1]:.4g} spread {s:.3f}{'' if good else ' !'}")
            worse = (meds[1] - meds[0]) / meds[0]
            if m["better"] == "higher":
                worse = -worse
            good = worse <= bound
            ok &= good
            print(f"  {name:<12} bound {bound:.2f}  " + "  |  ".join(cols)
                  + f"  |  shift {worse:+.3f}{'' if good else ' !'}")
    print("\nsteady" if ok else "\nNOT STEADY")
    return 0 if ok else 1


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append",
                        help="workload to run (default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", action="store_true",
                        help="run two sets of ten seeds and print spreads against the bounds")
    args = parser.parse_args()
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    names = args.workload or list(WORKLOADS)

    if args.steady:
        import_program()
        return steady(names, seconds)
    if len(names) == 1:
        return run_workload(names[0], args.seed, seconds, bool(args.trace))
    import_program()
    combined = {}
    for name in names:
        combined[name] = child_run(name, args.seed, seconds, bool(args.trace))
        print(f"{name}: " + "  ".join(f"{m} {v['value']:.6g} {v['unit']}"
                                      for m, v in combined[name]["metrics"].items())
              + f"  attempted {combined[name]['attempted']} failed {combined[name]['failed']}",
              flush=True)
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
