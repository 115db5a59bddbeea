#!/usr/bin/env python3
"""Measure how routing knowledge converges under sustained random traffic.

For each seed, a 15-node network serves 50 sequential random requests.
Table optimality (fraction of entries already at the shortest-path hop
count) is sampled every 10 requests, and discovery stretch is bucketed by
request index.

Usage: python scripts/convergence_sweep.py [--seeds N] [--requests N]
"""

import argparse
import tempfile
from pathlib import Path
from statistics import fmean, median

from bottlenet import generate_topology, oracle, run, save_topology
from bottlenet.config import RandomRequests, ScenarioConfig
from bottlenet.metrics import episodes, reconstruct_tables, table_optimality

WINDOW = 10


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--requests", type=int, default=50)
    args = parser.parse_args()

    n_windows = args.requests // WINDOW
    optimality = [[] for _ in range(n_windows)]
    stretch = [[] for _ in range(n_windows)]
    deliveries = [[] for _ in range(n_windows)]

    with tempfile.TemporaryDirectory() as tmp:
        for seed in range(args.seeds):
            t = generate_topology("generic", 15, seed)
            topo_path = Path(tmp) / f"net{seed}.json"
            save_topology(t, str(topo_path))
            sc = ScenarioConfig(seed=seed, topology_file=str(topo_path),
                                random_requests=RandomRequests(count=args.requests))
            trace = run(sc)
            spacing = trace.meta["spacing"]
            truth = oracle.Distances(t)  # one snapshot serves every query below

            for w in range(n_windows):
                cutoff = 1 + (w + 1) * WINDOW * spacing - 1
                tables = reconstruct_tables(trace, up_to=cutoff)
                optimality[w].append(table_optimality(tables, truth) or 0.0)

            for ep in episodes(trace):
                if ep.outcome != "success":
                    continue
                idx = (ep.start_at - 1) // spacing
                dist = truth.between(ep.src, ep.dest)
                if dist and idx < args.requests:
                    stretch[idx // WINDOW].append(ep.found_hops / dist)

            for ev in trace.records("Received"):
                if ev.data.get("msg") == "data" and ev.node == ev.data["dest"]:
                    idx = (ev.at - 1) // spacing
                    src, dest = ev.data["src"], ev.data["dest"]
                    dist = truth.between(src, dest)
                    if dist and idx < args.requests:
                        hops = len(ev.data["path"]) - 1
                        deliveries[idx // WINDOW].append(hops / dist)

    header = (f"{'requests':>10} | {'median optimality':>17} | "
              f"{'discovery stretch':>17} | {'delivery stretch':>16}")
    print(header)
    print("-" * len(header))
    for w in range(n_windows):
        lo, hi = w * WINDOW + 1, (w + 1) * WINDOW
        disc = f"{fmean(stretch[w]):.2f} (n={len(stretch[w])})" if stretch[w] else "-"
        deliv = (f"{fmean(deliveries[w]):.2f} (n={len(deliveries[w])})"
                 if deliveries[w] else "-")
        print(f"{f'{lo}-{hi}':>10} | {median(optimality[w]):>17.3f} | "
              f"{disc:>17} | {deliv:>16}")


if __name__ == "__main__":
    main()
