#!/usr/bin/env python3
"""Measure how routing knowledge converges under sustained random traffic.

For each seed, a 15-node network serves 50 sequential random requests.
Table optimality (fraction of entries already at the shortest-path hop
count) is sampled every 10 requests, and discovery and delivery stretch are
bucketed by request index; requests past the last full window of 10 are run
but not counted. sweep() returns the figures and print_table() prints them.
Acceptance criterion 5 (tests/test_acceptance.py) asserts on the first and
last windows of the default run.

Usage: python scripts/convergence_sweep.py [--seeds N] [--requests N]
"""

import argparse
from statistics import fmean, median
from typing import NamedTuple

from bottlenet import oracle, run
from bottlenet.config import RandomRequests, ScenarioConfig
from bottlenet.metrics import episodes, reconstruct_tables, table_optimality

WINDOW = 10


class Window(NamedTuple):
    """The figures of one window of WINDOW requests, over every seed."""

    optimality: list[float]  # per seed: its tables after the window's last request
    discovery: list[float]  # hops found / shortest, per route found for a request
    delivery: list[float]  # hops taken / shortest, per data packet delivered


def sweep(seeds: int, requests: int) -> list[Window]:
    """One Window per WINDOW requests of runs with seeds 0 to seeds - 1."""
    windows = [Window([], [], []) for _ in range(requests // WINDOW)]
    counted = len(windows) * WINDOW

    for seed in range(seeds):
        sc = ScenarioConfig(seed=seed,
                            generator={"kind": "generic", "nodes": 15, "seed": seed},
                            random_requests=RandomRequests(count=requests))
        trace = run(sc)
        spacing = trace.meta["spacing"]
        truth = oracle.Distances(trace.topology)  # one snapshot serves every query below

        for w, window in enumerate(windows):
            cutoff = 1 + (w + 1) * WINDOW * spacing - 1
            tables = reconstruct_tables(ev for ev in trace.events if ev.at <= cutoff)
            window.optimality.append(table_optimality(tables, truth) or 0.0)

        for ep in episodes(trace):
            if ep.outcome != "success":
                continue
            idx = (ep.start_at - 1) // spacing
            dist = truth.between(ep.src, ep.dest)
            if dist and idx < counted:
                windows[idx // WINDOW].discovery.append(ep.found_hops / dist)

        for ev in trace.records("Received"):
            data = ev.data  # a new dict on each access
            if ev.node == data["dest"]:
                idx = (ev.at - 1) // spacing
                dist = truth.between(data["src"], data["dest"])
                if dist and idx < counted:
                    hops = len(data["path"]) - 1
                    windows[idx // WINDOW].delivery.append(hops / dist)
    return windows


def print_table(windows: list[Window]) -> None:
    header = (f"{'requests':>10} | {'median optimality':>17} | "
              f"{'discovery stretch':>17} | {'delivery stretch':>16}")
    print(header)
    print("-" * len(header))
    for w, window in enumerate(windows):
        lo, hi = w * WINDOW + 1, (w + 1) * WINDOW
        disc, deliv = (f"{fmean(xs):.2f} (n={len(xs)})" if xs else "-"
                       for xs in (window.discovery, window.delivery))
        print(f"{f'{lo}-{hi}':>10} | {median(window.optimality):>17.3f} | "
              f"{disc:>17} | {deliv:>16}")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--requests", type=int, default=50)
    args = parser.parse_args()
    print_table(sweep(args.seeds, args.requests))


if __name__ == "__main__":
    main()
