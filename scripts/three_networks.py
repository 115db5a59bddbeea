#!/usr/bin/env python3
"""Run one route discovery on each of the three studied network shapes.

Prints the discovered route and summary metrics per network and drops a
DOT rendering (discovered route highlighted) next to this script's
output directory.

Usage: python scripts/three_networks.py [--seed N] [--out-dir DIR]
"""

import argparse
import random
from pathlib import Path

from bottlenet import generate_topology, oracle, run, save_topology, summarize
from bottlenet.config import RequestSpec, ScenarioConfig
from bottlenet.dotexport import export_dot

SHAPES = [
    ("generic", 15, {}),
    ("sparse-partitioned", 100, {"retry_limit": 149}),
    ("dense", 20, {}),
]


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", default="out")
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    for kind, n, protocol in SHAPES:
        t = generate_topology(kind, n, args.seed)
        topo_path = out_dir / f"{kind}-{n}.json"
        save_topology(t, str(topo_path))

        truth = oracle.Distances(t)
        pick = random.Random(f"{kind}:{args.seed}")
        nodes = sorted(t.nodes)
        while True:
            src, dest = pick.sample(nodes, 2)
            if truth.between(src, dest) is not None:
                break

        sc = ScenarioConfig(seed=args.seed, topology_file=str(topo_path),
                            protocol=protocol,
                            requests=[RequestSpec(at=1, src=src, dest=dest)])
        trace = run(sc)
        found = trace.records("RouteFound")
        route = found[0].data["path"] if found else None

        print(f"=== {kind} ({n} nodes), request {src} -> {dest} ===")
        if route is None:
            print("  no route found")
        else:
            print(f"  route: {route}")
            print(f"  hops:  {len(route) - 1} "
                  f"(shortest possible: {truth.between(src, dest)})")
        s = summarize(trace)
        print(f"  bottles sent: {s.bottles_sent}, "
              f"overhead: {s.total_bottle_bytes} bytes")

        dot_path = out_dir / f"{kind}-{n}.dot"
        dot_path.write_text(export_dot(t, route))
        print(f"  wrote {dot_path}")
        print()


if __name__ == "__main__":
    main()
