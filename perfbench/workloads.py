"""The benchmark's workloads and the scenario documents they feed bottlenet.

Each workload is a fixed corpus of topologies, generated by
``bottlenet.topogen`` from fixed generator seeds, plus the scenario
documents for them: traffic, faults and scenario seeds, drawn from the
run's ``--seed``. The corpus is fixed because graph-to-graph variation
swamps any bound a run could hold: generic rejection sampling takes a
geometric number of attempts (coefficient of variation about 1), and on
sparse-partitioned graphs the giant component's size sets the cost of
every walk and of every summary.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from truth import Graph


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                     # topogen kind
    nodes: int
    gen_seeds: tuple[int, ...]    # one topology per generator seed
    # plan(graph, fixed, rng): the scenario document for one graph. `fixed`
    # is the same stream in every run, `rng` is drawn from the run's seed.
    plan: Callable[[Graph, random.Random, random.Random], dict]
    faults: bool                  # scenarios inject faults
    partitioned: bool             # some requests cross components
    # The first `fixed_scenarios` graphs draw their scenario from `fixed`
    # too, so their inputs do not depend on the seed.
    fixed_scenarios: int = 0


# converge-generic: long sequential streams of random requests, no faults.
# 150 requests fill about 90% of all routing-table entries, so summarize
# and replay dominate and their cost hardly depends on the seed. n=50, not
# 100: at n=100 one graph with 50 requests costs 3.9 s in summarize with
# its tables still far from full, so a run could not hold enough rounds.
CONVERGE_NODES = 50
CONVERGE_GRAPHS = 4
CONVERGE_REQUESTS = 150

# churn-generic: concurrent requests while links and a node fail and come
# back. Any fault turns on one beacon tick per node per period, so the
# horizon is bounded explicitly.
CHURN_NODES = 30
CHURN_GRAPHS = 3
CHURN_REQUESTS = 120
CHURN_SPACING = 10
CHURN_HORIZON = 1500
CHURN_LINK_FAULTS = 10
CHURN_LINK_DOWN = (50, 300)       # a failed link comes back after this long

# retry-sparse: acceptance criterion 3's setting. Per graph one scenario:
# a request inside the giant component, then requests out of it, each
# after the previous one has resolved. The pairs are the same in every run
# and the seed draws every walk: a request inside a component needs a
# geometric number of walks, one out of the giant component always needs
# 150, and which node it starts from moves its cost by 15-25%. The walks
# decide which routes fill the tables, so the cost of summarize moves with
# the seed: over seeds 1-10 the quartile distance over the median of its
# neighbour scans is 5.1% on two graphs and 3.4% on three.
RETRY_NODES = 100
RETRY_GRAPHS = 3
RETRY_LIMIT = 149
RETRY_INTRA = 1
RETRY_CROSS = 4
RETRY_SPACING = 200_000           # more than 150 timeouts of 800 (n=100 defaults)


def _scenario_seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def plan_converge(g: Graph, fixed: random.Random, rng: random.Random) -> dict:
    return {"seed": _scenario_seed(rng),
            "random_requests": {"count": CONVERGE_REQUESTS}}


def plan_churn(g: Graph, fixed: random.Random, rng: random.Random) -> dict:
    edges = sorted((a, b) for a in g.adj for b in g.adj[a] if a < b)
    faults = []
    for a, b in rng.sample(edges, CHURN_LINK_FAULTS):
        at = rng.randrange(1, CHURN_HORIZON - 2 * CHURN_LINK_DOWN[1])
        back = at + rng.randrange(*CHURN_LINK_DOWN)
        faults.append({"at": at, "op": "fail_link", "link": [a, b]})
        faults.append({"at": back, "op": "restore_link", "link": [a, b]})
    node = rng.choice(sorted(g.adj))
    at = rng.randrange(1, CHURN_HORIZON // 2)
    faults.append({"at": at, "op": "fail_node", "node": node})
    faults.append({"at": at + CHURN_HORIZON // 4, "op": "restore_node", "node": node})
    faults.sort(key=lambda f: f["at"])
    return {"seed": _scenario_seed(rng),
            "random_requests": {"count": CHURN_REQUESTS, "spacing": CHURN_SPACING},
            "faults": faults,
            "horizon": CHURN_HORIZON}


def plan_retry(g: Graph, fixed: random.Random, rng: random.Random) -> dict:
    comps = g.components()
    giant = sorted(comps[0])
    outside = sorted(set(g.adj) - comps[0])
    if not outside:
        raise ValueError("retry-sparse needs a graph with more than one component")
    pairs = [fixed.sample(giant, 2) for _ in range(RETRY_INTRA)]
    pairs += [[fixed.choice(giant), fixed.choice(outside)] for _ in range(RETRY_CROSS)]
    return {"seed": _scenario_seed(rng),
            "protocol": {"retry_limit": RETRY_LIMIT},
            "requests": [{"at": 1 + i * RETRY_SPACING, "src": src, "dest": dest}
                         for i, (src, dest) in enumerate(pairs)]}


WORKLOADS = {w.name: w for w in (
    Workload("converge-generic", "generic", CONVERGE_NODES,
             tuple(range(CONVERGE_GRAPHS)), plan_converge,
             faults=False, partitioned=False),
    Workload("churn-generic", "generic", CHURN_NODES,
             tuple(range(CHURN_GRAPHS)), plan_churn,
             faults=True, partitioned=False, fixed_scenarios=1),
    Workload("retry-sparse", "sparse-partitioned", RETRY_NODES,
             tuple(range(RETRY_GRAPHS)), plan_retry,
             faults=False, partitioned=True),
)}
