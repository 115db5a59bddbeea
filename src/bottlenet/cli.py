"""Batch command-line front end: gen, run, summarize.

Users configure a scenario file, run it, and inspect the trace, summary,
and DOT outputs; there is no interactive mode.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import engine, metrics
from .config import load_scenario
from .dotexport import export_dot
from .errors import BottlenetError, ConfigError, MalformedRecord, UnknownNode
from .network import load_topology, save_topology
from .topogen import KINDS, generate_topology
from .trace import iter_trace  # by name: _cmd_run has a local called trace


def _cmd_gen(args: argparse.Namespace) -> int:
    t = generate_topology(args.kind, args.nodes, args.seed)
    save_topology(t, args.out)
    print(f"wrote {args.kind} topology: {len(t.nodes)} nodes, "
          f"{len(t.edges)} edges -> {args.out}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.config)
    try:
        trace = engine.run(scenario)
    except ConfigError as exc:  # a check that needs the topology
        raise ConfigError(f"{args.config}: {exc}") from exc
    if args.trace_out:
        trace.write(args.trace_out)
    summary = metrics.summarize(trace)
    _write_summary(summary, args.summary_out)
    if args.dot_out:
        found = trace.records("RouteFound")
        highlight = found[0].data["path"] if found else None
        with open(args.dot_out, "w") as fh:
            fh.write(export_dot(trace.topology, highlight))
    print(metrics.format_summary(summary))
    return 0


def _cmd_summarize(args: argparse.Namespace) -> int:
    try:
        summary = metrics.summarize(iter_trace(args.trace),
                                    load_topology(args.topology))
    except (MalformedRecord, UnknownNode) as exc:  # past the reader: add the file
        raise MalformedRecord(f"{args.trace}: {exc}") from None
    _write_summary(summary, args.json_out)
    print(metrics.format_summary(summary))
    return 0


def _write_summary(summary: metrics.RunSummary, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            json.dump(summary.to_dict(), fh, indent=2)
            fh.write("\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bottlenet",
        description="Random-walk route discovery simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a topology file")
    gen.add_argument("--kind", choices=KINDS, required=True)
    gen.add_argument("--nodes", type=int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen)

    run = sub.add_parser("run", help="run a scenario file")
    run.add_argument("--config", required=True)
    run.add_argument("--trace-out")
    run.add_argument("--summary-out")
    run.add_argument("--dot-out")
    run.set_defaults(func=_cmd_run)

    summ = sub.add_parser("summarize", help="recompute metrics from a trace")
    summ.add_argument("--trace", required=True)
    summ.add_argument("--topology", required=True)
    summ.add_argument("--json-out")
    summ.set_defaults(func=_cmd_summarize)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (BottlenetError, OSError) as exc:  # OSError: a file that cannot be opened
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
