"""Mutants that tier-1 must kill, and the runner that shows it does.

Each entry changes one piece of text in one module of src/bottlenet and
names the tests expected to kill it. ``python tests/mutants.py`` copies the
files tier-1 reads (src/, tests/, scripts/, perfbench/, README.md and
pyproject.toml) to a temporary directory for each mutant, applies it and
runs its killing tests; if they all pass, it runs the whole tier-1 suite
but tests/test_mutants.py, which checks the unmutated tree and so fails in
every mutated copy. It prints one line per mutant and exits 1 unless every
mutant is killed by its own killing tests: one that survives tier-1, one
that only tests outside its list kill (the list is stale), and one that
cannot be applied or run all fail. A mutant that survives is mended with a
new or stronger test, never by dropping the mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "scripts", "perfbench", "README.md", "pyproject.toml")


class Mutant(NamedTuple):
    module: str  # file name under src/bottlenet
    old: str  # text that occurs exactly once in the module
    new: str  # what replaces it
    why: str
    killed_by: tuple[str, ...]  # pytest ids, relative to the repository root


MUTANTS = [
    Mutant("metrics.py", "nbytes += ev.values[_BYTES]",
           'nbytes += 0 if ev.values[SENT_BOTTLE.fields.index("failure")] else ev.values[_BYTES]',
           "route-failure bottles left out of total_bottle_bytes",
           ("tests/test_metrics.py::TestByteAccounting::test_bytes_match_history_lengths",)),
    Mutant("engine.py",
           "        if frm in self.topology.down_nodes:\n            return\n"
           "        actions = fsm.on_delivery_failure(",
           "        actions = fsm.on_delivery_failure(",
           "a bounce makes a down sender purge routes and send route-failure bottles",
           ("tests/test_engine.py::"
            "test_a_down_node_writes_only_its_fault_and_the_bounces_of_its_sends",)),
    Mutant("fsm.py", "len(req.queued_packets) >= QUEUE_CAP",
           "len(req.queued_packets) > QUEUE_CAP",
           "a source queues one packet past QUEUE_CAP behind an open discovery",
           ("tests/test_fsm_handlers.py::TestRouteRequest::"
            "test_full_queue_reports_failure_for_forwarded_packet",
            "tests/test_fsm_handlers.py::TestRouteRequest::"
            "test_full_queue_drops_the_sources_own_packet")),
    Mutant("fsm.py", "QUEUE_CAP = 16", "QUEUE_CAP = 17",
           "the queue cap differs from the documented 16, which no golden scenario reaches",
           ("tests/test_fsm_handlers.py::TestRouteRequest::"
            "test_full_queue_drops_the_sources_own_packet",)),
    Mutant("fsm.py", "had_route = node.rtab.pop(b.dest, None) is not None",
           "had_route = node.rtab.get(b.dest) is not None",
           "a route-failure bottle home at its source states RouteRemoved but keeps the route",
           ("tests/test_fsm_handlers.py::TestHandleBottle::"
            "test_failure_bottle_at_source_purges_and_retries",
            "tests/test_fsm_handlers.py::TestPurgeRoutes::"
            "test_route_to_dest_dropped_whatever_its_next_hop")),
    Mutant("trace.py",
           "    if type(node) is not int or not 0 <= node <= MAX_NODE_ID:\n"
           "        raise MalformedTrace(f\"node {node!r} is not a node id\")\n",
           "",
           "the judge of every record takes a bool, a float or a string node",
           ("tests/test_trace.py::test_a_bool_or_float_node_id_is_named_by_its_line",
            "tests/test_trace.py::test_a_record_built_in_code_is_judged_as_its_line_is",
            "tests/test_cli.py::TestSummarize::"
            "test_node_or_hop_count_that_does_not_fit_is_a_clean_error")),
    Mutant("trace.py",
           "    for i in shape.ids:\n"
           "        if type(value := values[i]) is not int or not 0 <= value <= MAX_NODE_ID:\n"
           "            raise MalformedTrace(f\"kind {kind!r}: {shape.fields[i]} {value!r} "
           "is not a node id\")\n",
           "",
           "the judge takes a bool, a float or a list as a src or dest the fold keys by",
           ("tests/test_trace.py::test_a_bool_or_float_node_id_is_named_by_its_line",
            "tests/test_trace.py::test_a_record_built_in_code_is_judged_as_its_line_is",
            "tests/test_cli.py::TestSummarize::"
            "test_node_or_hop_count_that_does_not_fit_is_a_clean_error")),
    Mutant("trace.py",
           "    if type(at) is not int:\n"
           "        raise MalformedTrace(f\"at {at!r} is not an int\")\n",
           "",
           "the judge takes a bool, a float or a string as a record's time",
           ("tests/test_trace.py::test_a_record_built_in_code_is_judged_as_its_line_is",
            "tests/test_cli.py::TestSummarize::test_field_of_the_wrong_type_is_a_clean_error")),
    Mutant("trace.py",
           "    try:\n"
           '        record(rec["at"], rec["node"], rec["kind"], rec["data"])\n'
           "    except MalformedTrace as exc:\n"
           "        return str(exc)\n",
           "",
           "the line path, which names a rejected line, finds nothing wrong with a record "
           "the judge refuses",
           ("tests/test_engine.py::test_the_line_path_names_every_line_it_rejects",
            "tests/test_trace.py::test_a_bool_or_float_node_id_is_named_by_its_line")),
    Mutant("metrics.py", 'SENT_BOTTLE.fields.index("bytes")',
           'SENT_BOTTLE.fields.index("history_len")',
           "the fold reads a bottle's byte count from its history_len value",
           ("tests/test_metrics.py::TestByteAccounting::test_bytes_match_history_lengths",)),
    Mutant("trace.py", "itemgetter(*names[3:])", "itemgetter(*names[3:-1])",
           "the reader's getter skips a shape's last field, so the chunk path takes a "
           "record that lacks it",
           ("tests/test_engine.py::TestMalformedTrace::test_missing_data_field",)),
    Mutant("trace.py", "seqs == list(range(seq, seq + len(seqs)))", "True",
           "the reader takes a seq that is not the record's place: skipped, repeated or a string",
           ("tests/test_trace.py::test_records_out_of_order_are_named_by_their_line",
            "tests/test_cli.py::TestSummarize::test_records_out_of_order_are_a_clean_error")),
    Mutant("trace.py", "{*map(type, seqs)} <= {int}", "True",
           "the reader takes a bool or a float seq that equals the record's place",
           ("tests/test_trace.py::test_records_out_of_order_are_named_by_their_line",)),
    Mutant("trace.py", "sorted(ats) == ats", "True",
           "the reader takes a record whose at is before the previous record's, within a "
           "chunk or across a boundary",
           ("tests/test_trace.py::test_records_out_of_order_are_named_by_their_line",
            "tests/test_cli.py::TestSummarize::test_records_out_of_order_are_a_clean_error")),
]


def _pytest(tree: Path, *args: str) -> int:
    """The exit status of pytest run quietly in tree, stopping at the first failure."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *args], cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def verdict(mutant: Mutant) -> str:
    """'killed', 'STALE ...' (its killing tests passed but tier-1 failed),
    'SURVIVED', or 'ERROR ...' when the mutant cannot be applied or its
    killing tests cannot be run."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, tree / name,
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(source, tree / name)
        module = tree / "src" / "bottlenet" / mutant.module
        text = module.read_text()
        if text.count(mutant.old) != 1:
            return "ERROR: its old text does not occur exactly once"
        module.write_text(text.replace(mutant.old, mutant.new))
        status = _pytest(tree, *mutant.killed_by)
        if status == 1:  # pytest: some test failed
            return "killed"
        if status != 0:
            return f"ERROR: pytest exited {status} on its killing tests"
        if _pytest(tree, "--ignore=tests/test_mutants.py") == 1:
            return "STALE: only tests outside its killing tests kill it"
        return "SURVIVED"


def main() -> int:
    failed = False
    for mutant in MUTANTS:
        result = verdict(mutant)
        failed |= result != "killed"
        print(f"{result}: {mutant.module}: {mutant.why}", flush=True)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
