"""The example scripts run as a user runs them, each in a process of its own."""

from pathlib import Path

from bottlenet.network import load_topology
from conftest import run_python

SCRIPTS = Path(__file__).parent.parent / "scripts"
DATA = Path(__file__).parent / "data"


def test_convergence_sweep_prints_the_pinned_table():
    # a change to the runs, the oracle or the metrics must print it as committed
    done = run_python(str(SCRIPTS / "convergence_sweep.py"),
                      "--seeds", "2", "--requests", "20")
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == (DATA / "convergence_sweep_s2_r20.txt").read_bytes()


def test_three_networks_writes_each_network(tmp_path):
    done = run_python(str(SCRIPTS / "three_networks.py"), "--out-dir", str(tmp_path))
    assert (done.returncode, done.stderr) == (0, b"")
    out = done.stdout.decode()
    for kind, n in [("generic", 15), ("sparse-partitioned", 100), ("dense", 20)]:
        assert f"=== {kind} ({n} nodes), request " in out
        assert len(load_topology(str(tmp_path / f"{kind}-{n}.json")).nodes) == n
        dot = tmp_path / f"{kind}-{n}.dot"
        assert f"  wrote {dot}\n" in out and dot.read_text().startswith("graph")
