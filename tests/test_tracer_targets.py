"""The benchmark's tracer (perfbench/tracer.py) patches functions by name.

Each (owner, attr) pair in its TARGETS must stay bound in the owner's own
namespace, even where the program no longer calls it there, or a traced
benchmark run fails with a KeyError when it installs its wrappers. The
codec lives in ``trace``, but the benchmark reads and patches it through
``engine``, so ``engine`` must bind the same objects.
"""

import importlib.util
from pathlib import Path

from bottlenet import engine, trace

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_name_is_bound_where_it_is_patched():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _ in tracer.TARGETS if attr not in owner.__dict__]
    assert missing == []
    # the writer and the reader it times through engine are the codec's own
    assert engine.load_trace is trace.load_trace
    assert engine.Trace is trace.Trace
