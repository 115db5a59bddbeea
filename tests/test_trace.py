"""The trace codec stands apart from the simulator that writes traces.

Reading a trace file, and summarizing it, must not need the event loop or
the protocol: ``trace`` and ``metrics`` import neither ``engine`` nor
``fsm``, directly or under another name.
"""

import ast
from pathlib import Path

import pytest

from bottlenet import trace as codec

PACKAGE = Path(codec.__file__).parent


def imported_modules(source: str) -> set[str]:
    """The dotted names of the modules a bottlenet source file imports,
    relative imports resolved against the package, each name imported
    from a module counted as a module too."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["bottlenet" if node.level else None, node.module]))
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found


def test_imported_modules_sees_every_form_of_import():
    for source, module in [("import bottlenet.fsm", "bottlenet.fsm"),
                           ("from . import engine", "bottlenet.engine"),
                           ("from .engine import run", "bottlenet.engine"),
                           ("from bottlenet import fsm as f", "bottlenet.fsm")]:
        assert module in imported_modules(source), source


@pytest.mark.parametrize("module", ["trace.py", "metrics.py"])
def test_codec_and_metrics_import_nothing_from_the_engine_or_the_fsm(module):
    imported = imported_modules((PACKAGE / module).read_text())
    assert "bottlenet.network" in imported  # the walk sees this module's imports
    assert not {name for name in imported
                for banned in ("bottlenet.engine", "bottlenet.fsm")
                if name == banned or name.startswith(banned + ".")}
