"""Import checks: every ``repro`` import resolves, and a plain run does
not load the optional layers.

The package ``__init__`` modules re-export nothing, so every import
names the submodule that defines the name. Many of those imports sit
inside functions (CLI subcommands, perf workloads) that no test calls;
the static walk below checks them without running them.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src", "tests", "examples", "benchmarks", "perfbench")

#: modules a publish / record / crash / replay run never executes
DEFERRED = (
    "repro.publishing.gossip",
    "repro.publishing.multi_recorder",
    "repro.chaos.actions",
    "repro.chaos.adversary",
    "repro.chaos.campaign",
    "repro.cluster.placement",
)


def _repro_imports():
    """(file:line, module, name or None) for every absolute ``repro``
    import in the trees, at any depth."""
    for tree in TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            rel = path.relative_to(ROOT)
            for node in ast.walk(ast.parse(path.read_text(), str(rel))):
                where = f"{rel}:{getattr(node, 'lineno', 0)}"
                if isinstance(node, ast.ImportFrom) and node.level == 0 \
                        and node.module.split(".")[0] == "repro":
                    for alias in node.names:
                        yield where, node.module, alias.name
                elif isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.name.split(".")[0] == "repro":
                            yield where, alias.name, None


IMPORTS = list(_repro_imports())


def test_every_repro_import_resolves():
    # the walk reaches imports inside functions, such as this one
    assert any(where.startswith("src/repro/system.py") and name == "GossipConfig"
               for where, _, name in IMPORTS)
    missing = []
    for where, module, name in IMPORTS:
        try:
            mod = importlib.import_module(module)
        except ModuleNotFoundError:
            missing.append(f"{where}: no module {module}")
            continue
        if name is not None and not hasattr(mod, name) and \
                importlib.util.find_spec(f"{module}.{name}") is None:
            missing.append(f"{where}: from {module} import {name}")
    assert not missing, "\n".join(missing)


_PROBE = """
import json, sys
import repro, repro.chaos.workload, repro.cluster.gateways
from repro import System, SystemConfig
System(SystemConfig(nodes=3, **json.loads(sys.argv[1])))
print(json.dumps([name for name in json.loads(sys.argv[2]) if name in sys.modules]))
"""


def _deferred_loaded(**config):
    """Which DEFERRED modules a fresh interpreter has loaded after
    building ``System(SystemConfig(nodes=3, **config))``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(config), json.dumps(DEFERRED)],
        capture_output=True, text=True, env=env, cwd=ROOT, check=True)
    return json.loads(out.stdout)


def test_plain_system_leaves_optional_layers_unloaded():
    assert _deferred_loaded(medium="broadcast") == []


@pytest.mark.parametrize("config", [{"gossip": True}, {"gossip_loss_rate": 0.1}])
def test_gossip_settings_load_the_gossip_layer(config):
    assert "repro.publishing.gossip" in _deferred_loaded(**config)
