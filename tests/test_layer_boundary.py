"""The core/serving boundary: ``repro.core`` knows nothing of serving.

The fleet lives in :mod:`repro.serving.fleet` and imports the engine from
``repro.core``; an import the other way round would close a cycle, so
``repro.core`` neither imports ``repro.serving`` nor re-exports a fleet
name.  The gateway serves a plain :class:`~repro.serving.FleetServer`.
"""

import ast
import pathlib

import repro.core
import repro.core.engine
from repro.serving import FleetServer, ModelRegistry
from repro.serving.gateway import GatewayServer

CORE = pathlib.Path(repro.core.__file__).parent
FLEET_NAMES = ("FleetServer", "EdgeSession", "SessionVerdict", "DEFAULT_COHORT")


def _imported_modules(path):
    """Every module ``path`` imports, relative imports resolved against
    ``repro.core``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = ["repro", "core"][: 3 - node.level]
                module = ".".join(base + ([node.module] if node.module else []))
            else:
                module = node.module
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def test_no_core_module_imports_serving():
    offenders = [
        (path.name, module)
        for path in sorted(CORE.glob("*.py"))
        for module in _imported_modules(path)
        if module == "repro.serving" or module.startswith("repro.serving.")
    ]
    assert offenders == []


def test_core_exports_and_defines_no_fleet_name():
    assert set(repro.core.__all__).isdisjoint(FLEET_NAMES)
    for name in FLEET_NAMES:
        assert not hasattr(repro.core, name)
        assert not hasattr(repro.core.engine, name)


def test_the_gateway_serves_a_plain_fleet_server(scenario):
    registry = ModelRegistry(default_cohort="a")
    registry.publish("a", scenario.fresh_edge(rng=1).engine)
    gateway = GatewayServer(registry)
    assert type(gateway.fleet) is FleetServer
    assert gateway.fleet.registry is registry
