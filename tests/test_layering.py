"""The import graph points one way: algorithm layers never reach upwards.

``repro.core`` (with ``repro.graphs`` and ``repro.congest`` below it) is the
paper's algorithm; ``repro.routing``, ``repro.serving`` and
``repro.analysis`` are applications built on it.  A lower layer importing an
upper one — even lazily, inside a function — means the algorithm is written
in two places, so the scan covers every import statement in the file, not
only the module-level ones.
"""

import ast
import os

import repro

LOWER = ("core", "graphs", "congest")
UPPER = ("routing", "serving", "analysis")
PACKAGE_ROOT = os.path.dirname(repro.__file__)


def _imported_modules(path, package):
    """Absolute dotted names of everything ``path`` imports, at any depth."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = package.split(".")
            if node.level:
                base = base[:len(base) - (node.level - 1)]
                module = ".".join(base + ([node.module] if node.module else []))
            else:
                module = node.module
            yield node.lineno, module
            for alias in node.names:     # ``from .. import routing``
                yield node.lineno, f"{module}.{alias.name}"


def _imports_into(layers, targets):
    """``path:line imports module`` for each import, in any file under
    ``layers``, of a module under ``targets``."""
    targets = tuple(f"repro.{target}" for target in targets)
    offences = []
    for layer in layers:
        for folder, _, files in os.walk(os.path.join(PACKAGE_ROOT, layer)):
            relative = os.path.relpath(folder, os.path.dirname(PACKAGE_ROOT))
            package = relative.replace(os.sep, ".")
            for name in sorted(files):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(folder, name)
                for lineno, module in _imported_modules(path, package):
                    if module.startswith(targets):
                        offences.append(f"{path}:{lineno} imports {module}")
    return offences


def test_lower_layers_never_import_upper_layers():
    offences = _imports_into(LOWER, UPPER)
    assert not offences, "\n".join(offences)


def test_analysis_never_imports_serving():
    """``repro.analysis`` runs the paper's experiments on the algorithm and
    routing layers; the serving stack has its own benchmarks."""
    offences = _imports_into(("analysis",), ("serving",))
    assert not offences, "\n".join(offences)


def test_scan_resolves_relative_imports(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("def f():\n    from ..routing.compact import x\n"
                    "from . import pde\nimport repro.serving\n")
    found = {module for _, module in
             _imported_modules(str(path), "repro.core")}
    assert {"repro.routing.compact", "repro.core.pde",
            "repro.serving"} <= found


def _serving_tree(name):
    path = os.path.join(PACKAGE_ROOT, "serving", name)
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def test_fleet_supervisor_reads_no_foreign_private_state():
    """The supervisor is policy over the front-end's public members: a
    ``_private`` attribute of anything but ``self``/``cls`` in ``fleet.py``
    means a fact has two owners again (74 such reads before PR 17)."""
    offences = [
        f"fleet.py:{node.lineno} {ast.unparse(node)}"
        for node in ast.walk(_serving_tree("fleet.py"))
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_") and not node.attr.startswith("__")
        and not (isinstance(node.value, ast.Name)
                 and node.value.id in ("self", "cls"))]
    assert not offences, "\n".join(offences)


def test_request_tuples_are_built_only_by_the_worker_endpoint():
    """``("query", ...)``, ``("stats",)``, ``("ping", seq)`` and
    ``("shutdown",)`` are the worker protocol; only ``serving/worker.py``
    may spell them."""
    tags = {"query", "stats", "ping", "shutdown"}
    offences = []
    for name in sorted(os.listdir(os.path.join(PACKAGE_ROOT, "serving"))):
        if not name.endswith(".py") or name == "worker.py":
            continue
        offences += [
            f"{name}:{node.lineno} {ast.unparse(node)}"
            for node in ast.walk(_serving_tree(name))
            if isinstance(node, ast.Tuple) and node.elts
            and isinstance(node.elts[0], ast.Constant)
            and node.elts[0].value in tags]
    assert not offences, "\n".join(offences)


def _slot_states():
    """Every string a shard slot's ``state`` is set to or compared with in
    the sharded front-end, its worker endpoint and the fleet policy."""
    def strings(node):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return {node.value}
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return set().union(*map(strings, node.elts))
        return set()

    def is_state(node):
        return (isinstance(node, ast.Attribute) and node.attr == "state"
                or isinstance(node, ast.Name) and node.id == "state")

    found = set()
    for name in ("fleet.py", "sharded.py", "worker.py"):
        for node in ast.walk(_serving_tree(name)):
            if isinstance(node, ast.Assign) and any(map(is_state,
                                                        node.targets)):
                found |= strings(node.value)
            elif isinstance(node, ast.Compare) and is_state(node.left):
                for comparator in node.comparators:
                    found |= strings(comparator)
            elif isinstance(node, ast.keyword) and node.arg == "state":
                found |= strings(node.value)
    return found


def test_option_census():
    """Every independently settable value of the serving surface, counted:
    a change that adds a flag, a config field, a registry (or an entry), a
    stats field, a fleet constant or a slot state has to edit this test in
    the same diff, where it is seen.  The cache consolidation brought it
    here from 46 flags, 10 ``CacheConfig`` fields, 6 registries with 12
    wrappers, 2 cache classes and 8 + 4 stats fields; deleting the fleet's
    scaler and rebalancer took 37 flags, 25 ``ServingConfig`` and 4
    ``FleetConfig`` fields, 7 fleet constants and 4 slot states to 35, 23,
    2, 1 and 3."""
    import dataclasses

    from repro.serving import (
        BuildConfig,
        CacheConfig,
        FleetConfig,
        ServingConfig,
        ServingStats,
        WorkloadConfig,
        cache,
        fleet,
        registry,
    )
    from repro.serving.cli import FLAGS

    def field_names(config):
        return tuple(field.name for field in dataclasses.fields(config))

    assert len(FLAGS) == 35
    assert field_names(CacheConfig) == ("capacity",)
    assert field_names(FleetConfig) == ("heartbeat_interval", "respawn_limit")
    assert [name for name in vars(fleet) if name.isupper()] \
        == ["HANG_TIMEOUT"]
    assert _slot_states() == {"alive", "warming", "dead"}
    assert len(field_names(ServingConfig)) == 23
    assert len(field_names(BuildConfig)) == 5
    assert len(field_names(WorkloadConfig)) == 4
    assert {name: value.names() for name, value in vars(registry).items()
            if isinstance(value, registry.Registry)} == {
        "PARTITIONERS": ("hash_pair", "hash_source", "round_robin"),
        "WORKLOADS": ("bursty", "locality", "trace", "uniform", "zipf"),
        "QUERY_KERNELS": ("auto", "columnar", "dict"),
        "GRAPH_FAMILIES": ("ba", "er", "fattree", "geometric", "grid",
                           "path", "powerlaw", "road", "tree"),
    }
    assert len([name for name in vars(registry)
                if name.startswith(("register_", "get_"))]) == 8
    assert [name for name in vars(cache) if name.endswith("Cache")] \
        == ["LRUCache"]
    assert ServingStats.COUNTERS == (
        "queries", "route_queries", "distance_queries", "batches",
        "batched_queries", "cache_hits", "cache_misses")
    assert ServingStats.OPTIONALS == ("build_seconds", "load_seconds",
                                      "artifact_bytes")
