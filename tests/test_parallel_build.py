"""Parallel hierarchy construction: identity, degeneracy, failure, wiring.

The contract under test is absolute: ``build_workers`` may change wall
clock and nothing else.  A hierarchy built on N processes must be
*artifact-checksum-identical* to the one-worker build — same
``payload_sha256``, not merely the same answers — across every
construction mode and pool size (every pool runs the same task list
through :func:`repro.core.build_runner.run_tasks`).  A worker crash
mid-build must surface a typed error without hanging and without leaving a
partial artifact behind; the in-process path never honours the crash hook.
"""

import os
import tempfile

import pytest

from repro import graphs
from repro.core import pde
from repro.core.build_runner import CRASH_ENV_VAR, ParallelBuildError
from repro.core.pde import solve_pde
from repro.routing.compact import build_compact_routing
from repro.serving import BuildConfig, ServingConfig, open_service
from repro.serving.artifacts import (
    artifact_info,
    save_hierarchy,
)
from repro.serving.cli import build_parser, config_from_args


def small_graph(n=40, seed=3):
    p = min(1.0, 6.0 / max(1, n - 1))
    return graphs.erdos_renyi_graph(n, p, graphs.uniform_weights(1, 12),
                                    seed=seed)


def _checksum(hierarchy, tmp, name):
    path = os.path.join(tmp, name)
    save_hierarchy(hierarchy, path)
    return artifact_info(path).payload_sha256


# ----------------------------------------------------------------------
# solve_pde level
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [2, 3])
def test_solve_pde_parallel_identity(workers):
    graph = small_graph()
    sources = sorted(graph.nodes())[:6]
    seq = solve_pde(graph, sources, h=6, sigma=3, epsilon=0.25,
                    store_levels=True)
    par = solve_pde(graph, sources, h=6, sigma=3, epsilon=0.25,
                    store_levels=True, build_workers=workers)
    assert par.export_state() == seq.export_state()


@pytest.fixture
def shipped_tasks(monkeypatch):
    """Every ``(label, payload)`` task handed to the runner, in order."""
    shipped = []
    run_tasks = pde.run_tasks

    def spy(fn, tasks, shared, build_workers, registry=None):
        shipped.append((build_workers, list(tasks)))
        return run_tasks(fn, tasks, shared, build_workers, registry)

    monkeypatch.setattr(pde, "run_tasks", spy)
    return shipped


def test_planned_instance_parity_and_empty_pooled_tasks(shipped_tasks):
    # sigma >= |S| and h = n: level 0 settles every source, so the tasks of
    # the levels above it carry no source, pooled or not.
    graph = small_graph()
    sources = sorted(graph.nodes())[:6]
    results = [solve_pde(graph, sources, h=graph.num_nodes, sigma=6,
                         epsilon=0.25, build_workers=workers)
               for workers in (1, 2)]
    assert results[1].export_state() == results[0].export_state()
    (_, sequential), (pooled_workers, pooled) = shipped_tasks
    assert pooled_workers == 2 and pooled == sequential
    assert len(pooled) == results[0].rounding.num_levels > 1
    assert pooled[0][1]["source_ids"]
    assert all(payload["source_ids"] == [] for _, payload in pooled[1:])

    shipped_tasks.clear()
    with tempfile.TemporaryDirectory() as tmp:
        checksums = [
            _checksum(build_compact_routing(graph, k=3, seed=7,
                                            build_workers=workers),
                      tmp, f"w{workers}")
            for workers in (1, 2)]
    assert checksums[1] == checksums[0]
    pooled = [payload for workers, tasks in shipped_tasks if workers == 2
              for _, payload in tasks]
    assert all(payload["source_ids"] for payload in pooled
               if payload["level"] == 0)
    assert any(payload["level"] and payload["source_ids"] == []
               for payload in pooled)


def test_solve_pde_build_workers_one_is_sequential():
    graph = small_graph()
    sources = sorted(graph.nodes())[:4]
    seq = solve_pde(graph, sources, h=5, sigma=2, epsilon=0.25)
    one = solve_pde(graph, sources, h=5, sigma=2, epsilon=0.25,
                    build_workers=1)
    assert one.export_state() == seq.export_state()


def test_solve_pde_rejects_bad_build_workers():
    graph = small_graph()
    sources = sorted(graph.nodes())[:2]
    with pytest.raises(ValueError, match="build_workers must be >= 1"):
        solve_pde(graph, sources, h=4, sigma=2, epsilon=0.25,
                  build_workers=0)
    with pytest.raises(ValueError, match="simulate"):
        solve_pde(graph, sources, h=4, sigma=2, epsilon=0.25,
                  engine="simulate", build_workers=2)


# ----------------------------------------------------------------------
# full hierarchy: checksum identity across modes and pool sizes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["budget", "spd", "truncated"])
@pytest.mark.parametrize("workers", [2, 3])
def test_parallel_build_checksum_identical(mode, workers):
    graph = small_graph()
    kwargs = dict(k=3, epsilon=0.25, seed=7, mode=mode)
    if mode == "truncated":
        kwargs["l0"] = 2
    seq = build_compact_routing(graph, **kwargs)
    par = build_compact_routing(graph, build_workers=workers, **kwargs)
    with tempfile.TemporaryDirectory() as tmp:
        assert (_checksum(par, tmp, "par") == _checksum(seq, tmp, "seq"))


def test_build_workers_absent_from_build_params():
    # build_params serialises into the checksummed meta section, so the
    # worker count must never leak into it (provenance lives in the
    # artifact *header*, via the serving config).
    graph = small_graph(30)
    hierarchy = build_compact_routing(graph, 3, seed=1, build_workers=2)
    assert "build_workers" not in hierarchy.build_params


def test_build_rejects_bad_build_workers():
    graph = small_graph(30)
    with pytest.raises(ValueError, match="build_workers must be >= 1"):
        build_compact_routing(graph, 3, build_workers=0)
    with pytest.raises(ValueError, match="simulate"):
        build_compact_routing(graph, 3, engine="simulate", build_workers=2)


# ----------------------------------------------------------------------
# worker crash: typed error, no hang, no partial artifact
# ----------------------------------------------------------------------
def test_worker_crash_surfaces_typed_error(monkeypatch):
    graph = small_graph(30)
    sources = sorted(graph.nodes())[:4]
    monkeypatch.setenv(CRASH_ENV_VAR, "graph:0")
    with pytest.raises(ParallelBuildError, match="worker died"):
        solve_pde(graph, sources, h=5, sigma=2, epsilon=0.25,
                  engine="batched", build_workers=2)


def test_crash_hook_is_pool_side_only(monkeypatch):
    # One worker runs the same task list in the driving process, which
    # must never be the one to die.
    graph = small_graph(30)
    sources = sorted(graph.nodes())[:4]
    clean = solve_pde(graph, sources, h=5, sigma=2, epsilon=0.25)
    monkeypatch.setenv(CRASH_ENV_VAR, "graph:0")
    hooked = solve_pde(graph, sources, h=5, sigma=2, epsilon=0.25,
                       build_workers=1)
    assert hooked.export_state() == clean.export_state()


def test_worker_crash_leaves_no_partial_artifact(monkeypatch):
    graph = small_graph(30)
    monkeypatch.setenv(CRASH_ENV_VAR, "graph:0")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "crash.artifact")
        config = ServingConfig(
            artifact_path=path,
            build=BuildConfig(k=3, seed=1, build_workers=2))
        with pytest.raises(ParallelBuildError):
            open_service(config, graph=graph)
        assert not os.path.exists(path)
        assert os.listdir(tmp) == []   # no tmp-file debris either


# ----------------------------------------------------------------------
# config / CLI wiring
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bad", [0, -1, 1.5, True, "4"])
def test_build_config_rejects_bad_build_workers(bad):
    with pytest.raises(ValueError, match="build_workers"):
        BuildConfig(build_workers=bad)


def test_build_config_default_is_sequential():
    assert BuildConfig().build_workers == 1
    assert BuildConfig(build_workers=3).build_workers == 3


def test_cli_build_workers_flag_reaches_config():
    parser = build_parser()
    args = parser.parse_args(["--graph", "er:n=30,p=0.2",
                              "--build-workers", "4"])
    config = config_from_args(args, parser)
    assert config.build.build_workers == 4
    default = config_from_args(parser.parse_args(
        ["--graph", "er:n=30,p=0.2"]), parser)
    assert default.build.build_workers == 1


def test_open_service_parallel_build_matches_sequential():
    graph = small_graph(30)
    with tempfile.TemporaryDirectory() as tmp:
        checksums = {}
        for name, workers in (("seq", 1), ("par", 2)):
            path = os.path.join(tmp, f"{name}.artifact")
            service = open_service(ServingConfig(
                artifact_path=path,
                build=BuildConfig(k=3, seed=5, build_workers=workers)),
                graph=graph)
            service.close()
            checksums[name] = artifact_info(path).payload_sha256
        assert checksums["par"] == checksums["seq"]
