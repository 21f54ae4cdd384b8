"""The four workloads: seeded inputs, the build operation, the serving
backend each one queries, and the correctness gate.

Every workload has the same shape — *build a product, then query it* — so
one set of end-to-end metrics applies to all four.  They differ in which
layers own the time:

``build_er``           hierarchy build on ER n=300 (small sigma budgets,
                       sampled source sets: heap-heavy detection), queried
                       straight through the loaded artifact.
``apsp_er``            ``approximate_apsp`` on ER n=200 (S=V, h=sigma=n:
                       list-emission and fold heavy), queried hop by hop
                       through its next-hop tables.
``query_local_er``     ER n=500 artifact behind an in-process service, a
                       uniform stream that never hits the result cache:
                       the table kernels and mmap pages own the time.
``query_remote_road``  road 20x20 artifact behind ``repro-serve --serve``
                       with two workers, a zipf stream that always hits:
                       wire, session, server and scatter/gather own the time.

The program under test receives only generated inputs: graphs and pair
streams are derived from ``--seed`` here.
"""

from __future__ import annotations

import heapq
import os
import queue
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import repro.core as core
import repro.graphs as graphs
import repro.routing as routing
import repro.serving as serving

Pair = Tuple[Any, Any]

K = 3
EPSILON = 0.25
TOLERANCE = 1e-9

#: Deadlines (seconds) for every blocking call the harness makes.
LISTEN_DEADLINE = 60.0
CONNECT_DEADLINE = 10.0
REPLY_DEADLINE = 30.0
STOP_DEADLINE = 15.0


@dataclass(frozen=True)
class Spec:
    """Sizes and shape of one workload."""

    name: str
    product: str            # "hierarchy" | "apsp"
    serve: str              # "direct" | "local" | "remote"
    rounds_per_build: int   # rebuild (timed) every so many rounds; 0: the
                            # product is built once, during set-up
    stream: str             # "uniform" | "zipf" | "all" (every ordered pair)
    stream_pairs: int
    batch: int
    route_passes: int       # walks over the stream per round
    distance_passes: int
    latency_passes: int = 0     # remote only: one-outstanding route passes
    cache: int = 0


#: Stream length of every workload under ``--smoke``.
SMOKE_STREAM_PAIRS = 256


#: Pass counts give every query metric 2.5-6 s of samples per run, spread
#: over >= 9 rounds; a round's latencies make one p50 and one p99 sample.
SPECS: Dict[str, Spec] = {spec.name: spec for spec in (
    Spec("build_er", product="hierarchy", serve="direct", rounds_per_build=3,
         stream="uniform", stream_pairs=6400, batch=64, route_passes=2,
         distance_passes=6),
    Spec("apsp_er", product="apsp", serve="direct", rounds_per_build=3,
         stream="all", stream_pairs=0, batch=64, route_passes=3,
         distance_passes=24),
    Spec("query_local_er", product="hierarchy", serve="local",
         rounds_per_build=0, stream="uniform", stream_pairs=20000, batch=64,
         route_passes=1, distance_passes=1, cache=1024),
    Spec("query_remote_road", product="hierarchy", serve="remote",
         rounds_per_build=0, stream="zipf", stream_pairs=6400, batch=32,
         route_passes=1, distance_passes=1, latency_passes=2,
         cache=8192),
)}


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------
def _er(n: int, high: int, seed: int):
    return graphs.erdos_renyi_graph(n, 6.0 / (n - 1),
                                    graphs.uniform_weights(1, high), seed=seed)


def make_graph(spec: Spec, seed: int, smoke: bool):
    """The workload's graph for ``seed`` (public generators only)."""
    if spec.name == "build_er":
        return _er(40 if smoke else 300, 64, seed)
    if spec.name == "apsp_er":
        return _er(30 if smoke else 200, 64, seed)
    if spec.name == "query_local_er":
        return _er(60 if smoke else 500, 8, seed)
    side = 6 if smoke else 20
    return serving.parse_graph_spec(f"road:rows={side},cols={side},seed={seed}")


def make_stream(spec: Spec, nodes: Sequence, seed: int, smoke: bool
                ) -> List[Pair]:
    """The query stream: ordered pairs with source != target."""
    rng = random.Random(seed * 7919 + 17)
    count = SMOKE_STREAM_PAIRS if smoke else spec.stream_pairs
    nodes = list(nodes)
    if spec.stream == "all":
        pairs = [(s, t) for s in nodes for t in nodes if s != t]
        rng.shuffle(pairs)
        return pairs
    if spec.stream == "uniform":
        pairs = []
        while len(pairs) < count:
            s, t = rng.choice(nodes), rng.choice(nodes)
            if s != t:
                pairs.append((s, t))
        return pairs
    # zipf: independent popularity rankings for sources and targets.
    source_rank, target_rank = list(nodes), list(nodes)
    rng.shuffle(source_rank)
    rng.shuffle(target_rank)
    weights = [1.0 / (rank + 1) ** 1.2 for rank in range(len(nodes))]
    pairs = []
    while len(pairs) < count:
        sources = rng.choices(source_rank, weights=weights, k=count)
        targets = rng.choices(target_rank, weights=weights, k=count)
        pairs.extend((s, t) for s, t in zip(sources, targets) if s != t)
    return pairs[:count]


def exact_distances(graph) -> Dict[Any, Dict[Any, float]]:
    """All-pairs exact distances by the harness's own Dijkstra — the oracle
    the gate trusts, independent of the code under test."""
    adjacency = {v: list(graph.neighbor_weights(v).items())
                 for v in graph.nodes()}
    table: Dict[Any, Dict[Any, float]] = {}
    for source in adjacency:
        dist = {source: 0.0}
        heap = [(0.0, 0, source)]
        tie = 1
        while heap:
            d, _, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in adjacency[u]:
                candidate = d + w
                if candidate < dist.get(v, float("inf")):
                    dist[v] = candidate
                    heapq.heappush(heap, (candidate, tie, v))
                    tie += 1
        table[source] = dist
    return table


# ----------------------------------------------------------------------
# products: what the build operation makes
# ----------------------------------------------------------------------
class HierarchyProduct:
    """``build_compact_routing`` -> ``save_hierarchy`` (v2) -> ``load_hierarchy``."""

    def __init__(self, graph, path: str) -> None:
        # Called through the package attributes so installed span wrappers
        # (which rebind those names) see the calls.
        self.hierarchy = routing.build_compact_routing(
            graph, k=K, epsilon=EPSILON, engine="batched")
        self.info = serving.save_hierarchy(self.hierarchy, path, format=2)
        self.loaded, _ = serving.load_hierarchy(path)
        self.path = path
        self.graph = graph

    @property
    def artifact_bytes(self) -> int:
        return self.info.payload_bytes

    @property
    def sha256(self) -> str:
        return self.info.payload_sha256

    def reference(self, pairs: List[Pair]) -> Dict[str, Dict[Pair, Any]]:
        """In-memory answers through the per-pair ``dict`` kernel."""
        routes = self.hierarchy.route_batch(pairs, kernel="dict")
        distances = self.hierarchy.distance_batch(pairs, kernel="dict")
        return {"route": dict(zip(pairs, routes)),
                "distance": dict(zip(pairs, distances))}

    def check(self, reference, exact) -> Tuple[int, int, int, float]:
        """``(checked, failed, routes over the recorded stretch bound, mean
        route stretch)`` of the reference."""
        graph = self.graph
        # The recorded bound is 4k-3 "+ o(1)" over (1+eps)-approximate
        # estimates, and the system as it stands exceeds the bare 4k-3 on a
        # few near pairs (11.4x at k=3 on road seed 5; one seed in ten has
        # such a pair).  Those are counted and reported; a route fails the
        # gate beyond (4k-3)(1+eps)^k.
        recorded = self.hierarchy.theoretical_stretch_bound()
        bound = recorded * (1.0 + EPSILON) ** K
        failed = over = 0
        stretches = []
        for (s, t), trace in reference["route"].items():
            path = trace.path
            ok = (trace.delivered and path and path[0] == s and path[-1] == t
                  and all(graph.has_edge(u, v)
                          for u, v in zip(path, path[1:])))
            if ok:
                weight = sum(graph.weight(u, v)
                             for u, v in zip(path, path[1:]))
                stretch = weight / exact[s][t]
                ok = (abs(weight - trace.weight) < 1e-6
                      and weight >= exact[s][t] - TOLERANCE
                      and stretch <= bound)
                over += stretch > recorded
                stretches.append(stretch)
            failed += not ok
        for (s, t), estimate in reference["distance"].items():
            failed += estimate < exact[s][t] - TOLERANCE
        checked = len(reference["route"]) + len(reference["distance"])
        mean = sum(stretches) / len(stretches) if stretches else 0.0
        return checked, failed, over, mean


class ApspProduct:
    """``approximate_apsp``; queried hop by hop through its public accessors."""

    def __init__(self, graph) -> None:
        self.result = core.approximate_apsp(graph, EPSILON)
        self.graph = graph

    artifact_bytes = 0
    sha256 = ""

    def route_batch(self, pairs: Sequence[Pair]) -> List[Tuple[tuple, float]]:
        """Forward each packet along ``next_hop`` until it arrives (or has
        made n hops without arriving)."""
        next_hop = self.result.next_hop
        weight_of = self.graph.weight
        limit = self.graph.num_nodes
        out = []
        for s, t in pairs:
            path, node, weight = [s], s, 0.0
            while node != t and len(path) <= limit:
                following = next_hop(node, t)
                if following is None or not self.graph.has_edge(node,
                                                                following):
                    break
                weight += weight_of(node, following)
                node = following
                path.append(node)
            out.append((tuple(path), weight))
        return out

    def distance_batch(self, pairs: Sequence[Pair]) -> List[float]:
        estimate = self.result.estimate
        return [estimate(s, t) for s, t in pairs]

    def close(self) -> None:
        pass

    def reference(self, pairs: List[Pair]) -> Dict[str, Dict[Pair, Any]]:
        return {"route": dict(zip(pairs, self.route_batch(pairs))),
                "distance": dict(zip(pairs, self.distance_batch(pairs)))}

    def check(self, reference, exact) -> Tuple[int, int, int, float]:
        audit = self.result.stretch_audit(self.graph, exact)
        ceiling = 1.0 + EPSILON + TOLERANCE
        failed = audit["missing"] + audit["infeasible"] \
            + (audit["max_stretch"] > ceiling)
        checked = audit["pairs"] + audit["missing"] + audit["infeasible"]
        stretches = []
        for (s, t), (path, weight) in reference["route"].items():
            d = exact[s][t]
            ok = path[-1] == t and d - TOLERANCE <= weight <= d * ceiling
            stretches.append(weight / d)
            failed += not ok
        for (s, t), estimate in reference["distance"].items():
            d = exact[s][t]
            failed += not d - TOLERANCE <= estimate <= d * ceiling
        checked += len(reference["route"]) + len(reference["distance"])
        return checked, failed, 0, sum(stretches) / len(stretches)


def build_product(spec: Spec, graph, workdir: str):
    """The timed build operation of every workload."""
    if spec.product == "apsp":
        return ApspProduct(graph)
    return HierarchyProduct(graph, os.path.join(workdir,
                                                f"{spec.name}.artifact"))


# ----------------------------------------------------------------------
# backends: what the query phases call
# ----------------------------------------------------------------------
class DirectHierarchy:
    """The freshly loaded artifact, queried with its resolved kernel."""

    def __init__(self, hierarchy) -> None:
        self.hierarchy = hierarchy
        self.kernel = serving.resolve_query_kernel("auto", hierarchy)

    def route_batch(self, pairs):
        return self.hierarchy.route_batch(pairs, kernel=self.kernel)

    def distance_batch(self, pairs):
        return self.hierarchy.distance_batch(pairs, kernel=self.kernel)

    def close(self) -> None:
        pass


class ServerProcess:
    """``python -m repro.serving.cli --serve`` with never-hang teardown.

    The server runs in its own session so its whole process group (the
    shard workers included) can be killed if a graceful stop overruns.
    """

    def __init__(self, src: str, artifact: str, workers: int,
                 cache: int) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.serving.cli", "--serve",
             "127.0.0.1:0", "--artifact", artifact, "--workers", str(workers),
             "--cache-size", str(cache)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, start_new_session=True)
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

    def _pump(self) -> None:
        for line in self.process.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def address(self) -> str:
        """The endpoint from the ``listening on HOST:PORT`` line."""
        deadline = time.monotonic() + LISTEN_DEADLINE
        while True:
            remaining = deadline - time.monotonic()
            try:
                line = self._lines.get(timeout=max(0.0, remaining))
            except queue.Empty:
                raise TimeoutError("server printed no listening line within "
                                   f"{LISTEN_DEADLINE}s") from None
            if line is None:
                raise RuntimeError("server exited before listening "
                                   f"(code {self.process.poll()})")
            if "listening on " in line:
                return line.split("listening on ", 1)[1].split()[0]

    def stop(self) -> None:
        """SIGTERM, wait; SIGKILL the group on overrun.  Idempotent."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_DEADLINE)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.process.pid, signal.SIGKILL)   # stragglers, if any
        except (ProcessLookupError, PermissionError):
            pass
        self.process.wait(timeout=STOP_DEADLINE)
        self._reader.join(timeout=STOP_DEADLINE)
        self.process.stdout.close()


class Serving:
    """The opened backend of one workload plus what must be torn down."""

    def __init__(self, spec: Spec, product, src: str) -> None:
        self.server: Optional[ServerProcess] = None
        self.connect_s = 0.0
        if spec.serve == "direct":
            self.backend = (product if spec.product == "apsp"
                            else DirectHierarchy(product.loaded))
        elif spec.serve == "local":
            self.backend = serving.open_service(serving.ServingConfig(
                artifact_path=product.path, workers=1, kernel="auto",
                cache=serving.CacheConfig(capacity=spec.cache)))
        else:
            self.server = ServerProcess(src, product.path, workers=2,
                                        cache=spec.cache)
            try:
                address = self.server.address()
                start = time.perf_counter()
                self.backend = serving.ClientSession.connect(
                    address, timeout=CONNECT_DEADLINE,
                    reply_timeout=REPLY_DEADLINE, window=8)
                self.connect_s = time.perf_counter() - start
            except BaseException:
                self.server.stop()
                raise

    @property
    def pipelined(self) -> bool:
        return hasattr(self.backend, "submit")

    def close(self) -> None:
        try:
            self.backend.close()
        finally:
            if self.server is not None:
                self.server.stop()
