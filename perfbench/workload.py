"""The measured process: one workload run, started fresh by ``run.py``.

Usage (``run.py`` builds this command line)::

    python3 perfbench/workload.py --workload grid-tight --seed 0 \
        --seconds 25 --inputs DIR --spawned T --mode run|trace|probe

``--spawned`` is the wall-clock time at which the parent started this
process, so set-up time counts interpreter start-up and imports too.
``probe`` stops once set-up is done; ``run`` measures the end-to-end
metrics; ``trace`` the per-layer metrics.  The last line of standard
output is one JSON object for the parent.

Only public calls are measured: ``load_graph_matrix_market``,
``sparsify_graph``, ``DynamicSparsifier.apply`` and
``QueryEngine.resistance``, with every knob at its library default
except σ² and seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import time
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import repro.graphs.io as graph_io
from repro.graphs import generators
from repro.serve import QueryEngine
from repro.sparsify import sparsify_graph
from repro.stream import DynamicSparsifier, read_event_log

import kappa_oracle
from inputs import (BATCH_EVENTS, BUILD_SEED, MIN_ROUNDS, P_DELETE, P_INSERT,
                    WORKLOADS, episode_log, event_stream)

IMPORTED = time.time()

#: Every this many serve steps, from an episode's first, the query answer
#: is checked by scipy.
CHECK_EVERY = 10
#: Relative tolerance of that check.
QUERY_RTOL = 1e-8
#: In a trace run: rounds on each side (untraced, traced).
TRACE_ROUNDS = 2
#: Largest share of the traced wall time the layers may leave unattributed.
UNATTRIBUTED_GAP = 0.10


def calibrate() -> float:
    """Seconds for a fixed SuperLU + numpy kernel (machine drift probe):
    the median of three timed repetitions after an untimed one."""
    k = 120
    line = sp.diags([-np.ones(k - 1), 2 * np.ones(k), -np.ones(k - 1)],
                    [-1, 0, 1])
    lap = (sp.kron(line, sp.eye(k)) + sp.kron(sp.eye(k), line)).tocsc()
    rhs = np.random.default_rng(0).standard_normal((k * k, 32))
    dense = np.random.default_rng(1).standard_normal((300, 300))
    times = []
    for _ in range(4):
        start = time.perf_counter()
        spla.splu(lap).solve(rhs)
        np.linalg.qr(dense @ dense.T)
        times.append(time.perf_counter() - start)
    return statistics.median(times[1:])


def steal_ticks() -> int:
    """Cumulative steal ticks of all CPUs (0 where ``/proc/stat`` is absent)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0
    return int(fields[8]) if len(fields) > 8 else 0


def _personality() -> str | None:
    """This process's Linux personality (``0040000`` = no ASLR), if readable."""
    try:
        return Path("/proc/self/personality").read_text(encoding="ascii").strip()
    except OSError:
        return None


def latencies(update_s, query_s) -> dict:
    """The update and query latency metrics, in ms, of a run's rounds."""
    update_ms = 1e3 * np.asarray(update_s)
    query_ms = 1e3 * np.asarray(query_s)
    return {
        "update_ms_p50": float(np.percentile(update_ms, 50)),
        "update_ms_p90": float(np.percentile(update_ms, 90)),
        "query_ms_p50": float(np.percentile(query_ms, 50)),
        "query_ms_p90": float(np.percentile(query_ms, 90)),
    }


class Tally:
    """Attempts and failures of one kind of operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def timed(self, fn, *args, **kwargs):
        """``(result, seconds)`` of one counted call; a raised exception
        counts as a failure and gives ``None``."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is data, not a crash
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            result = None
        return result, time.perf_counter() - start


def warm_up(sigma2: float) -> None:
    """Untimed first calls: a 30×30 build, updates and queries."""
    graph = generators.grid2d(30, 30, weights="uniform", seed=0)
    dyn = DynamicSparsifier.from_result(
        sparsify_graph(graph, sigma2=sigma2, seed=0), seed=0)
    engine = QueryEngine(dyn)
    events = event_stream(graph, 4 * BATCH_EVENTS, 0, P_INSERT, P_DELETE)
    for i in range(0, len(events), BATCH_EVENTS):
        dyn.apply(events[i:i + BATCH_EVENTS])
        engine.resistance(np.array([[0, 899], [5, 400]]))


class Session:
    """State, phases and checks of one workload run."""

    def __init__(self, args) -> None:
        self.args = args
        self.recipe = WORKLOADS[args.workload]
        self.sigma2 = self.recipe["sigma2"]
        self.tallies = {"build": Tally(), "update": Tally(), "query": Tally()}
        self.problems: list[str] = []
        self.query_samples: list = []

    def fail(self, kind: str, message: str) -> None:
        """Record a failed check; it counts as a failed ``kind`` operation."""
        self.tallies[kind].failed += 1
        self.problems.append(f"{kind}: {message}")

    # -- set-up ---------------------------------------------------------
    def set_up(self) -> None:
        """Read the graph; a stream workload also certifies its initial build."""
        self.graph = graph_io.load_graph_matrix_market(self.args.inputs / "graph.mtx")
        if self.recipe["kind"] == "stream":
            sparsify_graph(self.graph, sigma2=self.sigma2, seed=BUILD_SEED)
        self.setup_s = time.time() - self.args.spawned

    def episode(self, origin, stream: int):
        """A live sparsifier at the certified build ``origin``, with one
        event stream's update batches and query pairs."""
        dyn = DynamicSparsifier.from_result(
            origin, seed=np.random.default_rng([2, stream]))
        events = read_event_log(episode_log(self.args.inputs, stream))
        pairs = np.load(self.args.inputs / "pairs.npy")[stream]
        return dyn, [events[i:i + BATCH_EVENTS]
                     for i in range(0, len(events), BATCH_EVENTS)], pairs

    # -- phases ---------------------------------------------------------
    def rounds(self, count: int | None = None) -> dict:
        """Rounds of one certified build, then one serve episode from it.

        ``count`` rounds, else as the recipe says: a count, or at least
        ``MIN_ROUNDS`` and until ``--seconds`` have passed.  Round ``r``
        replays event stream ``r % streams``, so every round of a
        ``"seconds"`` workload does the same work.  Returns the build
        times and results, the latencies, batch reports and answers, and
        the state at the end of each episode: ``(host graph, edge mask,
        sparsifier, tree size)``.
        """
        if count is None and self.recipe["rounds"] != "seconds":
            count = self.recipe["rounds"]
        log = {"build_s": [], "builds": [], "update_s": [], "query_s": [],
               "reports": [], "answers": [], "ends": []}
        start = time.perf_counter()
        index = 0
        while (index < count if count is not None else
               index < MIN_ROUNDS or time.perf_counter() - start < self.args.seconds):
            result, elapsed = self.tallies["build"].timed(
                sparsify_graph, self.graph, sigma2=self.sigma2, seed=BUILD_SEED)
            if result is not None:
                log["build_s"].append(elapsed)
                log["builds"].append(result)
                self.serve(result, index % self.recipe["streams"], log)
            index += 1
        return log

    def serve(self, origin, stream: int, log: dict) -> None:
        """Closed loop, one client: per step an update batch, then queries."""
        dyn, batches, pairs = self.episode(origin, stream)
        engine = QueryEngine(dyn)
        for step, (batch, queries) in enumerate(zip(batches, pairs)):
            report, elapsed = self.tallies["update"].timed(dyn.apply, batch)
            if report is not None:
                log["update_s"].append(elapsed)
                log["reports"].append(report)
            for query in queries:
                answer, elapsed = self.tallies["query"].timed(engine.resistance,
                                                              query)
                if answer is None:
                    continue
                log["query_s"].append(elapsed)
                log["answers"].append(answer)
            if step % CHECK_EVERY == 0 and answer is not None:
                self.query_samples.append(
                    (dyn.graph, dyn.edge_mask.copy(), query, answer))
        log["ends"].append((dyn.graph, dyn.edge_mask.copy(), dyn.sparsifier(),
                            dyn.tree_indices.size))

    # -- checks ---------------------------------------------------------
    def check_builds(self, results) -> None:
        masks = [r.edge_mask for r in results]
        if any(not np.array_equal(masks[0], m) for m in masks[1:]):
            self.fail("build", "edge masks differ across repeated builds")
        if results:
            final = results[-1]
            for problem in kappa_oracle.check_subgraph(
                    final.graph, final.edge_mask, final.sparsifier):
                self.fail("build", problem)

    def check_live(self, ends) -> None:
        for graph, mask, sparsifier, _ in ends:
            for problem in kappa_oracle.check_subgraph(graph, mask, sparsifier):
                self.fail("update", problem)

    def check_queries(self) -> int:
        for graph, mask, pairs, answer in self.query_samples:
            expected = kappa_oracle.resistances(graph.edge_subgraph(mask), pairs)
            error = np.abs(answer - expected)
            if not np.all(error <= QUERY_RTOL * np.abs(expected)):
                worst = np.max(error / np.maximum(np.abs(expected), 1e-300))
                self.fail("query", f"resistance off by {worst:.3g} relative")
        return len(self.query_samples)

    def operations(self) -> dict:
        return {kind: {"attempted": t.attempted, "failed": t.failed,
                       "errors": t.errors[:3]}
                for kind, t in self.tallies.items()}


def run(session: Session) -> dict:
    """End-to-end measurement (``--mode run``)."""
    calib, steal = [calibrate()], [steal_ticks()]
    warm_up(session.sigma2)
    log = session.rounds()
    metrics = {"sparsify_s": statistics.median(log["build_s"]),
               **latencies(log["update_s"], log["query_s"])}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calib.append(calibrate())
    steal.append(steal_ticks())
    cpu = os.times()
    samples = {"builds": len(log["build_s"]), "build_s": log["build_s"],
               "updates": len(log["update_s"]), "queries": len(log["query_s"])}

    # Checks and the κ oracle, outside every timed region.
    session.check_builds(log["builds"])
    session.check_live(log["ends"])
    samples["queries_checked"] = session.check_queries()
    samples["redensified"] = sum(r.redensified for r in log["reports"])
    if session.recipe["kind"] == "batch":
        final = log["builds"][-1]
        ends = [(final.graph, final.edge_mask, final.sparsifier,
                 final.tree_indices.size)]
    else:
        # A stream run averages over the end states of its episodes.
        ends = log["ends"]
    kappas = [kappa_oracle.kappa_upper_bound(graph, sparsifier)
              for graph, _, sparsifier, _ in ends]
    metrics["offtree_edges"] = statistics.mean(
        sparsifier.num_edges - tree for _, _, sparsifier, tree in ends)
    metrics["kappa_ratio"] = statistics.mean(kappas) / session.sigma2
    return {
        "metrics": metrics,
        "samples": samples,
        "diagnostics": {
            "kappa_upper_bounds": kappas,
            "machine.calib_s": calib,
            "machine.steal_ticks": steal[1] - steal[0],
            "proc.import_s": IMPORTED - session.args.spawned,
            "proc.cpu_s": cpu.user + cpu.system,
        },
    }


def _op_seconds(log: dict) -> float:
    return sum(log["build_s"]) + sum(log["update_s"]) + sum(log["query_s"])


def trace(session: Session, read_probe) -> dict:
    """Per-layer measurement (``--mode trace``): the same rounds untraced,
    then traced, which must give identical masks and answers."""
    import layer_trace

    calib, steal = [calibrate()], [steal_ticks()]
    warm_up(session.sigma2)
    plain = session.rounds(count=TRACE_ROUNDS)
    with layer_trace.LayerProbe() as probe:
        start = time.perf_counter()
        traced = session.rounds(count=TRACE_ROUNDS)
        wall = time.perf_counter() - start
    if any(not np.array_equal(a.edge_mask, b.edge_mask)
           for a, b in zip(plain["builds"], traced["builds"])):
        session.fail("build", "tracing changed a build's edge mask")
    session.check_builds(plain["builds"] + traced["builds"])
    if any(not np.array_equal(a[1], b[1])
           for a, b in zip(plain["ends"], traced["ends"])):
        session.fail("update", "tracing changed the served edge mask")
    if len(plain["answers"]) != len(traced["answers"]) or any(
            not np.array_equal(a, b)
            for a, b in zip(plain["answers"], traced["answers"])):
        session.fail("query", "tracing changed query answers")
    overhead = _op_seconds(traced) / _op_seconds(plain)
    iterations = traced["builds"][-1].iterations
    calib.append(calibrate())
    steal.append(steal_ticks())
    cpu = os.times()

    metrics = layer_trace.attribute(probe, wall)
    if metrics["trace.unattributed_ratio"] > UNATTRIBUTED_GAP:
        session.problems.append(
            f"trace: layers leave {metrics['trace.unattributed_ratio']:.1%} of "
            f"the traced wall time unattributed (allowed {UNATTRIBUTED_GAP:.0%})")
    candidates = sum(it.num_candidates for it in iterations)
    metrics.update({
        "graphs.read_s": layer_trace.attribute(read_probe, None)["graphs.read_s"],
        "sparsify.rounds": len(iterations),
        "sparsify.filter_yield": (sum(it.num_added for it in iterations) / candidates
                                  if candidates else 0.0),
        "stream.drift_checks": sum(report.checked
                                   for report in traced["reports"]),
        "proc.import_s": IMPORTED - session.args.spawned,
        "proc.cpu_s": cpu.user + cpu.system,
        "machine.calib_s": statistics.mean(calib),
        "machine.steal_ticks": steal[1] - steal[0],
        "trace.overhead_ratio": overhead,
    })
    return {"metrics": metrics,
            "samples": {"traced_wall_s": wall},
            "diagnostics": {"machine.calib_s": calib}}


def _args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--mode", choices=("probe", "run", "trace"),
                        required=True)
    return parser.parse_args()


def main() -> None:
    args = _args()
    session = Session(args)
    read_probe = None
    if args.mode == "trace":
        import layer_trace

        with layer_trace.LayerProbe() as read_probe:
            session.set_up()
    else:
        session.set_up()
    out = {"setup_s": session.setup_s}
    if args.mode != "probe":
        out.update(run(session) if args.mode == "run" else trace(session, read_probe))
        out["operations"] = session.operations()
        out["problems"] = session.problems
        out["settings"] = {key: os.environ.get(key) for key in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "PYTHONHASHSEED", "NUMPY_MADVISE_HUGEPAGE", "MALLOC_MMAP_THRESHOLD_")}
        out["settings"]["personality"] = _personality()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
