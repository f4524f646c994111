"""Tests of the benchmark's own oracle, input generator and tracing.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import generators
from repro.sparsify import exact_condition_number, sparsify_graph
from repro.sparsify.effective_resistance import exact_effective_resistances
from repro.stream import random_event_stream

import inputs
import kappa_oracle
import layer_trace


@pytest.fixture(scope="module")
def small_build():
    graph = generators.grid2d(24, 24, weights="uniform", seed=0)
    return sparsify_graph(graph, sigma2=10.0, seed=0)


def test_oracle_matches_dense_condition_number(small_build):
    dense = exact_condition_number(small_build.graph, small_build.sparsifier)
    bound = kappa_oracle.kappa_upper_bound(small_build.graph, small_build.sparsifier)
    assert bound == pytest.approx(dense, rel=1e-8)
    # The program's own estimate approaches λmax from below.
    assert small_build.sigma2_estimate <= bound


def test_oracle_resistances_match_program(small_build):
    pairs = np.array([[0, 575], [3, 3], [17, 400], [100, 101]])
    expected = exact_effective_resistances(small_build.sparsifier, pairs)
    got = kappa_oracle.resistances(small_build.sparsifier, pairs)
    np.testing.assert_allclose(got, expected, rtol=1e-10, atol=0)


def test_check_subgraph_flags_problems(small_build):
    graph, mask = small_build.graph, small_build.edge_mask
    assert kappa_oracle.check_subgraph(graph, mask, small_build.sparsifier) == []
    reweighted = small_build.sparsifier.reweighted(small_build.sparsifier.w * 2)
    assert kappa_oracle.check_subgraph(graph, mask, reweighted)
    cut = mask.copy()
    cut[np.flatnonzero(cut)[0]] = False
    assert any("components" in p for p in kappa_oracle.check_subgraph(
        graph, cut, graph.edge_subgraph(cut)))


@pytest.mark.parametrize("graph, p_insert, p_delete", [
    (generators.circuit_grid(12, 12, seed=0), 0.35, 0.35),
    (generators.grid2d(10, 10, weights="uniform", seed=3), 0.1, 0.8),
    (generators.barabasi_albert(80, attach=1, seed=1), 0.2, 0.6),
])
def test_event_stream_equals_library_stream(graph, p_insert, p_delete):
    expected = random_event_stream(graph, 600, seed=5, p_insert=p_insert,
                                   p_delete=p_delete)
    assert inputs.event_stream(graph, 600, 5, p_insert, p_delete) == expected


def test_self_times_partition_the_roots():
    from repro.obs import Tracer

    tracer = Tracer()
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("b"):
                sum(range(20000))
        with tracer.span("c"):
            sum(range(20000))
    entries = layer_trace.self_times(tracer.records())
    root = next(r for r, _, _ in entries if r.name == "root")
    assert sum(own for _, own, _ in entries) == pytest.approx(root.duration)
    parents = {r.name: (p.name if p else None) for r, _, p in entries}
    assert parents == {"root": None, "a": "root", "b": "a", "c": "root"}


def test_layer_probe_is_passive_and_restores():
    from repro.solvers import DirectSolver

    graph = generators.grid2d(16, 16, weights="uniform", seed=1)
    plain = sparsify_graph(graph, sigma2=20.0, seed=2)
    original = DirectSolver.__dict__["solve"]
    with layer_trace.LayerProbe() as probe:
        traced = sparsify_graph(graph, sigma2=20.0, seed=2)
    assert DirectSolver.__dict__["solve"] is original
    np.testing.assert_array_equal(plain.edge_mask, traced.edge_mask)
    metrics = layer_trace.attribute(probe, wall=None)
    assert metrics["solvers.factorize_calls"] == probe.counter(
        "repro_direct_factorizations_total")
    assert metrics["trace.other_s"] == 0.0
    assert metrics["kernels.embedding_s"] > 0.0
