"""Independent checks of a sparsifier, built from scipy alone.

Nothing here reuses the program's solver objects or its Laplacian
code: both Laplacians are assembled from the raw edge arrays,
grounded at vertex 0 and factorized with ``scipy.sparse.linalg.splu``.

``kappa_upper_bound`` runs ARPACK on ``L_P⁻¹ L_G``.  When ``P`` is an
edge subgraph of ``G`` with the original weights (``check_subgraph``
proves that), ``L_G ⪰ L_P`` so ``λmin ≥ 1`` and ``λmax`` bounds the
true relative condition number ``κ(L_G, L_P)`` from above.  Only
``L_P`` is factorized: a factorization of the denser ``L_G`` is what
makes a ``λmin`` solve slow on hub-heavy graphs.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import csgraph


def grounded_laplacian(n, u, v, w, ground: int = 0) -> sp.csc_matrix:
    """Laplacian of the edge list ``(u, v, w)`` with row/column ``ground`` removed."""
    adj = sp.coo_matrix((w, (u, v)), shape=(n, n)).tocsr()
    adj = adj + adj.T
    lap = sp.diags(np.asarray(adj.sum(axis=1)).ravel()) - adj
    keep = np.flatnonzero(np.arange(n) != ground)
    return lap.tocsr()[keep][:, keep].tocsc()


def kappa_upper_bound(graph, sparsifier, tol: float = 1e-10) -> float:
    """Largest eigenvalue of the pencil ``(L_G, L_P)`` by ARPACK.

    Parameters
    ----------
    graph, sparsifier:
        Objects with ``n`` and canonical edge arrays ``u``, ``v``, ``w``.
    tol:
        ARPACK relative accuracy.

    Returns
    -------
    float
        ``λmax(L_P⁻¹ L_G)``, an upper bound on ``κ(L_G, L_P)`` whenever
        ``sparsifier`` is an edge subgraph of ``graph``.
    """
    lg = grounded_laplacian(graph.n, graph.u, graph.v, graph.w)
    lu = spla.splu(grounded_laplacian(sparsifier.n, sparsifier.u, sparsifier.v,
                                      sparsifier.w))
    op = spla.LinearOperator(
        lg.shape, matvec=lambda x: lu.solve(lg @ x), dtype=np.float64
    )
    v0 = np.random.default_rng(0).random(lg.shape[0]) + 0.5
    vals = spla.eigs(op, k=1, which="LM", tol=tol, v0=v0,
                     return_eigenvectors=False)
    return float(np.max(vals.real))


def check_subgraph(graph, edge_mask, sparsifier) -> list[str]:
    """Problems that keep ``sparsifier`` from being a connected spanning
    edge subgraph of ``graph`` selected by ``edge_mask`` (empty if none)."""
    mask = np.asarray(edge_mask, dtype=bool)
    if mask.shape != (graph.num_edges,):
        return [f"mask has shape {mask.shape}, graph has {graph.num_edges} edges"]
    problems = []
    if sparsifier.n != graph.n:
        problems.append(f"sparsifier has {sparsifier.n} vertices, graph {graph.n}")
    if not (np.array_equal(sparsifier.u, graph.u[mask])
            and np.array_equal(sparsifier.v, graph.v[mask])
            and np.array_equal(sparsifier.w, graph.w[mask])):
        problems.append("sparsifier edges are not the masked host edges")
    adj = sp.coo_matrix(
        (np.ones(sparsifier.u.size), (sparsifier.u, sparsifier.v)),
        shape=(graph.n, graph.n),
    )
    components = csgraph.connected_components(adj, directed=False,
                                              return_labels=False)
    if components != 1:
        problems.append(f"sparsifier has {components} components")
    return problems


def resistances(sparsifier, pairs: np.ndarray) -> np.ndarray:
    """Effective resistances of ``pairs`` on ``L_P`` by one grounded solve."""
    pairs = np.asarray(pairs, dtype=np.int64)
    lu = spla.splu(grounded_laplacian(sparsifier.n, sparsifier.u, sparsifier.v,
                                      sparsifier.w))
    k = pairs.shape[0]
    rhs = np.zeros((sparsifier.n, k))
    cols = np.arange(k)
    np.add.at(rhs, (pairs[:, 0], cols), 1.0)
    np.add.at(rhs, (pairs[:, 1], cols), -1.0)
    x = np.zeros_like(rhs)
    x[1:] = lu.solve(rhs[1:])
    return x[pairs[:, 0], cols] - x[pairs[:, 1], cols]
