"""Read-only analysis over a trained table: cosine similarity, nearest
neighbors, and a 2-D PCA projection suitable for external plotting.

Neighbor ranking uses the input vectors only: one product of the
L2-normalised candidate rows with the normalised query row.  PCA is
implemented by power iteration with deflation so results need no external
solver and the sign convention (largest-magnitude entry of each component is
positive) keeps golden files stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingTable
from .errors import (
    DimensionMismatch, InsufficientRows, NonFiniteVector, UnknownSurface, ZeroVector,
)

_PI_TOL = 1e-9
_PI_MAX_ITER = 1000


def _scaled_rows(x: np.ndarray) -> np.ndarray:
    """Each row of x times the power of two that puts its max-abs entry in
    [0.5, 1).  The scaling is exact, and the scaled rows' dot products can
    neither underflow nor overflow.

    Raises NonFiniteVector on a NaN or infinite entry and ZeroVector when
    every entry of a row is 0.
    """
    peak = np.abs(x).max(axis=1, initial=0.0)
    if not np.isfinite(peak).all():
        raise NonFiniteVector("vector has a NaN or infinite entry")
    if not peak.all():
        raise ZeroVector("cosine of a zero vector is undefined")
    return np.ldexp(x, -np.frexp(peak)[1][:, np.newaxis])


def unit_rows(x) -> np.ndarray:
    """The rows of a 2-D array scaled to unit L2 norm, safe at any scale.

    Rows are first scaled by a power of two from their max-abs entry (as
    cosine does), so tiny or huge rows normalise without underflow or
    overflow.  Raises NonFiniteVector on a NaN or infinite entry instead of
    letting it through, and ZeroVector on an all-zero row.
    """
    x = _scaled_rows(np.asarray(x, dtype=np.float64))
    return x / np.sqrt(np.einsum("ij,ij->i", x, x))[:, np.newaxis]


def cosine(u, v) -> float:
    """u.v / (|u||v|), clipped to [-1, 1].

    A NaN or infinite entry raises NonFiniteVector.  A vector is zero, and
    raises ZeroVector, only when all its entries are 0; any other vector has
    a cosine however small or large its entries.  The result is
    scale-invariant: each input is first scaled by a power of two taken from
    its own max-abs entry (as in a scaled Euclidean norm), so the dot
    products cannot underflow or overflow.  That scaling is exact, so
    wherever the unscaled products stay in range the result is bit-for-bit
    the unscaled formula's.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise DimensionMismatch(f"{u.shape} vs {v.shape}")
    u, v = _scaled_rows(np.stack((u.ravel(), v.ravel())))
    uu = float(u @ u)
    vv = float(v @ v)
    # sqrt of the product keeps exactly-parallel integer cases exact
    return min(1.0, max(-1.0, float(u @ v) / math.sqrt(uu * vv)))


@dataclass
class NeighborList:
    query: str
    neighbors: list[tuple[str, float]]   # (surface, cosine), descending


def nearest_neighbors(table: EmbeddingTable, surface: str, k: int) -> NeighborList:
    """Exact top-k by cosine, brute force over all vocabulary rows.

    The query surface is excluded; ties break lexicographically.  Candidate
    rows whose entries are all 0 (untrainable in practice) are skipped.  The
    cosines are one product of the normalised candidate rows with the
    normalised query row, computed row by row in the same order for every
    row, so identical rows get identical cosines.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if surface not in table.vocab.index:
        raise UnknownSurface(surface)
    q = table.vector(surface)
    if not np.any(q):
        raise ZeroVector(f"vector of {surface!r} is zero")
    keep = np.any(table.input_vectors, axis=1)
    keep[table.vocab.index[surface]] = False
    candidates = np.flatnonzero(keep)
    cos = np.clip(np.einsum("ij,j->i", unit_rows(table.input_vectors[candidates]),
                            unit_rows(q[np.newaxis])[0]), -1.0, 1.0)
    names = np.asarray(table.vocab.surfaces)[candidates]
    top = np.lexsort((names, -cos))[:k]
    return NeighborList(surface, [(str(names[j]), float(cos[j])) for j in top])


@dataclass
class PCAProjection:
    coords: list[tuple[str, tuple[float, ...]]]
    components: np.ndarray        # (n_components, dim)
    eigenvalues: np.ndarray


def _power_iteration(cov: np.ndarray, rng: np.random.Generator):
    """Leading eigenpair of a PSD matrix; (0, zeros) when there is no variance."""
    dim = cov.shape[0]
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    for _ in range(_PI_MAX_ITER):
        w = cov @ v
        norm = np.linalg.norm(w)
        if norm < 1e-15:
            return 0.0, np.zeros(dim)
        w /= norm
        if np.linalg.norm(w - v) < _PI_TOL:
            v = w
            break
        v = w
    return float(v @ cov @ v), v


def pca_matrix(x: np.ndarray, components: int):
    """PCA of the rows of x: (projections, components, eigenvalues).

    Rows are mean-centered; each retained component has its largest-magnitude
    entry positive; a zero-variance direction yields a zero component and
    all-zero projections on that axis.
    """
    if components < 1:
        raise ValueError("components must be >= 1")
    x = np.asarray(x, dtype=np.float64)
    n, dim = x.shape
    if n < components:
        raise InsufficientRows(f"{n} vectors for {components} components")
    centered = x - x.mean(axis=0)
    if n > 1:
        cov = centered.T @ centered / (n - 1)
    else:
        cov = np.zeros((dim, dim))

    rng = np.random.default_rng(0)
    comps = np.zeros((components, dim))
    eigs = np.zeros(components)
    for c in range(components):
        lam, v = _power_iteration(cov, rng)
        if lam > 0.0:
            j = int(np.argmax(np.abs(v)))
            if v[j] < 0:
                v = -v
            comps[c] = v
            eigs[c] = lam
            cov = cov - lam * np.outer(v, v)
        # zero eigenvalue: component stays zero, projections collapse to 0
    return centered @ comps.T, comps, eigs


def pca_project(table: EmbeddingTable, components: int = 2,
                l2_normalize: bool = False) -> PCAProjection:
    """Project mean-centered input vectors onto the top principal components."""
    x = np.array(table.input_vectors, dtype=np.float64)
    if l2_normalize:
        norms = np.linalg.norm(x, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        x = x / norms
    projected, comps, eigs = pca_matrix(x, components)
    coords = [(s, tuple(float(c) for c in projected[i]))
              for i, s in enumerate(table.vocab.surfaces)]
    return PCAProjection(coords, comps, eigs)
