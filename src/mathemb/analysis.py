"""Read-only analysis over a trained table: cosine similarity, nearest
neighbors, and a 2-D PCA projection suitable for external plotting.

Neighbor ranking uses the input vectors only: the table is L2-normalised
and its surfaces ranked once per call, however many symbols are queried,
and each query is then one product of the normalised rows with its own.
PCA takes the leading eigenvectors of the covariance matrix
(np.linalg.eigh); the sign convention (largest-magnitude entry of each
component is positive) keeps golden files stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingTable
from .errors import (
    DimensionMismatch, InsufficientRows, NonFiniteVector, UnknownSurface, ZeroVector,
)


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


def string_rank(labels) -> np.ndarray:
    """Each label's place in Python string order: a ranking's tie-break key."""
    return np.argsort(sorted(range(len(labels)), key=labels.__getitem__))


@dataclass
class NeighborList:
    query: str
    neighbors: list[tuple[str, float]]   # (surface, cosine), descending


def neighbor_lists(table: EmbeddingTable, surfaces, k: int) -> list[NeighborList]:
    """Exact top-k by cosine for each of surfaces, brute force over all
    vocabulary rows.

    The query surface is excluded; ties break lexicographically.  Candidate
    rows whose entries are all 0 (untrainable in practice) are skipped.  The
    table is normalised and its surfaces ranked once per call; each query's
    cosines are then one product of the normalised rows with its own
    normalised row, computed row by row in the same order for every row, so
    identical rows get identical cosines.  Each query holds O(V) memory,
    never a V x V array.  Surfaces are checked in order, so the first bad
    one raises as it would alone.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    vocab, x = table.vocab, table.input_vectors
    live = np.flatnonzero(np.any(x, axis=1))
    at = np.full(len(vocab), -1)                # row -> its place in live, -1 if zero
    at[live] = np.arange(len(live))
    rank = string_rank(vocab.surfaces)[live]    # the tie-break as one integer key
    unit = None     # normalised at the first valid query, so its checks come first
    out = []
    for surface in surfaces:
        if surface not in vocab.index:
            raise UnknownSurface(f"symbol {surface} is not in the model's vocabulary")
        q = at[vocab.index[surface]]
        if q < 0:
            raise ZeroVector(f"vector of {surface!r} is zero")
        if unit is None:
            unit = unit_rows(x[live])
        cos = np.clip(np.einsum("ij,j->i", unit, unit[q]), -1.0, 1.0)
        top = np.lexsort((rank, -cos))
        top = top[top != q][:k]
        out.append(NeighborList(surface, [(vocab.surfaces[i], c) for i, c in
                                          zip(live[top].tolist(), cos[top].tolist())]))
    return out


def nearest_neighbors(table: EmbeddingTable, surface: str, k: int) -> NeighborList:
    """The top-k neighbors of one surface (neighbor_lists)."""
    return neighbor_lists(table, [surface], k)[0]


@dataclass
class PCAProjection:
    coords: list[tuple[str, tuple[float, ...]]]
    components: np.ndarray        # (n_components, dim)
    eigenvalues: np.ndarray


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

    vals, vecs = np.linalg.eigh(cov)          # ascending eigenvalues
    k = min(components, dim)
    eigs = np.zeros(components)
    comps = np.zeros((components, dim))
    eigs[:k] = vals[::-1][:k]
    comps[:k] = vecs[:, ::-1][:, :k].T
    # directions whose variance is rounding noise, or beyond dim, stay zero
    flat = eigs <= dim * np.finfo(np.float64).eps * max(vals[-1], 0.0)
    eigs[flat] = 0.0
    comps[flat] = 0.0
    peaks = comps[np.arange(components), np.argmax(np.abs(comps), axis=1)]
    comps[peaks < 0] *= -1
    return centered @ comps.T, comps, eigs


def pca_project(table: EmbeddingTable, components: int = 2,
                l2_normalize: bool = False) -> PCAProjection:
    """Project mean-centered input vectors onto the top principal components;
    l2_normalize first scales each non-zero row to unit length with unit_rows."""
    x = np.array(table.input_vectors, dtype=np.float64)
    if l2_normalize:
        live = np.any(x, axis=1)
        x[live] = unit_rows(x[live])
    projected, comps, eigs = pca_matrix(x, components)
    coords = [(s, tuple(float(c) for c in projected[i]))
              for i, s in enumerate(table.vocab.surfaces)]
    return PCAProjection(coords, comps, eigs)
