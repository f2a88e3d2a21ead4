import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mathemb.analysis import cosine, nearest_neighbors, pca_matrix, pca_project, unit_rows
from mathemb.corpus import Vocabulary
from mathemb.embeddings import EmbeddingTable, TrainingConfig
from mathemb.errors import (
    DimensionMismatch, InsufficientRows, NonFiniteVector, UnknownSurface, ZeroVector,
)

from oracles import oracle_cosine

finite_vec = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=2, max_size=6)


def table_from_matrix(matrix, surfaces=None):
    matrix = np.asarray(matrix, dtype=np.float64)
    v, dim = matrix.shape
    surfaces = surfaces or [chr(ord("a") + i) for i in range(v)]
    return EmbeddingTable(
        config=TrainingConfig(dim=dim),
        vocab=Vocabulary(list(surfaces), [1] * v, 0.75),
        input_vectors=matrix,
        context_vectors=np.zeros_like(matrix),
    )


class TestCosine:
    def test_orthogonal(self):
        assert cosine([1, 0], [0, 1]) == 0.0

    def test_parallel(self):
        assert cosine([1, 2], [2, 4]) == 1.0

    def test_45_degrees(self):
        assert cosine([1, 1], [1, 0]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            cosine([0, 0], [1, 0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cosine([1, 0], [1, 0, 0])

    @given(finite_vec, finite_vec)
    @example(u=[0.0, 6.2e-142], v=[0.0, 6.2e-142])  # |u|^2 |v|^2 underflows to 0
    def test_symmetry_exact(self, u, v):
        n = min(len(u), len(v))
        u, v = np.asarray(u[:n]), np.asarray(v[:n])
        if not np.any(u) or not np.any(v):
            return
        assert cosine(u, v) == cosine(v, u)

    @given(finite_vec)
    @example(u=[0.0, 1.215430364955165e-113])  # |u|^4 underflows to 0
    def test_range(self, u):
        u = np.asarray(u)
        if not np.any(u):
            return
        assert -1.0 <= cosine(u, u) <= 1.0
        assert cosine(u, u) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "u", [[1e-80, 2e-80], [1e160, 1e160], [1e300, -1e300], [5e-324, 0.0]])
    def test_extreme_scale_self_cosine_is_one(self, u):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cosine(u, u) == 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_raises(self, bad):
        with pytest.raises(NonFiniteVector):
            cosine([bad, 1.0], [1.0, 1.0])
        with pytest.raises(NonFiniteVector):
            unit_rows([[1.0, 2.0], [bad, 1.0]])

    def test_unit_rows_at_any_scale(self):
        rows = unit_rows([[3.0, 4.0], [3e-200, 4e-200], [3e200, -4e200]])
        np.testing.assert_allclose(rows, [[0.6, 0.8], [0.6, 0.8], [0.6, -0.8]], rtol=0, atol=1e-15)
        with pytest.raises(ZeroVector):
            unit_rows([[1.0, 0.0], [0.0, 0.0]])

    @pytest.mark.parametrize("factor", [2.0 ** -600, 2.0 ** 600], ids=["2**-600", "2**600"])
    def test_power_of_two_scaling_is_exact(self, factor):
        rng = np.random.default_rng(5)
        pairs = [(np.array([1.0, 2.0]), np.array([2.0, 4.0]))]
        pairs += [(rng.normal(size=6), rng.normal(size=6)) for _ in range(50)]
        for u, v in pairs:
            assert cosine(u * factor, v * factor) == cosine(u, v)


class TestNearestNeighbors:
    def test_duplicate_vector_is_rank_one(self):
        m = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        nl = nearest_neighbors(table_from_matrix(m), "a", 2)
        assert nl.neighbors[0] == ("b", 1.0)

    def test_k_covers_everything(self):
        m = np.array([[1.0, 0.1], [0.5, 1.0], [-1.0, 0.2], [0.3, -0.9]])
        nl = nearest_neighbors(table_from_matrix(m), "a", 99)
        assert len(nl.neighbors) == 3
        cosines = [c for _, c in nl.neighbors]
        assert cosines == sorted(cosines, reverse=True)

    def test_query_excluded(self):
        m = np.eye(3)
        nl = nearest_neighbors(table_from_matrix(m), "b", 3)
        assert "b" not in [s for s, _ in nl.neighbors]

    def test_unknown_surface(self):
        with pytest.raises(UnknownSurface):
            nearest_neighbors(table_from_matrix(np.eye(2)), "zz", 1)

    def test_tie_break_lexicographic(self):
        m = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        nl = nearest_neighbors(table_from_matrix(m), "a", 2)
        assert [s for s, _ in nl.neighbors] == ["b", "c"]
        # copies of one row spread over a larger table tie exactly, whatever
        # their positions, and come in surface order
        rng = np.random.default_rng(11)
        m = rng.normal(size=(23, 9))
        copies = [2, 5, 6, 13, 21]
        m[copies] = m[copies[0]] * 3.0
        surfaces = [f"s{i:02d}" for i in range(23)][::-1]
        got = nearest_neighbors(table_from_matrix(m, surfaces), "s22", 22).neighbors
        tied = [(s, c) for s, c in got if s in {surfaces[i] for i in copies}]
        assert len({c for _, c in tied}) == 1
        assert [s for s, _ in tied] == sorted(surfaces[i] for i in copies)
        assert got[[s for s, _ in got].index(tied[0][0]):][:len(copies)] == tied

    def test_agrees_with_pairwise_oracle(self):
        rng = np.random.default_rng(7)
        for v in (10, 60, 200):
            m = rng.normal(size=(v, 12))
            surfaces = [f"s{i}" for i in range(v)]
            table = table_from_matrix(m, surfaces)
            probe = surfaces[3]
            got = nearest_neighbors(table, probe, 10)
            pv = m[3]
            expected = sorted(
                ((s, oracle_cosine(pv, m[i])) for i, s in enumerate(surfaces) if s != probe),
                key=lambda sc: (-sc[1], sc[0]))[:10]
            assert [s for s, _ in got.neighbors] == [s for s, _ in expected]
            for (_, a), (_, b) in zip(got.neighbors, expected):
                assert a == pytest.approx(b, abs=1e-12)

    def test_tiny_rows_are_ranked(self):
        # rows whose squared norms underflow are nonzero, so they are ranked
        m = np.array([[1.0, 2.0], [0.0, 1e-120], [5e-324, 0.0]])
        table = table_from_matrix(m)
        expected = {
            "a": [("b", 2 / math.sqrt(5)), ("c", 1 / math.sqrt(5))],
            "b": [("a", 2 / math.sqrt(5)), ("c", 0.0)],
            "c": [("a", 1 / math.sqrt(5)), ("b", 0.0)],
        }
        for probe, want in expected.items():
            got = nearest_neighbors(table, probe, 2).neighbors
            assert [s for s, _ in got] == [s for s, _ in want]
            for (_, a), (_, b) in zip(got, want):
                assert a == pytest.approx(b, abs=1e-12)

    def test_scale_invariance_of_ordering(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(20, 8))
        t1 = table_from_matrix(m, [f"s{i}" for i in range(20)])
        t2 = table_from_matrix(m * 37.5, [f"s{i}" for i in range(20)])
        for probe in ("s0", "s7"):
            a = [s for s, _ in nearest_neighbors(t1, probe, 19).neighbors]
            b = [s for s, _ in nearest_neighbors(t2, probe, 19).neighbors]
            assert a == b


class TestPCA:
    def test_hand_case_diagonal_points(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        projected, comps, eigs = pca_matrix(pts, 2)
        np.testing.assert_allclose(comps[0], [1 / math.sqrt(2)] * 2, atol=1e-9)
        np.testing.assert_allclose(projected[:, 0],
                                   [-math.sqrt(2), 0.0, math.sqrt(2)], atol=1e-9)
        # second direction carries no variance
        np.testing.assert_allclose(projected[:, 1], 0.0, atol=1e-9)
        assert eigs[0] == pytest.approx(2.0, abs=1e-9)  # covariance [[1,1],[1,1]]

    def test_identical_rows_give_zero_coordinates(self):
        pts = np.ones((5, 3)) * 2.5
        projected, comps, eigs = pca_matrix(pts, 2)
        np.testing.assert_array_equal(projected, np.zeros((5, 2)))
        assert (eigs == 0).all()

    def test_insufficient_rows(self):
        with pytest.raises(InsufficientRows):
            pca_matrix(np.ones((1, 3)), 2)

    def test_sign_convention(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(40, 6))
        _, comps, _ = pca_matrix(x, 3)
        for row in comps:
            assert row[int(np.argmax(np.abs(row)))] >= 0

    def test_variance_ordering(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(60, 10)) * np.linspace(3, 0.1, 10)
        projected, _, eigs = pca_matrix(x, 4)
        variances = projected.var(axis=0, ddof=1)
        for a, b in zip(variances, variances[1:]):
            assert b <= a + 1e-9
        for a, b in zip(eigs, eigs[1:]):
            assert b <= a + 1e-9

    def test_matches_full_eigensolver(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(50, 7))
        _, comps, eigs = pca_matrix(x, 3)
        centered = x - x.mean(axis=0)
        ref_vals, ref_vecs = np.linalg.eigh(centered.T @ centered / 49)
        for c in range(3):
            ref = ref_vecs[:, -1 - c]
            assert abs(abs(ref @ comps[c]) - 1.0) < 1e-6
            assert eigs[c] == pytest.approx(ref_vals[-1 - c], rel=1e-8)

    def test_non_expansion_of_pairwise_distances(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(25, 9))
        projected, _, _ = pca_matrix(x, 2)
        for i in range(25):
            for j in range(i + 1, 25):
                orig = np.linalg.norm(x[i] - x[j])
                proj = np.linalg.norm(projected[i] - projected[j])
                assert proj <= orig + 1e-9

    def test_table_projection_shape_and_l2_flag(self, trained_symbol_table):
        proj = pca_project(trained_symbol_table, components=2)
        assert len(proj.coords) == len(trained_symbol_table.vocab)
        surface, xy = proj.coords[0]
        assert surface == trained_symbol_table.vocab.surfaces[0]
        assert len(xy) == 2
        norm_proj = pca_project(trained_symbol_table, components=2, l2_normalize=True)
        assert norm_proj.coords != proj.coords
