import numpy as np
import pytest

from shufflevar import (
    DegenerateDesign,
    NoReplication,
    UnbalancedDesign,
    build_design,
    ms_between,
    ms_within,
    treatment_averages,
)

from dense_oracles import averaging_matrix, global_matrix


class TestBuildDesign:
    def test_smallest_balanced(self):
        d = build_design(["a", "a", "b", "b"])
        assert (d.T, d.m, d.n) == (4, 2, 2)

    def test_unbalanced_rejected(self):
        with pytest.raises(UnbalancedDesign):
            build_design(["a", "a", "b"])

    def test_single_stimulus_rejected(self):
        with pytest.raises(DegenerateDesign):
            build_design(["a", "a", "a"])

    def test_empty_rejected(self):
        with pytest.raises(DegenerateDesign):
            build_design([])

    def test_large_design_dimensions(self):
        # 120 stimuli x 13 repeats
        rng = np.random.default_rng(0)
        sched = rng.permutation(np.repeat(np.arange(120), 13))
        d = build_design(sched.tolist())
        assert (d.T, d.m, d.n) == (1560, 120, 13)

    def test_blocks_default_single(self):
        d = build_design(["a", "a", "b", "b"])
        assert d.n_blocks == 1
        assert not d.has_blocks

    def test_blocks_recorded(self):
        d = build_design(["a", "b", "a", "b"], ["x", "x", "y", "y"])
        assert d.n_blocks == 2
        assert d.has_blocks
        assert [g.tolist() for g in d.block_groups()] == [[0, 1], [2, 3]]

    def test_block_length_mismatch(self):
        with pytest.raises(ValueError):
            build_design(["a", "a", "b", "b"], ["x", "x"])


class TestTreatmentAverages:
    def test_hand_example(self):
        d = build_design(["a", "a", "b", "b"])
        assert treatment_averages([1, 2, 3, 4], d).tolist() == [1.5, 3.5]

    def test_constant(self):
        d = build_design(["a", "b", "a", "b"])
        assert treatment_averages([7.0] * 4, d).tolist() == [7.0, 7.0]

    def test_no_repeats_identity(self):
        d = build_design(["a", "b", "c"])
        y = [1.0, -2.0, 0.5]
        assert treatment_averages(y, d).tolist() == y

    def test_length_mismatch(self):
        d = build_design(["a", "a", "b", "b"])
        with pytest.raises(ValueError):
            treatment_averages([1, 2, 3], d)

    def test_matrix_columns(self):
        d = build_design(["a", "b", "a", "b"])
        Y = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
        assert treatment_averages(Y, d).tolist() == [[3.0, 4.0], [5.0, 6.0]]


class TestSeriesMatrix:
    """Columns of a T x S matrix get the bits of the 1-D bincount formula."""

    @pytest.mark.parametrize("m, n", [(120, 15), (36, 6), (2, 2)])
    @pytest.mark.parametrize("layout", ["rows", "columns"])
    def test_columns_equal_bincount_formula(self, m, n, layout):
        rng = np.random.default_rng(m * n)
        d = build_design(rng.permutation(np.repeat(np.arange(m), n)).tolist())
        h = d.stimulus_index
        scales = np.logspace(-3, 3, 7)
        # "columns" is the transposed view of an S x T array.
        if layout == "rows":
            Y = rng.standard_normal((d.T, 7)) * scales
        else:
            Y = (rng.standard_normal((7, d.T)) * scales[:, None]).T
        msb, msw = ms_between(Y, d), ms_within(Y, d)
        assert msb.shape == msw.shape == (7,)
        for j in range(Y.shape[1]):
            y = np.ascontiguousarray(Y[:, j])
            avgs = np.bincount(h, weights=y, minlength=m) / n
            assert msb[j] == np.sum((avgs - avgs.mean()) ** 2) / (m - 1)
            assert msw[j] == np.sum((y - avgs[h]) ** 2) / (m * (n - 1))
            assert ms_between(y, d) == msb[j]
            assert ms_within(y, d) == msw[j]

    @pytest.mark.parametrize("layout", ["rows", "columns"])
    def test_blocks_of_series_and_shuffle_index(self, layout):
        # 150 series span several blocks of ms_within's residuals, the last
        # one partial; a shuffle index reads y[g] without the copy.
        rng = np.random.default_rng(11)
        d = build_design(rng.permutation(np.repeat(np.arange(30), 4)).tolist())
        if layout == "rows":
            Y = rng.standard_normal((d.T, 150))
        else:
            Y = rng.standard_normal((150, d.T)).T
        g = rng.permutation(d.T)
        msw, shuffled = ms_within(Y, d), ms_between(Y, d, g)
        assert np.array_equal(shuffled, ms_between(Y[g], d))
        for j in range(Y.shape[1]):
            y = np.ascontiguousarray(Y[:, j])
            assert msw[j] == ms_within(y, d)
            assert shuffled[j] == ms_between(y[g], d)

    def test_series_gives_float(self):
        d = build_design(["a", "a", "b", "b"])
        assert type(ms_between([1, 2, 3, 4], d)) is float
        assert type(ms_within([1, 2, 3, 4], d)) is float

    def test_shape_mismatch(self):
        d = build_design(["a", "a", "b", "b"])
        for bad in (np.zeros((3, 2)), np.zeros((4, 2, 1))):
            with pytest.raises(ValueError):
                ms_between(bad, d)


class TestMsBetween:
    def test_hand_example(self):
        d = build_design(["a", "a", "b", "b"])
        assert ms_between([1, 2, 3, 4], d) == pytest.approx(2.0)

    def test_constant_is_zero(self):
        d = build_design(["a", "a", "b", "b"])
        assert ms_between([3.0] * 4, d) == 0.0

    def test_shift_invariance_exact(self):
        d = build_design(["a", "b", "b", "a", "c", "c"])
        y = np.array([0.3, -1.2, 2.0, 0.7, 1.1, -0.4])
        assert ms_between(y + 17.5, d) == pytest.approx(ms_between(y, d), rel=1e-12)

    def test_quadratic_form_equivalence(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = rng.integers(2, 8)
            n = rng.integers(1, 6)
            sched = rng.permutation(np.repeat(np.arange(m), n))
            d = build_design(sched.tolist())
            y = rng.standard_normal(d.T)
            B = averaging_matrix(d)
            G = global_matrix(d)
            quad = np.sum(((B - G) @ y) ** 2) / ((m - 1) * n)
            assert ms_between(y, d) == pytest.approx(quad, rel=1e-10)


class TestMsWithin:
    def test_hand_example(self):
        d = build_design(["a", "a", "b", "b"])
        assert ms_within([1, 2, 3, 4], d) == pytest.approx(0.5)

    def test_hand_example_m2_n3(self):
        d = build_design(["a", "a", "a", "b", "b", "b"])
        assert ms_within([0, 2, 0, 0, 2, 0], d) == pytest.approx(4.0 / 3.0)

    def test_identical_repeats_zero(self):
        d = build_design(["a", "b", "a", "b"])
        assert ms_within([5.0, -1.0, 5.0, -1.0], d) == 0.0

    def test_no_replication(self):
        d = build_design(["a", "b", "c"])
        with pytest.raises(NoReplication):
            ms_within([1, 2, 3], d)


class TestDenseMatrices:
    def test_averaging_matrix_idempotent_symmetric(self):
        rng = np.random.default_rng(3)
        sched = rng.permutation(np.repeat(np.arange(4), 3))
        d = build_design(sched.tolist())
        B = averaging_matrix(d)
        assert np.allclose(B, B.T)
        assert np.allclose(B, B @ B)

    def test_trace_identity(self):
        d = build_design(["a", "b", "c", "a", "b", "c"])
        B = averaging_matrix(d)
        G = global_matrix(d)
        assert np.trace(B - G) == pytest.approx(d.m - 1)

    def test_averaging_replicates_treatment_means(self):
        d = build_design(["a", "a", "b", "b"])
        y = np.array([1.0, 2.0, 3.0, 4.0])
        assert (averaging_matrix(d) @ y).tolist() == [1.5, 1.5, 3.5, 3.5]
