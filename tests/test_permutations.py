import numpy as np
import pytest

from shufflevar import (
    alpha,
    apply,
    block_random_perm,
    build_design,
    cyclic_shift,
    identity_perm,
    is_trivial,
    ms_between,
    noise_conservation_gap,
    odd_even_swap,
    reverse_perm,
)
from shufflevar.noise import CovarianceModel
from shufflevar.permutations import (
    OddLength,
    PermutationSpec,
    alpha_dense,
    perm_from_indices,
)

from dense_oracles import contrast_trace


def random_balanced_design(rng, max_m=6, max_n=5):
    m = int(rng.integers(2, max_m + 1))
    n = int(rng.integers(1, max_n + 1))
    sched = rng.permutation(np.repeat(np.arange(m), n))
    return build_design(sched.tolist())


class TestConstructors:
    def test_reverse_mapping(self):
        assert reverse_perm(4).mapping.tolist() == [3, 2, 1, 0]

    def test_reverse_t1_is_identity(self):
        assert reverse_perm(1).mapping.tolist() == [0]

    def test_reverse_involution(self):
        P = reverse_perm(7)
        assert P.mapping[P.mapping].tolist() == list(range(7))

    def test_cyclic_shift(self):
        assert cyclic_shift(4, 1).mapping.tolist() == [1, 2, 3, 0]

    def test_cyclic_shift_zero_identity(self):
        assert cyclic_shift(5, 0).mapping.tolist() == list(range(5))

    def test_cyclic_shift_composes_to_identity(self):
        P = cyclic_shift(6, 2)
        Q = cyclic_shift(6, 4)
        assert P.mapping[Q.mapping].tolist() == list(range(6))

    def test_cyclic_shift_range(self):
        with pytest.raises(ValueError):
            cyclic_shift(4, 4)

    def test_odd_even(self):
        assert odd_even_swap(4).mapping.tolist() == [1, 0, 3, 2]

    def test_odd_even_involution(self):
        P = odd_even_swap(8)
        assert P.mapping[P.mapping].tolist() == list(range(8))

    def test_odd_even_odd_length(self):
        with pytest.raises(OddLength):
            odd_even_swap(3)

    def test_non_bijection_rejected(self):
        with pytest.raises(ValueError):
            PermutationSpec(np.array([0, 0, 1]))
        with pytest.raises(ValueError):
            PermutationSpec(np.array([0, 3]))

    def test_perm_from_indices_one_based(self):
        P = perm_from_indices([4, 3, 2, 1])
        assert P.mapping.tolist() == [3, 2, 1, 0]


class TestBlockRandom:
    def test_blocks_never_mix(self):
        # 20 blocks x 78 slots
        rng = np.random.default_rng(5)
        sched = []
        blocks = []
        for b in range(20):
            stims = np.repeat(np.arange(b * 6, (b + 1) * 6), 13)
            sched.extend(rng.permutation(stims).tolist())
            blocks.extend([b] * 78)
        d = build_design(sched, blocks)
        P = block_random_perm(d, seed=1)
        assert np.array_equal(d.block_index[P.mapping], d.block_index)

    def test_single_block_unrestricted(self):
        d = build_design(["a", "a", "b", "b", "c", "c"])
        P = block_random_perm(d, seed=3)
        assert sorted(P.mapping.tolist()) == list(range(6))

    def test_unit_blocks_identity(self):
        d = build_design(["a", "b", "a", "b"], [0, 1, 2, 3])
        P = block_random_perm(d, seed=9)
        assert P.mapping.tolist() == [0, 1, 2, 3]

    def test_deterministic_given_seed(self):
        d = build_design(["a", "a", "b", "b"] * 5, [0] * 10 + [1] * 10)
        assert np.array_equal(
            block_random_perm(d, 7).mapping, block_random_perm(d, 7).mapping
        )


class TestApply:
    def test_reverse(self):
        P = reverse_perm(3)
        assert apply(P, [1.0, 2.0, 3.0]).tolist() == [3.0, 2.0, 1.0]
        # a T x S matrix: every column shuffled alike
        assert apply(P, [[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]]).tolist() == [
            [3.0, 6.0], [2.0, 5.0], [1.0, 4.0]
        ]

    def test_identity(self):
        P = identity_perm(4)
        y = [0.5, 1.5, -2.0, 3.0]
        assert apply(P, y).tolist() == y

    def test_multiset_preserved(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(12)
        P = block_random_perm(build_design(["a", "b"] * 6), seed=2)
        assert sorted(apply(P, y).tolist()) == sorted(y.tolist())

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal(10)
        P = block_random_perm(build_design(["a", "b"] * 5), seed=4)
        assert np.allclose(apply(P.inverse(), apply(P, y)), y)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            apply(reverse_perm(4), [1.0, 2.0])


class TestIsTrivial:
    def test_identity_trivial(self):
        d = build_design(["a", "b", "a", "b", "c", "c"])
        assert is_trivial(identity_perm(6), d)

    def test_reverse_on_aabb_trivial(self):
        d = build_design(["a", "a", "b", "b"])
        assert is_trivial(reverse_perm(4), d)

    def test_reverse_on_aabbab_nontrivial(self):
        d = build_design(["a", "a", "b", "b", "a", "b"])
        assert not is_trivial(reverse_perm(6), d)

    def test_trivial_leaves_ms_between_unchanged(self):
        d = build_design(["a", "a", "b", "b"])
        y = np.array([0.4, -1.0, 2.2, 0.9])
        P = reverse_perm(4)
        assert ms_between(apply(P, y), d) == pytest.approx(ms_between(y, d), rel=1e-14)


class TestAlpha:
    def test_identity_alpha_one(self):
        d = build_design(["a", "b", "a", "b", "c", "c"])
        assert alpha(d, identity_perm(6)) == pytest.approx(1.0, abs=1e-14)

    def test_reverse_example(self):
        d = build_design(["a", "a", "b", "b", "a", "b"])
        assert alpha(d, reverse_perm(6)) == pytest.approx(1.0 / 9.0, rel=1e-12)

    def test_counting_matches_dense(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            d = random_balanced_design(rng)
            P = block_random_perm(d, seed=int(rng.integers(1 << 30)))
            assert abs(alpha(d, P) - alpha_dense(d, P)) <= 1e-12

    def test_alpha_at_most_one_iff_trivial(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            d = random_balanced_design(rng)
            P = block_random_perm(d, seed=int(rng.integers(1 << 30)))
            a = alpha(d, P)
            assert a <= 1.0 + 1e-12
            assert (abs(a - 1.0) <= 1e-12) == is_trivial(P, d)


class TestNoiseConservationGap:
    def test_identity_covariance_any_perm(self):
        d = build_design(["a", "b", "c"] * 4)
        P = block_random_perm(d, seed=8)
        gap = noise_conservation_gap(CovarianceModel.iid(), d, P)
        assert gap == pytest.approx(0.0, abs=1e-12)

    def test_toeplitz_reverse(self):
        rng = np.random.default_rng(2)
        d = build_design(rng.permutation(np.repeat(np.arange(5), 4)).tolist())
        model = CovarianceModel.exp_nugget(0.6, 5.0)
        gap = noise_conservation_gap(model, d, reverse_perm(20))
        assert gap == pytest.approx(0.0, abs=1e-12)

    def test_block_constant_block_perm(self):
        blocks = [0] * 4 + [1] * 4 + [2] * 4
        sched = ["a", "b", "a", "b", "c", "d", "c", "d", "e", "f", "e", "f"]
        d = build_design(sched, blocks)
        P = block_random_perm(d, seed=21)
        model = CovarianceModel.block(0.5, 0.5)
        assert noise_conservation_gap(model, d, P) == pytest.approx(0.0, abs=1e-12)

    def test_cross_block_swap_nonzero(self):
        blocks = [0] * 4 + [1] * 4 + [2] * 4
        sched = ["a", "a", "b", "b", "c", "c", "d", "d", "e", "e", "f", "f"]
        d = build_design(sched, blocks)
        g = list(range(12))
        g[0], g[4] = g[4], g[0]  # swap across blocks 0 and 1
        P = PermutationSpec(np.array(g))
        # stimuli a and c each split across two blocks, so sum_ib N_ib^2
        # drops by 2 + 2 and the gap is sigma2_block (-4) / n
        gap = noise_conservation_gap(CovarianceModel.block(0.5, 1.0), d, P)
        assert gap == pytest.approx(-0.5 * 4 / 2, rel=1e-12)

    def test_dimension_mismatch(self):
        d = build_design(["a", "a", "b", "b"])
        with pytest.raises(ValueError):
            noise_conservation_gap(CovarianceModel.iid(), d, reverse_perm(5))


class TestContrastTrace:
    def test_matches_dense(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            d = random_balanced_design(rng)
            A = rng.standard_normal((d.T, d.T))
            M = A + A.T
            dense = np.trace((d.averaging_matrix() - d.global_matrix()) @ M)
            assert contrast_trace(M, d) == pytest.approx(dense, rel=1e-10, abs=1e-10)
