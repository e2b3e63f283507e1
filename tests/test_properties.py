"""Invariant checks over randomized designs, data, and permutations."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shufflevar import (
    alpha,
    apply,
    build_design,
    is_trivial,
    mom_estimate,
    ms_between,
    shuffle_estimate,
)
from shufflevar.estimators import TrivialPermutation, _clamp, _finish
from shufflevar.noise import substream, substreams
from shufflevar.permutations import PermutationSpec, block_random_perm

from dense_oracles import alpha_dense

design_params = st.tuples(
    st.integers(min_value=2, max_value=7),   # m
    st.integers(min_value=1, max_value=5),   # n
    st.integers(min_value=0, max_value=2**31),
)


def make_case(params):
    m, n, seed = params
    rng = np.random.default_rng(seed)
    sched = rng.permutation(np.repeat(np.arange(m), n))
    design = build_design(sched.tolist())
    perm = PermutationSpec(rng.permutation(design.T))
    y = rng.standard_normal(design.T)
    return design, perm, y


@given(design_params)
@settings(max_examples=150, deadline=None)
def test_alpha_in_unit_interval_and_matches_dense(params):
    design, perm, _ = make_case(params)
    a = alpha(design, perm)
    assert -1e-12 <= a <= 1.0 + 1e-12
    assert abs(a - alpha_dense(design, perm)) <= 1e-10


@given(design_params, st.booleans())
@settings(max_examples=150, deadline=None)
def test_alpha_is_one_exactly_when_trivial(params, relabel):
    design, perm, y = make_case(params)
    if relabel:
        # Map each stimulus's slots onto another stimulus's: always trivial.
        rng = np.random.default_rng(params[2] + 2)
        groups = design.stimulus_groups()
        target = rng.permutation(len(groups))
        mapping = np.empty(design.T, dtype=int)
        for g, k in zip(groups, target):
            mapping[g] = rng.permutation(groups[k])
        perm = PermutationSpec(mapping)
    trivial = is_trivial(perm, design)
    assert (alpha(design, perm) == 1.0) == trivial
    if trivial:
        with pytest.raises(TrivialPermutation):
            shuffle_estimate(y, design, perm)
    else:
        assert shuffle_estimate(y, design, perm).alpha < 1.0


@given(design_params)
@settings(max_examples=100, deadline=None)
def test_apply_preserves_multiset(params):
    design, perm, y = make_case(params)
    assert sorted(apply(perm, y).tolist()) == sorted(y.tolist())


@given(design_params)
@settings(max_examples=100, deadline=None)
def test_trivial_perm_leaves_between_contrast_unchanged(params):
    design, _, y = make_case(params)
    rng = np.random.default_rng(params[2] + 1)
    # within-stimulus-group reshuffles are always trivial
    mapping = np.arange(design.T)
    for g in design.stimulus_groups():
        mapping[g] = rng.permutation(g)
    perm = PermutationSpec(mapping)
    assert is_trivial(perm, design)
    before = ms_between(y, design)
    after = ms_between(apply(perm, y), design)
    assert abs(after - before) <= 1e-10 * max(1.0, abs(before))


@given(design_params, st.floats(-50.0, 50.0))
@settings(max_examples=100, deadline=None)
def test_shuffle_shift_invariant(params, shift):
    design, perm, y = make_case(params)
    if is_trivial(perm, design):
        return
    e1 = shuffle_estimate(y, design, perm)
    e2 = shuffle_estimate(y + shift, design, perm)
    scale = max(1.0, abs(e1.sigma2_A_raw))
    assert abs(e2.sigma2_A_raw - e1.sigma2_A_raw) <= 1e-8 * scale


@given(design_params, st.floats(0.01, 100.0))
@settings(max_examples=100, deadline=None)
def test_shuffle_scale_equivariant(params, c):
    design, perm, y = make_case(params)
    if is_trivial(perm, design):
        return
    e1 = shuffle_estimate(y, design, perm)
    e2 = shuffle_estimate(c * y, design, perm)
    scale = max(1e-12, abs(c**2 * e1.sigma2_A_raw))
    assert abs(e2.sigma2_A_raw - c**2 * e1.sigma2_A_raw) <= 1e-7 * scale


@given(design_params)
@settings(max_examples=150, deadline=None)
def test_estimates_well_formed(params):
    design, perm, y = make_case(params)
    try:
        e = shuffle_estimate(y, design, perm)
    except TrivialPermutation:
        return
    assert 0.0 <= e.omega2 <= 1.0
    assert e.sigma2_A >= 0.0
    assert abs(e.sigma2_A_raw + e.noise_level - e.total) <= 1e-10 * max(1.0, e.total)
    assert e.total >= 0.0


@given(design_params)
@settings(max_examples=100, deadline=None)
def test_mom_well_formed(params):
    m, n, seed = params
    if n < 2:
        return
    design, _, y = make_case(params)
    e = mom_estimate(y, design)
    assert 0.0 <= e.omega2 <= 1.0
    assert e.sigma2_A >= 0.0
    assert e.noise_level >= 0.0
    assert e.sigma2_A_raw <= e.total + 1e-12


@given(design_params, st.integers(min_value=2, max_value=5))
@settings(max_examples=60, deadline=None)
def test_block_random_respects_blocks(params, n_blocks):
    m, n, seed = params
    if m * n < n_blocks:
        return
    rng = np.random.default_rng(seed)
    sizes = rng.multinomial(m * n - n_blocks, np.ones(n_blocks) / n_blocks) + 1
    blocks = np.repeat(np.arange(n_blocks), sizes)
    sched = rng.permutation(np.repeat(np.arange(m), n))
    design = build_design(sched.tolist(), blocks.tolist())
    perm = block_random_perm(design, seed=seed ^ 0x5EED)
    assert np.array_equal(design.block_index[perm.mapping], design.block_index)


@given(st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([0, 2**32 - 1]),
        st.integers(min_value=2**32, max_value=2**80),
    ),
    min_size=1, max_size=5,
))
@settings(max_examples=150, deadline=None)
@example([0, 2, 0, 0])
@example([2**32 - 1, 2, 2**32 - 1, 0])
@example([7, 2, 2**32, 3])
def test_substream_seeds_as_the_tuple_key(parts):
    # substream hands parts below 2^32 over as one uint32 array; the
    # entropy words, and so every draw, are those of the tuple.
    want = np.random.SeedSequence(tuple(parts))
    if max(parts) < 2**32:
        got = np.random.SeedSequence(np.array(parts, dtype=np.uint32))
        assert np.array_equal(got.generate_state(8), want.generate_state(8))
    state = substream(*parts).bit_generator.state
    assert state == np.random.default_rng(want).bit_generator.state


@given(
    st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=3),
    st.integers(min_value=0, max_value=70),
)
@settings(max_examples=60, deadline=None)
def test_substreams_are_substreams(parts, count):
    got = [rng.bit_generator.state for rng in substreams(*parts, count=count)]
    assert got == [substream(*parts, r).bit_generator.state for r in range(count)]


special = st.sampled_from([0.0, -0.0, float("nan"), float("inf"), -float("inf"), 1.0, -1.0])
value = st.one_of(special, st.floats(allow_nan=True, allow_infinity=True))


@given(st.lists(st.tuples(value, value), min_size=1, max_size=20))
@settings(max_examples=300, deadline=None)
@example([(-0.0, 1.0), (float("nan"), 1.0), (float("inf"), float("inf")), (0.5, -0.0)])
@example([(1.0, float("nan")), (2.0, 1.0), (-3.0, -1.0), (float("inf"), 2.0)])
def test_vector_clamp_is_finish(pairs):
    # The sweep clamps raw estimates and forms omega2 as arrays; every value,
    # down to the sign of a zero, is _finish's.
    raw, total = (np.array(v) for v in zip(*pairs))
    clamped, omega2 = _clamp(raw, total)
    for j, (r, t) in enumerate(pairs):
        e = _finish("x", r, t)
        assert clamped[j].tobytes() == np.float64(e.sigma2_A).tobytes()
        assert omega2[j].tobytes() == np.float64(e.omega2).tobytes()
