"""Tests for the grouped stream layout: path i reads row i % G of the draws of
Philox key (seed, i // G).  Block draws must equal the single-path group
oracles bit for bit wherever a block starts or ends inside a group, and every
estimator must give the same bits for any block size."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import condmc as cm
from condmc import weakderiv as wd
from condmc.errors import DegenerateDenominator
from condmc.sde import _noise_block
from condmc.streams import PATHS_PER_STREAM as G
from condmc.streams import TAG_BRANCH, TAG_CHOICE, TAG_NOISE, group_streams, stream
from condmc.weakderiv import _branch_draw_block, _group_branch_draws, _hj_values
from conftest import fixed_block_rows

BIG_SEED = 2 ** 63 + 12_345
SEEDS = st.one_of(st.integers(0, 2 ** 32), st.integers(2 ** 63, 2 ** 64 - 1))
SETTINGS = settings(max_examples=40)


def test_property_settings_draw_the_same_examples_on_every_run():
    # the suite's profile (conftest) holds in every test's settings(...)
    assert SETTINGS.derandomize and SETTINGS.deadline is None


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def index_ranges(draw):
    """(first_index, count) whose paths touch exactly 1, 2 or 3 groups."""
    first = draw(st.integers(0, 4 * G))
    groups = draw(st.integers(1, 3))
    last_group = first // G + groups - 1
    low = max(1, last_group * G - first + 1)
    return first, draw(st.integers(low, (last_group + 1) * G - first))


@SETTINGS
@given(seed=SEEDS, span=index_ranges(), steps=st.integers(1, 6), dim=st.sampled_from([1, 2]))
@example(seed=BIG_SEED, span=(G - 1, G + 2), steps=3, dim=2)
def test_noise_block_rows_match_generate_noise(seed, span, steps, dim):
    first, count = span
    grid = cm.TimeGrid(1.0, steps)
    block = _noise_block(seed, np.arange(first, first + count), grid, dim)
    for row in range(count):
        assert same_bits(block[row], cm.generate_noise(seed, first + row, grid, dim).increments)


@SETTINGS
@given(seed=SEEDS, span=index_ranges(), steps=st.integers(1, 6), dim=st.sampled_from([1, 2]))
@example(seed=BIG_SEED, span=(G - 1, G + 2), steps=3, dim=2)
def test_branch_draw_block_rows_match_group_draws(seed, span, steps, dim):
    first, count = span
    block = _branch_draw_block(seed, np.arange(first, first + count), steps, dim)
    for row in range(count):
        group, i = divmod(first + row, G)
        single = _group_branch_draws(stream(seed, group, tag=TAG_BRANCH), steps, dim)
        for got, want in zip(block, single):
            assert (got is None) == (want is None)
            if got is not None:
                assert same_bits(got[row], want[i])


@settings(max_examples=15)
@given(seed=SEEDS, span=index_ranges(), steps=st.integers(1, 6), dim=st.sampled_from([1, 2]))
@example(seed=BIG_SEED, span=(G - 1, G + 2), steps=3, dim=2)
def test_branch_step_choices_match_group_draws(seed, span, steps, dim):
    first, count = span
    model, x0 = ((cm.ou_model(1.0), np.array([0.5])) if dim == 1
                 else (cm.ou_model(0.8, dim=2), np.array([0.5, -0.3])))
    batch = cm.simulate_paths(model, 1.0, x0, cm.TimeGrid(1.0, steps), count, seed,
                              first_index=first)
    starts = []
    real = wd._branch_batch

    def recording(base, from_steps, new_states, new_increments, **kwargs):
        starts.append(np.array(from_steps))
        return real(base, from_steps, new_states, new_increments, **kwargs)

    # a value-only payoff, whose branches restart
    with mock.patch.object(wd, "_branch_batch", recording):
        _hj_values(batch, cm.PathFunctional(value=cm.terminal_power(2).value), "random-k")
    want = [stream(seed, i // G, tag=TAG_CHOICE).integers(0, steps, G)[i % G]
            for i in range(first, first + count)]
    assert len(starts) == 2  # one restart pass per side
    for ks in starts:
        assert ks.tolist() == want


def test_group_streams_cover_each_group_once():
    covered = [(rows, part) for _, rows, part in
               group_streams(5, np.arange(G - 5, 3 * G + 2), tag=TAG_NOISE)]
    assert covered == [(slice(0, 5), slice(G - 5, G)), (slice(5, G + 5), slice(0, G)),
                       (slice(G + 5, 2 * G + 5), slice(0, G)),
                       (slice(2 * G + 5, 2 * G + 7), slice(0, 2))]


# ---------------------------------------------------------------------------
# block-size independence across group boundaries

N_PATHS = 230  # three groups, the last one partial
BLOCK_SIZES = (1, 7, 99, 100, 101, N_PATHS)


def _loss_bits(seed, steps, rows):
    grid = cm.TimeGrid(1.0, steps)
    try:
        with fixed_block_rows(rows):
            rep = cm.conditional_loss_estimate(
                cm.ou_model(1.0), 1.0, cm.terminal_power(2), cm.marginal_power(steps // 2, 1),
                "canonical", N_PATHS, seed, grid, 0.2)
    except DegenerateDenominator:
        return "degenerate denominator"
    return (rep.estimate, rep.std_error, rep.denominator_z, rep.a_terms.tobytes(),
            rep.b_terms.tobytes())


def _kernel_bits(seed, steps, rows):
    with fixed_block_rows(rows):
        rep = cm.kernel_loss_estimate(
            cm.ou_model(1.0), 1.0, cm.terminal_power(2), cm.marginal_power(steps // 2, 1), 0.3,
            N_PATHS, seed, cm.TimeGrid(1.0, steps), 0.2)
    return rep.estimate.hex(), rep.std_error.hex()


def _gradient_bits(seed, steps, mode, rows):
    with fixed_block_rows(rows):
        rep = cm.hj_gradient(cm.ou_model(1.0), 1.0, np.array([0.5]), cm.TimeGrid(1.0, steps),
                             cm.terminal_power(2), N_PATHS, mode, seed)
    return tuple(float(v).hex() for v in (rep.estimate, rep.std_error, rep.variance,
                                          rep.branch_stats))


@settings(max_examples=5)
@given(seed=SEEDS, steps=st.integers(4, 8))
@example(seed=BIG_SEED, steps=4)
def test_estimators_give_the_same_bits_for_every_block_size(seed, steps):
    loss = {_loss_bits(seed, steps, size) for size in BLOCK_SIZES}
    assert len(loss) == 1
    assert len({_kernel_bits(seed, steps, size) for size in BLOCK_SIZES}) == 1
    for mode in wd.GRADIENT_MODES:
        assert len({_gradient_bits(seed, steps, mode, size) for size in BLOCK_SIZES}) == 1


# ---------------------------------------------------------------------------
# master seeds outside [0, 2**64)


@pytest.mark.parametrize("seed", [-3, -1, 2 ** 64, 2 ** 64 + 5])
def test_out_of_range_seeds_raise_instead_of_aliasing(seed):
    message = r"must lie in \[0, 2\*\*64\)"
    grid = cm.TimeGrid(1.0, 4)
    with pytest.raises(ValueError, match=message):
        stream(seed, 0)
    with pytest.raises(ValueError, match=message):
        next(group_streams(seed, np.arange(3), tag=TAG_NOISE))
    with pytest.raises(ValueError, match=message):
        cm.simulate_paths(cm.ou_model(1.0), 1.0, 0.0, grid, 10, seed)
    with pytest.raises(ValueError, match=message):
        cm.conditional_loss_estimate(cm.ou_model(1.0), 1.0, cm.terminal_power(2),
                                     cm.marginal_power(2, 1), "canonical", 50, seed, grid, 0.2)
    with pytest.raises(ValueError, match=message):
        cm.kernel_loss_estimate(cm.ou_model(1.0), 1.0, cm.terminal_power(2),
                                cm.marginal_power(2, 1), 0.3, 50, seed, grid, 0.2)
    with pytest.raises(ValueError, match=message):
        cm.hj_gradient(cm.ou_model(1.0), 1.0, np.array([0.5]), grid, cm.terminal_power(2),
                       50, "random-k", seed)
    # child seeds: -3 would replay 2**64 - 3, in run_sgd's iterations too
    for words in ((seed, 0), (0, seed), (5, 2, seed)):
        with pytest.raises(ValueError, match=message):
            cm.child_seed(*words)
    with pytest.raises(ValueError, match=message):
        cm.OptimizerConfig(theta0=1.0, step_size=0.1, n_iterations=2,
                           paths_per_iteration=10, master_seed=seed)


@pytest.mark.parametrize("seed", [1.5, 1.0, np.float64(2.0), True])
def test_non_integer_seeds_raise_instead_of_truncating(seed):
    # 1.5 used to replay seed 1's numbers: stream, child seeds and estimates
    message = "must be integers"
    grid = cm.TimeGrid(1.0, 4)
    with pytest.raises(ValueError, match=message):
        stream(seed, 0)
    with pytest.raises(ValueError, match=message):
        stream(0, seed)
    for words in ((seed, 0), (0, seed), (5, 2, seed)):
        with pytest.raises(ValueError, match=message):
            cm.child_seed(*words)
    with pytest.raises(ValueError, match=message):
        cm.simulate_paths(cm.ou_model(1.0), 1.0, 0.0, grid, 10, seed)
    # path counts and first indices too: 2.5 paths were 3, first index 1.5
    # labelled paths 1 .. 3 as 1.5 .. 3.5
    with pytest.raises(ValueError, match="n_paths must be an integer"):
        cm.simulate_paths(cm.ou_model(1.0), 1.0, 0.0, grid, seed, 0)
    with pytest.raises(ValueError, match=message):
        cm.simulate_paths(cm.ou_model(1.0), 1.0, 0.0, grid, 3, 0, first_index=seed)
    with pytest.raises(ValueError, match=message):
        cm.conditional_loss_estimate(cm.ou_model(1.0), 1.0, cm.terminal_power(2),
                                     cm.marginal_power(2, 1), "canonical", 50, seed, grid, 0.2)
    with pytest.raises(ValueError, match=message):
        cm.kernel_loss_estimate(cm.ou_model(1.0), 1.0, cm.terminal_power(2),
                                cm.marginal_power(2, 1), 0.3, 50, seed, grid, 0.2)
    for mode in wd.GRADIENT_MODES:
        with pytest.raises(ValueError, match=message):
            cm.hj_gradient(cm.ou_model(1.0), 1.0, np.array([0.5]), grid, cm.terminal_power(2),
                           50, mode, seed)
    with pytest.raises(ValueError, match=message):
        cm.score_function_gradient(cm.ou_model(1.0), 1.0, 0.0, grid, cm.terminal_power(2), 50,
                                   seed)
    # a path index too: divmod(True, G) once replayed and branched path 1
    with pytest.raises(ValueError, match=message):
        cm.generate_noise(0, seed, grid, 1)
    with pytest.raises(ValueError, match=message):
        cm.hj_single_branch(cm.ou_model(1.0), 1.0, 0.0, grid, 1, cm.terminal_power(2), 0, seed)


def test_numpy_integer_seeds_give_the_bits_of_python_ints():
    grid = cm.TimeGrid(1.0, 4)
    assert cm.child_seed(np.uint64(BIG_SEED), np.int32(3)) == cm.child_seed(BIG_SEED, 3)
    assert same_bits(stream(np.uint64(BIG_SEED), np.int64(2)).standard_normal(5),
                     stream(BIG_SEED, 2).standard_normal(5))
    assert same_bits(cm.simulate_paths(cm.ou_model(1.0), 1.0, 0.0, grid, 10,
                                       np.uint64(BIG_SEED)).states,
                     cm.simulate_paths(cm.ou_model(1.0), 1.0, 0.0, grid, 10, BIG_SEED).states)


def test_negative_path_index_raises():
    with pytest.raises(ValueError):
        stream(0, -1)
    with pytest.raises(ValueError):
        cm.generate_noise(0, -1, cm.TimeGrid(1.0, 4), 1)


def test_edge_seeds_are_accepted():
    grid = cm.TimeGrid(1.0, 4)
    for seed in (0, 2 ** 64 - 1):
        batch = cm.simulate_paths(cm.ou_model(1.0), 1.0, 0.0, grid, 3, seed)
        assert same_bits(batch.increments[2], cm.generate_noise(seed, 2, grid, 1).increments)
        cm.OptimizerConfig(theta0=1.0, step_size=0.1, n_iterations=2,
                           paths_per_iteration=10, master_seed=seed)
    assert cm.child_seed(2 ** 64 - 1, 2 ** 64 - 1) != cm.child_seed(0, 0)
