"""Tests for the Euler engine, noise streams, Jacobians and built-in models."""

import contextvars
import dataclasses
import hashlib
import math
import sys
import threading
import time
import tracemalloc
import types
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import condmc as cm
from condmc import malliavin, optimizer, sde
from condmc.errors import CoefficientShapeError, NonFiniteState, SingularJacobian
from condmc.sde import _euler_continue, _noise_block
from condmc.streams import PATHS_PER_STREAM as G
from condmc.streams import TAG_BRANCH, TAG_CHOICE, TAG_NOISE, _StreamPool, stream
from condmc.weakderiv import (_branch_batch, _branch_draw_block, _draws_at, _hj_terms_batch,
                              _step_pair)
from conftest import fixed_block_rows

E_INV = math.exp(-1.0)            # 0.36787944117144233
OU_VAR_T1 = 0.4323323583816936    # sigma^2 (1 - e^{-2 theta}) / (2 theta) at theta=sigma=1


def make_custom(drift, drift_dtheta, drift_dx, sigma=1.0):
    sig = np.array([[sigma]])
    zeros3 = np.zeros((1, 1, 1))
    return cm.SdeModel(
        drift=drift,
        drift_dtheta=drift_dtheta,
        drift_dx=drift_dx,
        diffusion=lambda x, t: sig,
        diffusion_dx=lambda x, t: zeros3,
        state_dim=1,
        noise_dim=1,
    )


def sine_diffusion_model():
    """1-D model whose drift slope and diffusion both move with the state, so
    the Jacobian step factor 1 + dt b'(X) + sigma'(X) dW carries every term."""
    return cm.SdeModel(
        drift=lambda x, t, th: -th * x + 0.3 * np.cos(x),
        drift_dtheta=lambda x, t, th: -x,
        drift_dx=lambda x, t, th: (-th - 0.3 * np.sin(x))[..., None],
        diffusion=lambda x, t: (0.5 + 0.2 * np.sin(x))[..., None],
        diffusion_dx=lambda x, t: (0.2 * np.cos(x))[..., None, None],
        state_dim=1,
        noise_dim=1,
        name="sine-diffusion",
    )


def time_diffusion_model():
    """OU drift with diffusion 1 + t on every path: a coefficient that reads
    the grid time."""
    return dataclasses.replace(cm.ou_model(1.0), name="time-diffusion",
                               diffusion=lambda x, t: np.ones_like(x)[..., None] * (1 + t))


def same_bits(a, b) -> bool:
    """Equal shapes and float64 bit patterns; unlike array_equal, -0.0 != 0.0."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def every_path(a, batch, ndim):
    """a over the path axes of batch: a value that every path shares keeps
    its own shape, the last ndim axes, and np.broadcast_to hands each path
    its row."""
    return np.broadcast_to(a, batch.states.shape[:-2] + np.shape(a)[-ndim:])


def matrix_jacobian(model, theta, grid, states, increments):
    """Y_k by the general matrix recursion Y_{k+1} = (I + dt b' + sigma' dW_k) Y_k."""
    n = model.state_dim
    eye = np.eye(n)
    yk = np.broadcast_to(eye, states.shape[:-2] + (n, n))
    ys = [yk]
    for k in range(grid.steps):
        x = states[..., k, :]
        jb = np.asarray(model.drift_dx(x, grid.times[k], theta))
        js = np.asarray(model.diffusion_dx(x, grid.times[k]))
        amat = grid.dt * jb + np.einsum("...imj,...j->...im", js, increments[..., k, :])
        yk = (amat + eye) @ yk
        ys.append(yk)
    return np.stack(ys, axis=-3)


# ---------------------------------------------------------------------------
# TimeGrid


def test_grid_uniform_and_exact():
    grid = cm.TimeGrid(2.0, 7)
    times = grid.times
    assert times[0] == 0.0 and times[-1] == 2.0
    assert np.all(np.diff(times) > 0)
    assert abs(grid.dt * grid.steps - grid.horizon) <= np.finfo(float).eps * grid.horizon


def test_grid_times_are_computed_once_and_read_only():
    grid = cm.TimeGrid(1.0, 8)
    assert grid.times is grid.times
    with pytest.raises(ValueError):
        grid.times[3] = 0.0
    assert grid == cm.TimeGrid(1.0, 8) and hash(grid) == hash(cm.TimeGrid(1.0, 8))


# a float step count (4.0, 2.5) was once accepted and failed later, in
# linspace or in the estimators, with a bare TypeError
@pytest.mark.parametrize("horizon,steps", [(0.0, 10), (-1.0, 10), (1.0, 0), (math.inf, 4),
                                           (1.0, 4.0), (1.0, 2.5), (1.0, np.float64(4.0)),
                                           (1.0, True)])
def test_grid_rejects_bad_arguments(horizon, steps):
    with pytest.raises(ValueError):
        cm.TimeGrid(horizon, steps)


@pytest.mark.parametrize("steps", [np.int64(4), np.int32(4), np.uint8(4)])
def test_grid_takes_numpy_integer_steps(steps):
    grid = cm.TimeGrid(1.0, steps)
    assert grid == cm.TimeGrid(1.0, 4) and same_bits(grid.times, cm.TimeGrid(1.0, 4).times)


# ---------------------------------------------------------------------------
# noise


def test_noise_regeneration_is_bit_identical():
    grid = cm.TimeGrid(1.0, 4)
    a = cm.generate_noise(7, 0, grid, 1)
    b = cm.generate_noise(7, 0, grid, 1)
    assert np.array_equal(a.increments, b.increments)
    assert a.increments.shape == (4, 1)


def test_noise_variance_matches_dt():
    grid = cm.TimeGrid(10000.0, 1_000_000)  # dt = 0.01
    inc = cm.generate_noise(7, 0, grid, 1).increments.ravel()
    n = inc.size
    var = inc.var(ddof=1)
    se = 0.01 * math.sqrt(2.0 / (n - 1))
    assert abs(var - 0.01) <= 3.0 * se
    assert abs(inc.mean()) <= 3.0 * math.sqrt(0.01) / math.sqrt(n)


def test_noise_streams_independent_across_paths():
    grid = cm.TimeGrid(1.0, 1_000_000)
    a = cm.generate_noise(7, 0, grid, 1).increments.ravel()
    b = cm.generate_noise(7, 1, grid, 1).increments.ravel()
    r = np.corrcoef(a, b)[0, 1]
    assert abs(r) <= 3.0 / math.sqrt(a.size)


def test_noise_block_rows_match_single_streams():
    grid = cm.TimeGrid(1.0, 32)
    block = _noise_block(99, np.arange(5, 12), grid, 2)
    for row, idx in enumerate(range(5, 12)):
        single = cm.generate_noise(99, idx, grid, 2).increments
        assert np.array_equal(block[row], single)


@pytest.mark.parametrize("seed", [0, 2 ** 63 + 5, 2 ** 64 - 1])
def test_stream_matches_pool_rekey_for_every_key_word(seed):
    # a key word >= 2**63 must keep its low bits in both constructions
    pool = _StreamPool()
    for tag in (TAG_NOISE, TAG_BRANCH, TAG_CHOICE):
        for idx in (0, 2 ** 63 + 1):
            want = pool.rekey(seed, idx, tag=tag).standard_normal(6)
            assert same_bits(stream(seed, idx, tag=tag).standard_normal(6), want)
    assert not np.array_equal(stream(2 ** 63 + 5, 0).random(4), stream(2 ** 63, 0).random(4))


def test_block_rows_match_generate_noise_for_a_large_child_seed():
    seed = next(s for s in (cm.child_seed(0, i) for i in range(64)) if s >= 2 ** 63)
    grid = cm.TimeGrid(1.0, 12)
    model = cm.ou_model(1.0)
    batch = cm.simulate_paths(model, 1.0, 0.3, grid, 4, seed, first_index=2)
    for i in range(4):
        noise = cm.generate_noise(seed, 2 + i, grid, 1)
        assert same_bits(batch.path(i).increments, noise.increments)
        assert same_bits(batch.path(i).states,
                         cm.simulate_path(model, 1.0, 0.3, grid, noise).states)


def test_per_path_joins_block_terms_in_order_and_keeps_no_block(force_workers):
    # joined in block order, with at most one block per worker alive at once;
    # the barrier holds the first `workers` blocks until all of them are in
    # terms together, so every worker does run.  Three workers on any CPU
    # count and a short switch interval make a block taken twice, or not at
    # all, show as a wrong join
    model, grid = cm.ou_model(1.0), cm.TimeGrid(1.0, 6)
    whole = cm.simulate_paths(model, 1.0, 0.2, grid, 3_000, 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (1, 2, 3):
            force_workers(workers)
            seen, lock = [], threading.Lock()
            barrier = threading.Barrier(workers, timeout=30)

            def terms(batch):
                with lock:
                    seen.append(weakref.ref(batch))
                    assert sum(ref() is not None for ref in seen) <= workers
                    first = len(seen) <= workers
                if first:
                    barrier.wait()
                return batch.states[:, -1, 0].copy(), batch.path_indices

            with fixed_block_rows(100 * workers):  # blocks of 100 rows
                terminal, indices = sde.per_path(model, 1.0, 0.2, grid, 3_000, 3, terms)
            assert len(seen) == 30
            assert np.array_equal(indices, np.arange(3_000))
            assert same_bits(terminal, whole.states[:, -1, 0])
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("workers", [1, 2])
def test_per_path_terms_that_view_a_reused_block_keep_their_rows(force_workers, workers):
    # each worker simulates its later blocks into its first block's arrays;
    # terms that return views of them must still join to one call's bits.
    # The barrier holds every worker's first three blocks until all workers
    # are in terms together, so each worker reuses its arrays at least twice,
    # and the last block is shorter
    model, grid = cm.ou_model(1.0, dim=2), cm.TimeGrid(1.0, 6)
    n_paths = 100 * (4 * workers + 1) - 30
    whole = cm.simulate_paths(model, 1.0, 0.2, grid, n_paths, 3)
    force_workers(workers)
    barrier = threading.Barrier(workers, timeout=30)
    blocks = {}  # thread -> blocks it took

    def terms(batch):
        me = threading.current_thread()
        blocks[me] = blocks.get(me, 0) + 1
        if blocks[me] <= 3:
            barrier.wait()
        return batch.states[:, -1], batch.states[:, 2, 1], batch.increments, batch.path_indices

    with fixed_block_rows(100 * workers):  # blocks of 100 rows
        terminal, middle, increments, indices = sde.per_path(model, 1.0, 0.2, grid, n_paths,
                                                             3, terms)
    assert len(blocks) == workers and min(blocks.values()) >= 3
    assert np.array_equal(indices, np.arange(n_paths))
    assert same_bits(terminal, whole.states[:, -1])
    assert same_bits(middle, whole.states[:, 2, 1])
    assert same_bits(increments, whole.increments)


@pytest.mark.parametrize("n_dim", [1, 2])
def test_simulate_paths_into_out_gives_the_bits_of_a_fresh_block(n_dim):
    # out's leading rows take the block, a shorter one too, and the batch
    # returned views them
    model, grid, x0 = cm.ou_model(0.7, dim=n_dim), cm.TimeGrid(1.0, 9), 0.3
    out = cm.simulate_paths(model, 1.0, x0, grid, 300, 5)
    for n_paths, first in ((300, 300), (170, 600), (1, 7), (300, 0)):
        got = cm.simulate_paths(model, 1.0, x0, grid, n_paths, 5, first_index=first, out=out)
        fresh = cm.simulate_paths(model, 1.0, x0, grid, n_paths, 5, first_index=first)
        assert same_bits(got.states, fresh.states)
        assert same_bits(got.increments, fresh.increments)
        assert np.array_equal(got.path_indices, fresh.path_indices)
        assert np.shares_memory(got.states, out.states[:n_paths])
        assert np.shares_memory(got.increments, out.increments[:n_paths])


@pytest.mark.parametrize("n_paths, grid", [(301, cm.TimeGrid(1.0, 9)), (3, cm.TimeGrid(1.0, 8))])
def test_simulate_paths_rejects_an_out_that_does_not_fit(n_paths, grid):
    model = cm.ou_model(0.7)
    out = cm.simulate_paths(model, 1.0, 0.3, cm.TimeGrid(1.0, 9), 300, 5)
    with pytest.raises(ValueError, match="out holds"):
        cm.simulate_paths(model, 1.0, 0.3, grid, n_paths, 5, out=out)


@pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
def test_estimators_reject_a_non_finite_theta_before_simulating(monkeypatch, theta):
    # an infinite theta once let a RuntimeWarning escape from the OU drift
    # and then raised NonFiniteState at step 1
    model, grid = cm.ou_model(1.0), cm.TimeGrid(1.0, 10)
    ell, g = cm.terminal_power(2), cm.marginal_power(5, 1)
    simulated = []
    monkeypatch.setattr(sde, "simulate_paths", lambda *args, **kwargs: simulated.append(args))
    x0 = np.array([0.0])
    calls = {
        "loss": lambda: cm.conditional_loss_estimate(model, theta, ell, g, "canonical", 50, 1,
                                                     grid, 0.0),
        "random-k": lambda: cm.hj_gradient(model, theta, x0, grid, ell, 50, "random-k", 1),
        "sum-over-k": lambda: cm.hj_gradient(model, theta, x0, grid, ell, 50, "sum-over-k", 1),
        "score": lambda: cm.score_function_gradient(model, theta, x0, grid, ell, 50, 1),
        "counterfactual": lambda: cm.counterfactual_gradient(model, theta, ell, g, "canonical",
                                                             grid, 0.0, 50),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, call in calls.items():
            with pytest.raises(ValueError, match="theta must be finite"):
                call()
    assert simulated == []


def test_per_path_raises_the_earliest_failed_block_and_leaves_no_thread(force_workers):
    # block 3 fails first in time, then block 2; block 2's error is the one a
    # one-block-at-a-time loop raises, and no block is taken after them
    model, grid = cm.ou_model(1.0), cm.TimeGrid(1.0, 6)
    force_workers(2)
    taken, later_failed = [], threading.Event()
    threads = threading.active_count()

    def terms(batch):
        block = int(batch.path_indices[0]) // 100
        taken.append(block)
        if block == 2:
            assert later_failed.wait(30)
            raise NonFiniteState(4)
        if block == 3:
            later_failed.set()
            raise ValueError("a later block")
        return (batch.path_indices,)

    with pytest.raises(NonFiniteState) as info, fixed_block_rows(200):  # 100-row blocks
        sde.per_path(model, 1.0, 0.2, grid, 600, 3, terms)
    assert info.value.step == 4
    assert sorted(taken) == [0, 1, 2, 3]
    assert threading.active_count() == threads


def test_per_path_raises_an_interrupt_ahead_of_an_earlier_block_error(force_workers):
    # the calling thread is interrupted on a later block than the helper's
    # failed one; the interrupt, not the block's error, reaches the caller
    model, grid = cm.ou_model(1.0), cm.TimeGrid(1.0, 6)
    force_workers(2)
    caller, entered = threading.current_thread(), set()
    both_in, caller_on_later_block = threading.Barrier(2, timeout=30), threading.Event()
    threads = threading.active_count()

    def terms(batch):
        me, block = threading.current_thread(), int(batch.path_indices[0]) // 100
        if me not in entered:
            entered.add(me)
            both_in.wait()  # blocks 0 and 1 are taken, one by each thread
            if me is caller and block == 0:
                return (batch.path_indices,)  # the caller goes on to block 2
        if me is caller:
            caller_on_later_block.set()
            raise KeyboardInterrupt
        assert caller_on_later_block.wait(30)
        raise ValueError("an earlier block")

    with pytest.raises(KeyboardInterrupt), fixed_block_rows(200):  # 100-row blocks
        sde.per_path(model, 1.0, 0.2, grid, 600, 3, terms)
    assert threading.active_count() == threads


def test_per_path_raises_an_exit_from_a_helper(force_workers):
    # a helper ended by a BaseException that is not an Exception hands it to
    # the caller, ahead of any block's error
    model, grid = cm.ou_model(1.0), cm.TimeGrid(1.0, 6)
    force_workers(2)
    caller, entered, both_in = threading.current_thread(), set(), threading.Barrier(2, timeout=30)

    def terms(batch):
        me = threading.current_thread()
        if me not in entered:
            entered.add(me)
            both_in.wait()
        if me is caller:
            raise ValueError("a block of the caller")
        raise SystemExit(3)

    with pytest.raises(SystemExit), fixed_block_rows(200):  # 100-row blocks
        sde.per_path(model, 1.0, 0.2, grid, 600, 3, terms)


def test_per_path_joins_every_helper_when_interrupted_while_joining(force_workers, monkeypatch):
    # an interrupt during the first join still leaves no helper running
    model, grid = cm.ou_model(1.0), cm.TimeGrid(1.0, 6)
    force_workers(3)
    caller, join, interrupted = threading.current_thread(), threading.Thread.join, []
    threads = threading.active_count()

    def interrupted_once(thread, timeout=None):
        if not interrupted:
            interrupted.append(thread)
            raise KeyboardInterrupt
        return join(thread, timeout)

    def terms(batch):
        if threading.current_thread() is not caller:
            time.sleep(0.05)  # helpers are still on a block when the caller joins
        return (batch.path_indices,)

    monkeypatch.setattr(threading.Thread, "join", interrupted_once)
    # 100-row blocks on three workers: three blocks of the 300-row plan
    with pytest.raises(KeyboardInterrupt), fixed_block_rows(300):
        sde.per_path(model, 1.0, 0.2, grid, 900, 3, terms)
    assert interrupted and threading.active_count() == threads


def test_helpers_run_under_the_callers_errstate_without_its_context(force_workers,
                                                                   monkeypatch):
    # NumPy before 2.0 keeps np.errstate per thread, outside the context, so
    # a helper run in an empty context must still get the caller's settings
    model, grid = cm.ou_model(1.0), cm.TimeGrid(1.0, 6)
    force_workers(2)
    monkeypatch.setattr(sde, "contextvars",
                        types.SimpleNamespace(copy_context=contextvars.Context))
    seen, entered, both_in = [], set(), threading.Barrier(2, timeout=30)

    def terms(batch):
        me = threading.current_thread()
        seen.append((me, np.geterr()))
        if me not in entered:
            entered.add(me)
            both_in.wait()
        return (batch.path_indices,)

    with np.errstate(divide="raise", over="ignore", under="warn", invalid="print"):
        expected = np.geterr()
        with fixed_block_rows(200):  # 100-row blocks
            sde.per_path(model, 1.0, 0.2, grid, 400, 3, terms)
    assert len({me for me, _ in seen}) == 2
    assert all(err == expected for _, err in seen)


# ---------------------------------------------------------------------------
# simulate_path


def test_one_path_is_a_path_batch():
    # one type for simulated paths: a single path carries its own seed and index
    model, grid = cm.ou_model(1.0), cm.TimeGrid(1.0, 10)
    noise = cm.generate_noise(7, 123, grid, 1)
    path = cm.simulate_path(model, 1.0, 0.2, grid, noise)
    assert isinstance(path, cm.PathBatch)
    assert path.n_paths == 1 and path.states.shape == (11, 1)
    assert path.master_seed == 7 and path.path_indices == 123
    batch = cm.simulate_paths(model, 1.0, 0.2, grid, 5, 7, first_index=120)
    assert batch.n_paths == 5
    for i in range(5):
        row = batch.path(i)
        assert isinstance(row, cm.PathBatch) and row.n_paths == 1
        assert row.master_seed == 7 and row.path_indices == 120 + i
    assert same_bits(batch.path(3).states, path.states)
    resumed = cm.resume_path(path, 4, path.states[4] + 0.5, noise)
    assert resumed.n_paths == 1 and (resumed.master_seed, resumed.path_indices) == (7, 123)


def test_random_walk_degenerate_model():
    grid = cm.TimeGrid(1.0, 50)
    model = make_custom(
        drift=lambda x, t, th: np.zeros_like(x),
        drift_dtheta=lambda x, t, th: np.zeros_like(x),
        drift_dx=lambda x, t, th: np.zeros((1, 1)),
    )
    noise = cm.generate_noise(3, 0, grid, 1)
    b = cm.simulate_path(model, 0.5, 0.0, grid, noise)
    walk = np.concatenate([[0.0], np.cumsum(noise.increments[:, 0])])
    np.testing.assert_allclose(b.states[:, 0], walk, rtol=0, atol=1e-12)


def test_euler_recursion_exact_one_step():
    grid = cm.TimeGrid(1.0, 10)
    model = cm.ou_model(0.7)
    noise = cm.generate_noise(11, 2, grid, 1)
    b = cm.simulate_path(model, 1.3, 0.4, grid, noise)
    x0 = b.states[0, 0]
    expected = x0 + grid.dt * (-1.3 * x0) + 0.7 * noise.increments[0, 0]
    assert b.states[1, 0] == expected
    assert b.states[0, 0] == 0.4


def test_ou_terminal_variance_closed_form():
    grid = cm.TimeGrid(1.0, 200)
    batch = cm.simulate_paths(cm.ou_model(1.0), 1.0, 0.0, grid, 100_000, 7)
    xt = batch.states[:, -1, 0]
    var = xt.var(ddof=1)
    se = var * math.sqrt(2.0 / (xt.size - 1))
    # 3 SE plus an O(dt) discretization allowance
    assert abs(var - OU_VAR_T1) <= 3.0 * se + 2.0 * grid.dt


def test_ou_jacobian_matches_exponential():
    grid = cm.TimeGrid(1.0, 1000)
    noise = cm.generate_noise(1, 0, grid, 1)
    b = cm.simulate_path(cm.ou_model(1.0), 1.0, 0.0, grid, noise)
    y_T = b.jacobians.y[-1, 0, 0]
    assert abs(y_T - E_INV) <= 2e-3
    step_product = 1.0
    for _ in range(grid.steps):
        step_product *= 1.0 + grid.dt * -1.0
    assert y_T == step_product
    # Z_k Y_k = I
    prod = b.jacobians.z * b.jacobians.y
    np.testing.assert_allclose(prod[:, 0, 0], 1.0, rtol=1e-8)


def test_jacobian_bump_consistency():
    # D_s X_T = Y_T Z_s sigma(X_s) vs central difference in the increment at s
    grid = cm.TimeGrid(1.0, 1000)
    model = cm.ou_model(1.0)
    noise = cm.generate_noise(5, 3, grid, 1)
    b = cm.simulate_path(model, 0.5, 0.3, grid, noise)
    eps = 1e-5
    for s in (0, 400, 999):
        formula = b.jacobians.y[-1, 0, 0] * b.jacobians.z[s, 0, 0] * 1.0
        up = noise.increments.copy()
        dn = noise.increments.copy()
        up[s, 0] += eps
        dn[s, 0] -= eps
        xp = cm.simulate_path(model, 0.5, 0.3, grid, cm.NoisePath(up, 5, 3)).states[-1, 0]
        xm = cm.simulate_path(model, 0.5, 0.3, grid, cm.NoisePath(dn, 5, 3)).states[-1, 0]
        fd = (xp - xm) / (2.0 * eps)
        assert abs(formula - fd) / abs(fd) <= 1e-3


def test_weak_order_error_halves_with_dt():
    # theta=2, sigma=0.1, x0=1: E[X_1] = e^{-2}; Euler bias scales like dt
    errors = []
    for steps in (20, 40):
        grid = cm.TimeGrid(1.0, steps)
        batch = cm.simulate_paths(cm.ou_model(0.1), 2.0, 1.0, grid, 100_000, 11)
        mean = cm.fsum(batch.states[:, -1, 0]) / batch.n_paths
        errors.append(abs(mean - math.exp(-2.0)))
    ratio = errors[0] / errors[1]
    assert 1.5 <= ratio <= 3.0


def test_non_finite_state_reports_step():
    grid = cm.TimeGrid(1.0, 20)
    model = make_custom(
        drift=lambda x, t, th: x ** 3,
        drift_dtheta=lambda x, t, th: np.zeros_like(x),
        drift_dx=lambda x, t, th: 3.0 * x[..., None] ** 2,
    )
    noise = cm.generate_noise(0, 0, grid, 1)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteState) as err:
        cm.simulate_path(model, 0.0, 50.0, grid, noise)
    assert 1 <= err.value.step <= 20


def euler_chunks(steps, rows, n_dim=1):
    """Patch sde.CHUNK_BYTES so that Euler steps rows x n_dim states in
    chunks of `steps` steps."""
    return mock.patch.object(sde, "CHUNK_BYTES", 8 * rows * n_dim * steps)


def _cubic_blow_up_model():
    return make_custom(
        drift=lambda x, t, th: x ** 3,
        drift_dtheta=lambda x, t, th: np.zeros_like(x),
        drift_dx=lambda x, t, th: 3.0 * x[..., None] ** 2,
    )


def _first_non_finite_step(x, increments, dt, from_step):
    """The first state index beyond from_step at which x' = x + dt x^3 + dW,
    run from state x at from_step, is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(from_step, len(increments)):
            x = x + dt * x ** 3 + increments[k]
            if not math.isfinite(x):
                return k + 1
    raise AssertionError("the state stayed finite")


def test_non_finite_state_reports_the_exact_step_of_its_row():
    # one row of four overflows; the block names that row's step, the one
    # simulate_path gives for it alone, also when Euler takes its steps in
    # chunks of 1, 2, 3 or 5 and the step lies in a later chunk
    grid = cm.TimeGrid(1.0, 20)
    model = _cubic_blow_up_model()
    increments = _noise_block(4, np.arange(4), grid, 1)
    step = _first_non_finite_step(50.0, increments[2, :, 0], grid.dt, 0)
    assert 6 <= step < grid.steps
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteState) as alone:
        cm.simulate_path(model, 0.0, 50.0, grid, cm.NoisePath(increments[2], 4, 2))
    assert alone.value.step == step
    for chunk in (grid.steps, 1, 2, 3, 5):
        states = np.empty((4, grid.steps + 1, 1))
        states[:, 0, 0] = [0.1, -0.2, 50.0, 0.3]
        with euler_chunks(chunk, 4), np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteState) as block:
            _euler_continue(model, 0.0, grid, states, increments, 0)
        assert block.value.step == step, chunk


def test_non_finite_state_reports_the_exact_step_under_ragged_starts():
    # restarted rows start at steps 2 .. 9; the row put at 50.0 after step 7
    # overflows, and the block names its step, the one resume_path gives,
    # also when Euler takes its steps from step 3 in chunks of 1, 2, 3 or 5
    # and the step lies in a later chunk
    grid = cm.TimeGrid(1.0, 20)
    model = _cubic_blow_up_model()
    base = cm.simulate_paths(model, 0.0, 0.1, grid, 4, 4)
    starts = np.array([2, 9, 7, 4])
    rows = np.arange(4)
    new_states = base.states[rows, starts + 1].copy()
    new_states[2] = 50.0
    step = _first_non_finite_step(50.0, base.increments[2, :, 0], grid.dt, 8)
    assert 11 <= step < grid.steps
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteState) as alone:
        cm.resume_path(base.path(2), 8, 50.0, cm.NoisePath(base.increments[2], 4, 2))
    assert alone.value.step == step
    for chunk in (grid.steps, 1, 2, 3, 5):
        with euler_chunks(chunk, 4), np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteState) as block:
            _branch_batch(base, starts, new_states, base.increments[rows, starts])
        assert block.value.step == step, chunk


EULER_CHUNK_MODELS = {
    "ou-1": lambda: cm.ou_model(0.8),
    "ou-2": lambda: cm.ou_model(0.8, dim=2),
    "sine-diffusion": sine_diffusion_model,
    "time-diffusion": time_diffusion_model,
}


@settings(max_examples=40)
@given(name=st.sampled_from(sorted(EULER_CHUNK_MODELS)), chunk=st.integers(1, 4),
       theta=st.floats(-1.0, 1.5), seed=st.integers(0, 2 ** 32), data=st.data())
def test_euler_chunks_give_the_states_of_the_single_path_oracles_property(name, chunk, theta,
                                                                         seed, data):
    # step counts around the chunk edges; a block from step 0 against
    # simulate_path, and restarts at mixed steps against resume_path, both
    # oracles run with the default chunk budget
    model = EULER_CHUNK_MODELS[name]()
    n_dim = model.state_dim
    steps = data.draw(st.sampled_from(sorted({max(s, 1) for s in
                                              (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1)})))
    grid = cm.TimeGrid(1.0, steps)
    n_paths = data.draw(st.integers(1, 5))
    x0 = np.linspace(-0.3, 0.4, n_dim)
    with euler_chunks(chunk, n_paths, n_dim):
        batch = cm.simulate_paths(model, theta, x0, grid, n_paths, seed)
    starts = np.array(data.draw(st.lists(st.integers(0, steps - 1), min_size=n_paths,
                                         max_size=n_paths)))
    rows = np.arange(n_paths)
    new_states = batch.states[rows, starts + 1] + 0.25
    with euler_chunks(chunk, n_paths, n_dim):
        restarted = _branch_batch(batch, starts, new_states, batch.increments[rows, starts])
    for i, k in enumerate(starts):
        noise = cm.NoisePath(batch.increments[i], seed, i)
        single = cm.simulate_path(model, theta, x0, grid, noise)
        assert same_bits(batch.states[i], single.states)
        resumed = cm.resume_path(single, k + 1, new_states[i], noise)
        assert same_bits(restarted.states[i], resumed.states)


def test_singular_jacobian_detected():
    grid = cm.TimeGrid(1.0, 10)  # dt = 0.1
    model = make_custom(
        drift=lambda x, t, th: -10.0 * x,
        drift_dtheta=lambda x, t, th: np.zeros_like(x),
        drift_dx=lambda x, t, th: np.full((1, 1), -10.0),  # 1 + dt * (-10) = 0
    )
    noise = cm.generate_noise(0, 1, grid, 1)
    bundle = cm.simulate_path(model, 0.0, 1.0, grid, noise)
    with pytest.raises(SingularJacobian):  # Jacobians are built on the first read
        bundle.jacobians


def test_batched_singular_jacobian_detected_when_a_step_factor_is_zero():
    grid = cm.TimeGrid(1.0, 10)  # dt = 0.1
    model = make_custom(
        drift=lambda x, t, th: -10.0 * x,
        drift_dtheta=lambda x, t, th: np.zeros_like(x),
        drift_dx=lambda x, t, th: np.full((1, 1), -10.0),  # 1 + dt * (-10) = 0
    )
    batch = cm.simulate_paths(model, 0.0, 1.0, grid, 20, 0)
    with pytest.raises(SingularJacobian, match="hit zero"):
        batch.jacobians


def test_batched_singular_jacobian_detected_when_y_overflows():
    grid = cm.TimeGrid(1.0, 10)
    model = make_custom(
        drift=lambda x, t, th: np.zeros_like(x),
        drift_dtheta=lambda x, t, th: np.zeros_like(x),
        drift_dx=lambda x, t, th: np.full((1, 1), 1e100),  # Y_k ~ 1e99^k overflows
    )
    batch = cm.simulate_paths(model, 0.0, 1.0, grid, 20, 0)
    with np.errstate(over="ignore"), pytest.raises(SingularJacobian, match="non-finite"):
        batch.jacobians


# ---------------------------------------------------------------------------
# batch engine equivalence


def test_batch_rows_bit_identical_to_single_paths():
    grid = cm.TimeGrid(1.0, 64)
    model = cm.ou_model(1.0)
    batch = cm.simulate_paths(model, 1.0, 0.2, grid, 6, 17)
    for i in range(6):
        noise = cm.generate_noise(17, i, grid, 1)
        single = cm.simulate_path(model, 1.0, 0.2, grid, noise)
        assert np.array_equal(batch.path(i).states, single.states)
        assert np.array_equal(every_path(batch.jacobians.y, batch, 3)[i], single.jacobians.y)
        assert np.array_equal(every_path(batch.jacobians.z, batch, 3)[i], single.jacobians.z)


@pytest.mark.parametrize("model", [cm.ou_model(0.8), sine_diffusion_model()],
                         ids=["ou", "sine-diffusion"])
def test_scalar_jacobian_matches_matrix_recursion(model):
    grid = cm.TimeGrid(1.5, 40)
    batch = cm.simulate_paths(model, 0.9, 0.4, grid, 50, 8)
    y = matrix_jacobian(model, 0.9, grid, batch.states, batch.increments)
    assert same_bits(every_path(batch.jacobians.y, batch, 3), y)
    assert same_bits(every_path(batch.jacobians.z, batch, 3), 1.0 / y)


@pytest.mark.parametrize("power", [1, 3])
@pytest.mark.parametrize("model", [cm.ou_model(0.8), sine_diffusion_model(),
                                   time_diffusion_model()],
                         ids=["ou", "sine-diffusion", "time-diffusion"])
def test_marginal_power_rows_match_malliavin_derivative_state(model, power):
    grid = cm.TimeGrid(1.0, 24)
    step = 15
    batch = cm.simulate_paths(model, 1.1, 0.2, grid, 5, 12)
    profile = every_path(cm.marginal_power(step, power).derivative(batch), batch, 2)
    for i in range(batch.n_paths):
        bundle = batch.path(i)
        factor = power * bundle.states[step, 0] ** (power - 1)
        for s in range(grid.steps + 1):
            oracle = cm.malliavin_derivative_state(bundle, s, step)[0]
            assert same_bits(profile[i, s], oracle if power == 1 else factor * oracle)


@pytest.mark.parametrize("model", [cm.ou_model(0.8), cm.mean_reverting_model(0.5, 1.3, dim=2),
                                   sine_diffusion_model()],
                         ids=["ou", "mean-reverting-2", "sine-diffusion"])
def test_integral_profile_matches_malliavin_derivative_state(model):
    # D_s of dt sum_{k < M} h(X_k) is dt sum_{k=s}^{M-1} grad h(X_k) . D_s X_k,
    # each D_s X_k from the single-path oracle, with h = |x|^2 + x_0
    grid, n, d = cm.TimeGrid(1.0, 12), model.state_dim, model.noise_dim
    first = np.eye(n)[0]
    f = cm.integral_functional(lambda x: np.sum(x * x, axis=-1) + x[..., 0],
                               lambda x: 2.0 * x + first)
    batch = cm.simulate_paths(model, 1.1, 0.2, grid, 5, 12)
    profile = every_path(f.derivative(batch), batch, 2)
    want = np.zeros(profile.shape)
    for i in range(batch.n_paths):
        bundle = batch.path(i)
        grads = 2.0 * bundle.states + first
        for s in range(grid.steps + 1):
            for k in range(s, grid.steps):
                want[i, s] += grid.dt * (grads[k] @ cm.malliavin_derivative_state(bundle, s, k))
    assert profile.shape == (batch.n_paths, grid.steps + 1, d)
    assert np.max(np.abs(profile - want)) <= 1e-13 * np.max(np.abs(profile))


ROW_IDENTITY_FUNCTIONALS = {
    1: cm.integral_functional(lambda x: x[..., 0] ** 2, lambda x: 2.0 * x),
    2: cm.integral_functional(lambda x: x[..., 0] * x[..., 1],
                              lambda x: np.stack([x[..., 1], x[..., 0]], axis=-1)),
}


@settings(max_examples=50)
@given(n_dim=st.sampled_from((1, 2)), state_dependent=st.booleans(),
       steps=st.integers(4, 30), horizon=st.floats(0.25, 2.0), theta=st.floats(-1.0, 1.5),
       sigma=st.floats(0.2, 2.0), seed=st.integers(0, 2 ** 32), data=st.data())
def test_batch_rows_bit_identical_property(n_dim, state_dependent, steps, horizon, theta,
                                           sigma, seed, data):
    model = (sine_diffusion_model() if n_dim == 1 and state_dependent
             else cm.ou_model(sigma, dim=n_dim))
    grid = cm.TimeGrid(horizon, steps)
    x0 = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n_dim, max_size=n_dim)))
    n_paths = data.draw(st.integers(1, 6))
    first = data.draw(st.integers(0, 1000))
    batch = cm.simulate_paths(model, theta, x0, grid, n_paths, seed, first_index=first)
    component = data.draw(st.integers(0, n_dim - 1))
    power = data.draw(st.integers(1, 3))
    functionals = (cm.marginal_power(data.draw(st.integers(-1, steps)), power, component),
                   cm.terminal_power(power, component),
                   ROW_IDENTITY_FUNCTIONALS[n_dim])
    profiles = [every_path(f.derivative(batch), batch, 2) for f in functionals]
    for i in range(n_paths):
        noise = cm.generate_noise(seed, first + i, grid, model.noise_dim)
        single = cm.simulate_path(model, theta, x0, grid, noise)
        row = batch.path(i)
        assert same_bits(row.states, single.states)
        assert same_bits(every_path(batch.jacobians.y, batch, 3)[i], single.jacobians.y)
        assert same_bits(every_path(batch.jacobians.z, batch, 3)[i], single.jacobians.z)
        for f, profile in zip(functionals, profiles):
            assert same_bits(profile[i], f.derivative(single))


# ---------------------------------------------------------------------------
# Jacobians shared by every path of a block


def per_row_copy(model):
    """The model with drift_dx and the diffusion copied onto every path, which
    forces the per-row Jacobian recursion and per-row coefficient values (the
    oracle of the shared ones)."""
    n, d = model.state_dim, model.noise_dim

    def drift_dx(x, t, theta):
        return np.broadcast_to(model.drift_dx(x, t, theta), x.shape[:-1] + (n, n)).copy()

    def diffusion(x, t):
        return np.broadcast_to(model.diffusion(x, t), x.shape[:-1] + (n, d)).copy()

    return dataclasses.replace(model, drift_dx=drift_dx, diffusion=diffusion)


SHARED_MODELS = {
    "ou": lambda n: cm.ou_model(0.8, dim=n),
    "mean-reverting": lambda n: cm.mean_reverting_model(0.5, 1.3, dim=n),
}


def assert_shared(a, oracle, core):
    """a has the shape core, no path axis, and every path's row of it has the
    bits of the per-row oracle."""
    assert a.shape == core
    assert same_bits(np.broadcast_to(a, oracle.shape), oracle)


@pytest.mark.parametrize("theta", [0.0, -0.7, 1.4])
@pytest.mark.parametrize("n_dim", [1, 2])
@pytest.mark.parametrize("name", sorted(SHARED_MODELS))
@settings(max_examples=4)
@given(steps=st.integers(2, 25), n_paths=st.integers(1, 5), seed=st.integers(0, 2 ** 32),
       data=st.data())
def test_shared_jacobians_match_per_row_recursion_property(name, n_dim, theta, steps,
                                                           n_paths, seed, data):
    model = SHARED_MODELS[name](n_dim)
    grid = cm.TimeGrid(1.0, steps)
    x0 = np.linspace(-0.3, 0.4, n_dim)
    shared = cm.simulate_paths(model, theta, x0, grid, n_paths, seed)
    per_row = cm.simulate_paths(per_row_copy(model), theta, x0, grid, n_paths, seed)
    assert same_bits(shared.states, per_row.states)
    jacobian_core = (steps + 1, n_dim, n_dim)
    y = matrix_jacobian(model, theta, grid, shared.states, shared.increments)
    assert same_bits(per_row.jacobians.y, y)
    for a, oracle in ((shared.jacobians.y, y), (shared.jacobians.z, per_row.jacobians.z)):
        assert_shared(a, oracle, jacobian_core)
        assert not a.flags.writeable
    sig = sde.on_grid(model.diffusion, shared.states, grid.times, (n_dim, n_dim))
    assert_shared(sig, sde.on_grid(per_row.model.diffusion, per_row.states, grid.times,
                                   (n_dim, n_dim)), jacobian_core)
    assert not sig.flags.writeable
    row_core = (steps + 1, model.noise_dim)
    step = data.draw(st.integers(-1, steps))
    component = data.draw(st.integers(0, n_dim - 1))
    for f in (cm.marginal_power(step, 1, component), cm.terminal_power(1, component)):
        assert_shared(f.derivative(shared), f.derivative(per_row), row_core)
    f = cm.marginal_power(step, 2, component)
    assert same_bits(f.derivative(shared), f.derivative(per_row))
    g = cm.marginal_power(step, 1, component)
    if step % (steps + 1) > 0:  # D g vanishes on the grid when it conditions on X_0
        weights = [cm.make_weight_canonical(g, b) for b in (shared, per_row)]
        assert_shared(weights[0].values, weights[1].values, row_core)
    # the split of every step: its total keeps the path axis, its scales and
    # diagonal are shared
    left = slice(0, steps)
    terms, oracle = (_hj_terms_batch(b.model, b.states[:, left], grid.times[left], theta,
                                     grid.dt) for b in (shared, per_row))
    assert terms.total.shape == (n_paths, steps)
    for field in ("scales", "diag"):
        assert_shared(getattr(terms, field), getattr(oracle, field), (steps, n_dim))
    for a, b in zip(terms, oracle):
        assert same_bits(np.broadcast_to(a, b.shape), b)


def scalar_model(drift, drift_dx, diffusion, diffusion_dx, name):
    return cm.SdeModel(drift=drift, drift_dtheta=lambda x, t, th: -x, drift_dx=drift_dx,
                       diffusion=diffusion, diffusion_dx=diffusion_dx, state_dim=1,
                       noise_dim=1, name=name)


def mixed_model():
    """dX = (-theta X + 1{t >= 1/2} 0.2 cos X) dt + 0.7 dW: the drift slope is
    the same on every path before T/2 and moves with the state after it."""
    return scalar_model(
        drift=lambda x, t, th: -th * x + (0.2 * np.cos(x) if t >= 0.5 else 0.0),
        drift_dx=lambda x, t, th: (np.full((1, 1), -th) if t < 0.5
                                   else (-th - 0.2 * np.sin(x))[..., None]),
        diffusion=lambda x, t: np.array([[0.7]]),
        diffusion_dx=lambda x, t: np.zeros((1, 1, 1)),
        name="shared-before-half")


def linear_noise_model():
    """dX = -theta X dt + 0.4 X dW: drift_dx has no path axis, but the
    constant nonzero diffusion_dx makes Y depend on the noise."""
    return scalar_model(
        drift=lambda x, t, th: -th * x,
        drift_dx=lambda x, t, th: np.full((1, 1), -th),
        diffusion=lambda x, t: (0.4 * x)[..., None],
        diffusion_dx=lambda x, t: np.full((1, 1, 1), 0.4),
        name="linear-noise")


@pytest.mark.parametrize("model", [mixed_model(), linear_noise_model(),
                                   sine_diffusion_model()],
                         ids=["shared-before-half", "linear-noise", "sine-diffusion"])
def test_path_dependent_jacobians_stay_per_row(model):
    grid = cm.TimeGrid(1.0, 20)
    batch = cm.simulate_paths(model, 0.9, 0.3, grid, 6, 4)
    y = matrix_jacobian(model, 0.9, grid, batch.states, batch.increments)
    assert same_bits(batch.jacobians.y, y)
    assert same_bits(batch.jacobians.z, 1.0 / y)
    assert batch.jacobians.y.shape[:-3] == (6,)
    assert batch.jacobians.y.flags.writeable


# float.hex values and a sha256 of (Y, Z, marginal_power(12, 2) derivative)
# for sine_diffusion_model, whose Jacobians and derivative rows take the
# per-row recursion, and the score-function (estimate, std_error, variance) of
# both per-row models.  Re-captured when paths moved to grouped Philox streams;
# a version that changed only the noise, branch and choice draw sites
# reproduced every value.
PER_ROW_PINS = {
    "loss": ("0x1.f2cb47eff0770p-4", "0x1.35b2222af6176p-5"),
    "random-k": ("0x1.764b20e47a250p-4", "-0x1.fc4b740446fa5p-8", "0x1.5cfa2c8268923p-4"),
    "sum-over-k": ("0x1.764b20e47a250p-4", "0x1.83805ae1e80c7p-5", "0x1.c42477b9dc369p-5"),
    "profiles": "59c04db4fe2027a017125e5947d5543ccadd383d580b1d3653c8a90ff339519f",
    "score sine-diffusion": ("-0x1.9c4f95ae61fc3p-3", "0x1.a31aa7bcf9306p-5",
                             "0x1.9206e7c2600f7p-1"),
    "score linear-noise": ("-0x1.20dd961c9f68cp-5", "0x1.937e358cacfedp-8",
                           "0x1.74a27eb6d9cfap-7"),
}


def test_per_row_scalar_outputs_keep_their_bits():
    model = sine_diffusion_model()
    grid = cm.TimeGrid(1.0, 20)
    ell = cm.marginal_power(-1, 2)
    g = cm.shift_functional(cm.marginal_power(10, 1), 0.1)
    with fixed_block_rows(256):
        report = cm.conditional_loss_estimate(model, 1.1, ell, g, "canonical", 600, 7, grid,
                                              0.3)
    got = {"loss": tuple(float(v).hex() for v in (report.estimate, report.std_error))}
    for mode in ("random-k", "sum-over-k"):
        with fixed_block_rows(128):
            loss, gradient, diag = cm.counterfactual_gradient(
                model, 1.1, ell, g, "canonical", cm.TimeGrid(1.0, 10), 0.3, 300, mode, 13)
        got[mode] = tuple(float(v).hex() for v in (loss, gradient, diag["se_gradient"]))
    batch = cm.simulate_paths(model, 1.1, 0.3, grid, 40, 5)
    digest = hashlib.sha256()
    for a in (batch.jacobians.y, batch.jacobians.z, cm.marginal_power(12, 2).derivative(batch)):
        digest.update(np.ascontiguousarray(a).tobytes())
    got["profiles"] = digest.hexdigest()
    for score_model in (model, linear_noise_model()):
        with fixed_block_rows(128):
            sf = cm.score_function_gradient(score_model, 0.9, 0.3, grid, cm.terminal_power(2),
                                            300, 5)
        got["score " + score_model.name] = tuple(
            float(v).hex() for v in (sf.estimate, sf.std_error, sf.variance))
    assert got == PER_ROW_PINS


def test_shared_jacobians_are_read_only():
    grid = cm.TimeGrid(1.0, 10)
    batch = cm.simulate_paths(cm.ou_model(1.0, dim=2), 1.0, 0.0, grid, 3, 1)
    for arr in (batch.jacobians.y, batch.jacobians.z, batch.path(1).jacobians.y):
        with pytest.raises(ValueError):
            arr[..., 2, 0, 0] = 1.0
    # shared derivative rows are one fresh array, with no path axis to alias
    assert cm.marginal_power(5, 1).derivative(batch).shape == (grid.steps + 1, 2)


def test_batch_two_dimensional_model():
    grid = cm.TimeGrid(1.0, 50)
    model = cm.ou_model(0.5, dim=2)
    batch = cm.simulate_paths(model, 0.7, [0.1, -0.2], grid, 4, 3)
    noise = cm.generate_noise(3, 2, grid, 2)
    single = cm.simulate_path(model, 0.7, [0.1, -0.2], grid, noise)
    assert np.array_equal(batch.path(2).states, single.states)
    assert np.array_equal(every_path(batch.jacobians.z, batch, 3)[2], single.jacobians.z)


# ---------------------------------------------------------------------------
# blocks sized by bytes: states plus increments within sde.BLOCK_BYTES, in
# whole stream groups


def _dims_model(n, d):
    """A model carrying only its dimensions, for block sizing."""
    return cm.SdeModel(*(None,) * 5, state_dim=n, noise_dim=d)


@settings(max_examples=60)
@given(steps=st.integers(1, 200_000), n=st.integers(1, 4), d=st.integers(1, 4))
def test_derived_block_rows_are_whole_groups_within_the_byte_budget(steps, n, d):
    rows = sde.block_rows(_dims_model(n, d), cm.TimeGrid(1.0, steps))
    assert rows >= G and rows % G == 0
    if rows > G:
        assert rows * 8 * ((steps + 1) * n + steps * d) <= sde.BLOCK_BYTES


@settings(max_examples=60)
@given(steps=st.integers(1, 20_000), n_paths=st.integers(2, 10 ** 6), cpus=st.integers(1, 64))
def test_blocks_in_flight_share_the_byte_budget(steps, n_paths, cpus):
    # one worker per CPU, but none without a block of block_rows, and none
    # whose block would fall below MIN_WORKER_ROWS; the workers' blocks
    # together stay within BLOCK_BYTES, unless one stream group alone is over
    model, grid = _dims_model(1, 1), cm.TimeGrid(1.0, steps)
    one_worker_rows = sde.block_rows(model, grid)
    with mock.patch.object(sde, "_usable_cpus", lambda: cpus):
        rows, workers = sde._block_plan(model, grid, n_paths)
    assert workers == max(min(cpus, -(-n_paths // one_worker_rows),
                              one_worker_rows // sde.MIN_WORKER_ROWS), 1)
    assert rows == one_worker_rows // workers // G * G
    if workers > 1:
        assert rows >= sde.MIN_WORKER_ROWS
    assert (workers * rows * 8 * (2 * steps + 1) <= sde.BLOCK_BYTES
            or (workers, rows) == (1, G))


@pytest.mark.parametrize("steps", [400, 800, 1_600, 3_200])
def test_long_grids_run_on_one_worker(monkeypatch, steps):
    # from 400 steps a derived block has at most 2,600 rows, so splitting it
    # would leave each worker under MIN_WORKER_ROWS, however many CPUs
    monkeypatch.setattr(sde, "_usable_cpus", lambda: 64)
    plan = sde._block_plan(cm.ou_model(1.0), cm.TimeGrid(1.0, steps), 100_000)
    assert plan == (sde.block_rows(cm.ou_model(1.0), cm.TimeGrid(1.0, steps)), 1)


@pytest.mark.parametrize("n_paths, steps", [(1_500, 400), (2_000, 50)])
def test_benchmark_path_counts_stay_one_block(n_paths, steps):
    (sizes,) = sde.per_path(cm.ou_model(1.0), 1.0, 0.0, cm.TimeGrid(1.0, steps), n_paths, 3,
                            lambda batch: (np.array([batch.n_paths]),))
    assert list(sizes) == [n_paths]


def test_loss_workload_runs_two_workers_on_2600_row_blocks(monkeypatch):
    # the estimate-loss default, 100,000 paths x 200 steps, on two CPUs: 39 blocks
    monkeypatch.setattr(sde, "_usable_cpus", lambda: 2)
    assert sde._block_plan(cm.ou_model(1.0), cm.TimeGrid(1.0, 200), 100_000) == (2_600, 2)


@pytest.mark.parametrize("n_paths", [1000.0, 2.5, np.float64(300.0), "300", True])
@pytest.mark.parametrize("estimator", ["loss", "hj", "score", "counterfactual"])
def test_estimators_reject_path_counts_that_are_not_integers(estimator, n_paths):
    # 1000.0 used to fail inside the block loop with a bare TypeError
    model, grid, x0 = cm.ou_model(1.0), cm.TimeGrid(1.0, 5), 0.2
    f, g = cm.terminal_power(2), cm.shift_functional(cm.marginal_power(3, 1), 0.1)
    calls = {
        "loss": lambda: cm.conditional_loss_estimate(model, 1.0, f, g, "canonical", n_paths, 1,
                                                     grid, x0),
        "hj": lambda: cm.hj_gradient(model, 1.0, x0, grid, f, n_paths),
        "score": lambda: cm.score_function_gradient(model, 1.0, x0, grid, f, n_paths),
        "counterfactual": lambda: cm.counterfactual_gradient(
            model, 1.0, f, g, "canonical", grid, x0, n_paths),
    }
    with pytest.raises(ValueError, match="n_paths must be an integer"):
        calls[estimator]()


def test_estimators_take_numpy_integer_path_counts():
    model, grid, f = cm.ou_model(1.0), cm.TimeGrid(1.0, 5), cm.terminal_power(2)
    for mode in ("random-k", "sum-over-k"):
        want = cm.hj_gradient(model, 1.0, 0.2, grid, f, 300, mode, 4)
        got = cm.hj_gradient(model, 1.0, 0.2, grid, f, np.int64(300), mode, 4)
        assert (got.estimate, got.variance, got.n_paths) == (want.estimate, want.variance, 300)


SPLIT_STEPS, SPLIT_PATHS = 2_000, 1_300  # derived blocks of 500, 500 and 300 rows


def _split_runs():
    """Every block-wise estimator's outputs, as bytes."""
    model, grid, x0 = cm.ou_model(1.0), cm.TimeGrid(1.0, SPLIT_STEPS), 0.2
    f, g = cm.terminal_power(2), cm.marginal_power(SPLIT_STEPS // 2, 1)
    loss = cm.conditional_loss_estimate(model, 1.0, f, g, "canonical", SPLIT_PATHS, 5,
                                        grid, x0)
    out = [loss.estimate, loss.std_error, loss.a_terms, loss.b_terms]
    kernel = cm.kernel_loss_estimate(model, 1.0, f, g, 0.3, SPLIT_PATHS, 9, grid, x0)
    out += [kernel.estimate, kernel.std_error]
    for mode in ("random-k", "sum-over-k"):
        rep = cm.hj_gradient(model, 1.0, x0, grid, f, SPLIT_PATHS, mode, 6)
        out += [rep.estimate, rep.std_error, rep.variance, rep.branch_stats]
    rep = cm.score_function_gradient(model, 1.0, x0, grid, f, SPLIT_PATHS, 7)
    out += [rep.estimate, rep.std_error, rep.variance]
    _, gradient, diag = cm.counterfactual_gradient(model, 1.0, f, g, "canonical", grid, x0,
                                                   SPLIT_PATHS, "random-k", 8)
    out += [gradient] + [diag[key] for key in sorted(diag) if key != "gradient_mode"]
    return [np.asarray(v).tobytes() for v in out]


def test_derived_blocks_give_the_bits_of_one_block(force_workers):
    # one worker: derived blocks of 500, 500 and 300 rows; two: 200 rows each
    # and a last of 100; three: 13 blocks of 100 rows; and four CPUs for a
    # 1,200-row plan, which gives two workers blocks of 600, 600 and 100 rows,
    # so fewer blocks than CPUs and a partial last block
    model, grid = cm.ou_model(1.0), cm.TimeGrid(1.0, SPLIT_STEPS)
    assert sde.block_rows(model, grid) == 500
    force_workers(1)
    with fixed_block_rows(SPLIT_PATHS):
        whole = _split_runs()
    for workers, rows in ((1, None), (2, None), (3, None), (4, 1_200)):
        force_workers(workers)
        with fixed_block_rows(rows):
            assert _split_runs() == whole, (workers, rows)


def test_loss_estimate_memory_is_bounded_by_the_block_budget(force_workers):
    # traced numpy allocations, not the resident set, which moves with heap
    # layout; two workers, each on its own 2,600-row block
    force_workers(2)
    grid = cm.TimeGrid(1.0, 200)
    tracemalloc.start()
    try:
        cm.conditional_loss_estimate(cm.ou_model(1.0), 1.0, cm.terminal_power(2),
                                     cm.marginal_power(100, 1), "canonical", 20_000, 0,
                                     grid, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * sde.BLOCK_BYTES
    # the two workers' blocks take about one BLOCK_BYTES together, each
    # reused for the worker's later blocks; the Euler scratch and the
    # quotient tiles add a few CHUNK_BYTES, and no block-sized array more
    assert peak <= 1.25 * sde.BLOCK_BYTES


def test_kernel_estimate_memory_is_bounded_by_the_block_budget(force_workers):
    # as for the quotient: one simulated batch of all 20,000 paths would take
    # 64 MB, about four BLOCK_BYTES
    force_workers(2)
    tracemalloc.start()
    try:
        cm.kernel_loss_estimate(cm.ou_model(1.0), 1.0, cm.terminal_power(2),
                                cm.marginal_power(100, 1), 0.1, 20_000, 0,
                                cm.TimeGrid(1.0, 200), 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * sde.BLOCK_BYTES


def test_simulation_is_deterministic():
    grid = cm.TimeGrid(1.0, 30)
    a = cm.simulate_paths(cm.ou_model(1.0), 1.0, 0.0, grid, 8, 23)
    b = cm.simulate_paths(cm.ou_model(1.0), 1.0, 0.0, grid, 8, 23)
    assert np.array_equal(a.states, b.states)


# ---------------------------------------------------------------------------
# the model time contract: one scalar grid time per coefficient call


COEFFICIENTS = ("drift", "drift_dtheta", "drift_dx", "diffusion", "diffusion_dx")


def strict_t(model):
    """The model with every coefficient asserting that t is one grid time."""

    def checked(fn):
        def call(x, t, *args):
            assert np.ndim(t) == 0, f"t has shape {np.shape(t)}"
            return fn(x, t, *args)
        return call

    return dataclasses.replace(model, **{name: checked(getattr(model, name))
                                         for name in COEFFICIENTS})


def _estimator_calls(model):
    """name -> call of every estimator on the model (M = 12, OU-scale)."""
    grid, x0 = cm.TimeGrid(1.0, 12), 0.3
    ell, g = cm.terminal_power(2), cm.shift_functional(cm.marginal_power(6, 1), 0.1)
    integral = cm.integral_functional(lambda x: x[..., 0] ** 2, lambda x: 2.0 * x)
    calls = {
        "simulate": lambda: cm.simulate_paths(model, 1.1, x0, grid, 50, 3).states,
        "loss": fixed_block_rows(128)(lambda: cm.conditional_loss_estimate(
            model, 1.1, ell, g, "canonical", 300, 3, grid, x0).estimate),
        "score": fixed_block_rows(64)(lambda: cm.score_function_gradient(
            model, 1.1, x0, grid, ell, 200, 3).estimate),
    }
    for mode in ("random-k", "sum-over-k"):
        for name, f in (("terminal", ell), ("integral", integral), ("generic", g)):
            calls[f"hj {mode} {name}"] = fixed_block_rows(64)(
                lambda mode=mode, f=f: cm.hj_gradient(
                    model, 1.1, x0, grid, f, 200, mode, 3).estimate)
        calls[f"counterfactual {mode}"] = fixed_block_rows(128)(
            lambda mode=mode: cm.counterfactual_gradient(
                model, 1.1, ell, g, "canonical", grid, x0, 300, mode, 3)[:2])
    return calls


STRICT_CASES = [(m, name) for m in ("ou", "time-diffusion")
                for name in _estimator_calls(cm.ou_model(1.0))]
CONTRACT_MODELS = {"ou": lambda: cm.ou_model(1.0), "time-diffusion": time_diffusion_model,
                   "shared-before-half": mixed_model}


@pytest.mark.parametrize("model_name, call", STRICT_CASES)
def test_every_coefficient_call_gets_a_scalar_t(model_name, call):
    model = CONTRACT_MODELS[model_name]()
    got = _estimator_calls(strict_t(model))[call]()
    assert same_bits(got, _estimator_calls(model)[call]())


@pytest.mark.parametrize("mode", ["random-k", "sum-over-k"])
def test_model_branching_on_t_runs_every_gradient(mode):
    # mixed_model's drift reads `if t >= 0.5` in Python, which only a scalar t allows
    calls = _estimator_calls(mixed_model())
    assert np.isfinite(calls["score"]())
    assert np.all(np.isfinite(calls[f"counterfactual {mode}"]()))


def test_diffusion_missing_its_noise_axis_raises_a_shape_error():
    # (N, 1) in place of (N, 1, 1): a block simulated under the well-formed
    # diffusion, then read back under one that drops the d axis
    model = sine_diffusion_model()
    batch = cm.simulate_paths(model, 1.0, 0.2, cm.TimeGrid(1.0, 10), 4, 0)
    flat = dataclasses.replace(model, diffusion=lambda x, t: 0.5 + 0.2 * np.sin(x))
    with pytest.raises(CoefficientShapeError, match=r"\(4, 1\)"):
        cm.marginal_power(5, 1).derivative(dataclasses.replace(batch, model=flat))


@pytest.mark.parametrize("n_paths", [2, 3])
def test_diffusion_dropping_its_noise_axis_fails_the_first_euler_step(n_paths):
    # (N, n) in place of (N, n, d) for a 2-D OU: at N = n = 2 it reads like a
    # constant (n, d) matrix, and dW @ sig.T would mix the two paths' states
    model = dataclasses.replace(cm.ou_model(1.0, dim=2), diffusion=lambda x, t: np.ones_like(x))
    with pytest.raises(CoefficientShapeError, match=r"\(2,\) at one state"):
        cm.simulate_paths(model, 1.0, 0.0, cm.TimeGrid(1.0, 4), n_paths, 1)


GRID_MODELS = {
    "ou-1": lambda: cm.ou_model(0.8),
    "ou-2": lambda: cm.ou_model(0.8, dim=2),
    "mean-reverting-2": lambda: cm.mean_reverting_model(0.5, 1.3, dim=2),
    "sine-diffusion": sine_diffusion_model,
    "time-diffusion": time_diffusion_model,
    "shared-before-half": mixed_model,
}


@settings(max_examples=30)
@given(name=st.sampled_from(sorted(GRID_MODELS)), steps=st.integers(1, 12),
       n_paths=st.integers(1, 4), theta=st.floats(-1.0, 1.5), seed=st.integers(0, 2 ** 32))
def test_on_grid_matches_per_step_evaluation_property(name, steps, n_paths, theta, seed):
    model = GRID_MODELS[name]()
    n, d = model.state_dim, model.noise_dim
    grid = cm.TimeGrid(1.0, steps)
    batch = cm.simulate_paths(model, theta, np.full(n, 0.3), grid, n_paths, seed)
    cores = {"drift": (n,), "drift_dtheta": (n,), "drift_dx": (n, n), "diffusion": (n, d),
             "diffusion_dx": (n, n, d)}
    for coefficient in COEFFICIENTS:
        fn, core = getattr(model, coefficient), cores[coefficient]
        args = (theta,) if coefficient.startswith("drift") else ()
        for states in (batch.states[0], batch.states):  # one path, then the block
            lead = states.shape[:-2]
            values = [np.asarray(fn(states[..., k, :], t, *args))
                      for k, t in enumerate(grid.times)]
            got = sde.on_grid(fn, states, grid.times, core, *args)
            assert not got.flags.writeable
            assert same_bits(np.broadcast_to(got, lead + got.shape[-len(core) - 1:]),
                             np.stack([np.broadcast_to(v, lead + core) for v in values],
                                      axis=len(lead)))
        if all(v.ndim <= len(core) for v in values):  # no path axis: one shared row
            assert got.shape == (steps + 1,) + core


# ---------------------------------------------------------------------------
# Jacobians on demand


def _jacobian_reading_payoff():
    return cm.PathFunctional(
        value=lambda b: b.jacobians.y[..., -1, 0, 0] * b.states[..., -1, 0])


_OU, _GRID_50 = cm.ou_model(1.0), cm.TimeGrid(1.0, 50)
_ELL, _G = cm.terminal_power(2), cm.shift_functional(cm.marginal_power(25, 1), 0.1)

# call -> Jacobian passes it makes.  Shared Jacobians are built once per
# estimator call and parameter, for its base and restarted blocks alike; a
# per-row model builds one pass per block or restarted side that reads them
JACOBIAN_PASSES = {
    "loss, 4 blocks": (1, fixed_block_rows(50)(lambda: cm.conditional_loss_estimate(
        _OU, 1.0, _ELL, _G, "canonical", 200, 3, _GRID_50, 0.2))),
    "per-row model, loss, 4 blocks": (4, fixed_block_rows(50)(
        lambda: cm.conditional_loss_estimate(
            sine_diffusion_model(), 1.0, _ELL, _G, "canonical", 200, 3, _GRID_50, 0.2))),
    # theta and the explicit-theta terms' theta +- h
    "counterfactual random-k, 2 blocks": (3, fixed_block_rows(100)(
        lambda: cm.counterfactual_gradient(
            _OU, 1.0, _ELL, _G, "canonical", _GRID_50, 0.2, 200, "random-k", 3))),
    "hj random-k, Jacobian-reading payoff, 2 blocks": (1, fixed_block_rows(100)(
        lambda: cm.hj_gradient(
            _OU, 1.0, 0.2, _GRID_50, _jacobian_reading_payoff(), 200, "random-k", 3))),
    "per-row model, hj random-k, Jacobian-reading payoff, 2 blocks": (4, fixed_block_rows(100)(
        lambda: cm.hj_gradient(sine_diffusion_model(), 1.0, 0.2, _GRID_50,
                               _jacobian_reading_payoff(), 200, "random-k", 3))),
    "hj random-k, terminal payoff": (0, fixed_block_rows(100)(lambda: cm.hj_gradient(
        _OU, 1.0, 0.2, _GRID_50, _ELL, 200, "random-k", 3))),
    "hj sum-over-k, terminal payoff": (0, lambda: cm.hj_gradient(
        _OU, 1.0, 0.2, _GRID_50, _ELL, 200, "sum-over-k", 3)),
    "score function, terminal payoff": (0, lambda: cm.score_function_gradient(
        _OU, 1.0, 0.2, _GRID_50, _ELL, 200, 3)),
    "single branch, Jacobian-reading payoff": (2, lambda: cm.hj_single_branch(
        _OU, 1.0, 0.2, _GRID_50, 20, _jacobian_reading_payoff(), 3, 7)),
}


@pytest.mark.parametrize("name", sorted(JACOBIAN_PASSES))
def test_jacobian_passes_per_call(name, monkeypatch):
    # the loss reads each block's Jacobians twice (weight and loss profile),
    # so its count also shows that a bundle keeps what it computed
    expected, call = JACOBIAN_PASSES[name]
    passes = []
    original = sde._euler_jacobians

    def counted(*args):
        passes.append(args)
        return original(*args)

    monkeypatch.setattr(sde, "_euler_jacobians", counted)
    call()
    assert len(passes) == expected


def _integral_loss():
    return cm.integral_functional(lambda x: x[..., 0] ** 2, lambda x: 2.0 * x)


# call -> diffusion profiles it reads, with quotient tiles of 7 rows.  A tile
# reads its block's profile; shared-factor derivative rows are built once per
# call, so on OU only the first block reads one, unless the loss's own
# derivative reads it on every block
DIFFUSION_READS = {
    "loss, 4 blocks": (1, _OU, _ELL),
    "integral loss, 4 blocks": (4, _OU, _integral_loss()),
    "per-row model, loss, 4 blocks": (4, sine_diffusion_model(), _ELL),
    "per-row model, integral loss, 4 blocks": (4, sine_diffusion_model(), _integral_loss()),
}


@pytest.mark.parametrize("name", sorted(DIFFUSION_READS))
def test_diffusion_profile_is_read_once_per_block_not_per_tile(name, monkeypatch):
    expected, model, ell = DIFFUSION_READS[name]
    reads = []
    original = sde._diffusion_profile

    def counted(*args):
        reads.append(args)
        return original(*args)

    monkeypatch.setattr(sde, "_diffusion_profile", counted)
    monkeypatch.setattr(sde, "CHUNK_BYTES", 8 * (_GRID_50.steps + 1) * 7)
    with fixed_block_rows(50):
        cm.conditional_loss_estimate(model, 1.0, ell, _G, "canonical", 200, 3, _GRID_50, 0.2)
    assert len(reads) == expected


# mode -> grid passes (on_grid calls) of the diffusion that one 200-row
# counterfactual_gradient block makes on a per-row model, 10 steps.  In both
# modes: the base block's profile, and a profile for each theta +- h of the
# explicit-theta terms, which take sigma from the base block's profile.  Then
# random-k reads a profile per restarted side; sum-over-k splits every step
# in one placement pass and reads a profile per side and step.  Before the
# explicit-theta terms read the block's profile they made a pass of their
# own, and sum-over-k split each step in a pass of its own: 6 and 34
COUNTERFACTUAL_DIFFUSION_PASSES = {"random-k": 5, "sum-over-k": 24}


@pytest.mark.parametrize("mode", sorted(COUNTERFACTUAL_DIFFUSION_PASSES))
def test_counterfactual_block_diffusion_passes(mode, monkeypatch):
    model, passes = sine_diffusion_model(), []
    original = sde.on_grid

    def counted(fn, *args):
        if fn is model.diffusion:
            passes.append(args[0].shape)
        return original(fn, *args)

    for module in vars(cm).values():
        if getattr(module, "on_grid", None) is original:
            monkeypatch.setattr(module, "on_grid", counted)
    cm.counterfactual_gradient(model, 1.0, _ELL, cm.shift_functional(cm.marginal_power(5, 1), 0.1),
                               "canonical", cm.TimeGrid(1.0, 10), 0.2, 200, mode, 3)
    assert len(passes) == COUNTERFACTUAL_DIFFUSION_PASSES[mode]


QUOTIENT_MODELS = {"ou": lambda: cm.ou_model(0.8), "sine-diffusion": sine_diffusion_model}
QUOTIENT_LOSSES = {"terminal-square": lambda: cm.terminal_power(2),
                   "integral-square": _integral_loss}


@settings(max_examples=60)
@given(name=st.sampled_from(sorted(QUOTIENT_MODELS)),
       loss=st.sampled_from(sorted(QUOTIENT_LOSSES)), tile=st.integers(1, 5),
       seed=st.integers(0, 2 ** 32), data=st.data())
def test_quotient_tiles_give_the_whole_block_bits_property(name, loss, tile, seed, data):
    # row counts around the tile edges; the tiled terms are those of the
    # block in one piece, and a block's Jacobians are built once either way.
    # The sine-diffusion weight has a path axis, so the tiles slice it; the
    # OU weight is shared by every row
    model, ell = QUOTIENT_MODELS[name](), QUOTIENT_LOSSES[loss]()
    steps = data.draw(st.integers(2, 9))
    grid = cm.TimeGrid(1.0, steps)
    g = cm.shift_functional(cm.marginal_power(data.draw(st.integers(1, steps)), 1), 0.05)
    n_paths = data.draw(st.sampled_from(sorted({max(n, 1) for n in
                                                (1, tile - 1, tile, tile + 1, 2 * tile + 1,
                                                 3 * tile)})))
    batch = cm.simulate_paths(model, 0.9, 0.2, grid, n_paths, seed)
    passes = []
    original = sde._euler_jacobians

    def counted(*args):
        passes.append(args)
        return original(*args)

    with mock.patch.object(sde, "_euler_jacobians", counted):
        whole = malliavin.conditional_quotient_terms(ell, g, "canonical", batch)
        with mock.patch.object(sde, "CHUNK_BYTES", 8 * (steps + 1) * tile):
            tiled = malliavin.conditional_quotient_terms(ell, g, "canonical",
                                                         dataclasses.replace(batch))
    assert len(passes) == 2
    for got, want in zip(tiled, whole):
        assert same_bits(got, want)
    row_axes = {"ou": (), "sine-diffusion": (n_paths,)}[name]
    assert cm.make_weight_canonical(g, batch).values.shape == (*row_axes, steps + 1, 1)


def test_shared_values_are_built_once_per_call_and_parameter(monkeypatch, force_workers):
    # four workers, on any CPU count, ask for the Jacobians and the weight at
    # once; one builds, the others wait.  theta +- h get their own, and a
    # second call its own
    force_workers(4)
    thetas, weights = [], []
    jacobians, weight = sde._euler_jacobians, cm.make_weight_canonical

    def counted_jacobians(model, theta, *args):
        thetas.append(theta)
        if len(thetas) == 1:
            time.sleep(0.05)  # the other workers ask while the first builds
        return jacobians(model, theta, *args)

    def counted_weight(g, bundle):
        weights.append(weight(g, bundle))
        return weights[-1]

    monkeypatch.setattr(sde, "_euler_jacobians", counted_jacobians)
    monkeypatch.setattr(malliavin, "make_weight_canonical", counted_weight)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with fixed_block_rows(400):  # four workers on blocks of 100 rows
            for _ in range(2):
                cm.counterfactual_gradient(_OU, 1.0, _ELL, _G, "canonical", _GRID_50, 0.2,
                                           1_600, "random-k", 3)
    finally:
        sys.setswitchinterval(interval)
    h = optimizer._THETA_BUMP
    assert sorted(thetas) == sorted([1.0, 1.0 + h, 1.0 - h] * 2)
    # base and restarted blocks at theta, then theta + h and theta - h
    assert len({id(u) for u in weights}) == 6


def test_shared_values_keep_to_their_model_and_grid():
    # blocks of another model or grid made inside an estimator call build
    # their own Jacobians
    grid = cm.TimeGrid(1.0, 20)
    others = [(make_custom(drift=lambda x, t, th: -3.0 * th * x,
                           drift_dtheta=lambda x, t, th: -3.0 * x,
                           drift_dx=lambda x, t, th: np.full((1, 1), -3.0 * th)), grid),
              (_OU, cm.TimeGrid(2.0, 20))]

    def last_y(model, grid):
        return cm.simulate_paths(model, 1.0, 0.2, grid, 3, 1).jacobians.y[-1]

    def terms(batch):
        return (np.stack([batch.jacobians.y[-1]] + [last_y(*other) for other in others]
                         + [batch.jacobians.y[-1]])[None],)

    (ys,) = sde.per_path(_OU, 1.0, 0.2, grid, 2, 0, terms)
    expected = [last_y(_OU, grid)] + [last_y(*other) for other in others] + [last_y(_OU, grid)]
    assert same_bits(ys[0], np.stack(expected))
    assert len({float(y[0, 0]) for y in expected}) == 3


def test_per_row_jacobian_passes_of_two_workers_overlap(force_workers):
    # a per-row model's first pass is built under the call memo's lock; the
    # next two, one on each worker, meet at a barrier in drift_dx, which a
    # lock held across blocks (functools.cached_property before Python 3.12)
    # breaks by its timeout
    force_workers(2)
    base = sine_diffusion_model()
    meet = threading.Barrier(2, timeout=10.0)
    lock = threading.Lock()
    passes = []

    def drift_dx(x, t, theta):
        if t == 0.0:  # the first step of a Jacobian pass
            with lock:
                passes.append(threading.get_ident())
                number = len(passes)
            if number in (2, 3):
                meet.wait()
        return base.drift_dx(x, t, theta)

    model = dataclasses.replace(base, drift_dx=drift_dx)
    with fixed_block_rows(200):  # two workers on four blocks of 100 rows
        cm.conditional_loss_estimate(model, 1.0, _ELL, _G, "canonical", 400, 3, _GRID_50, 0.2)
    assert len(passes) == 4 and passes[1] != passes[2]


# ---------------------------------------------------------------------------
# step indices


def _step_index_calls():
    """name -> (call on a 10-step OU path and its noise, the message's start)."""
    model, grid = cm.ou_model(1.0), cm.TimeGrid(1.0, 10)
    f = cm.terminal_power(2)
    return {
        "marginal_power-2.5": (lambda p, _: cm.marginal_power(2.5, 1).value(p),
                               "step must be an integer"),
        "marginal_power-True": (lambda p, _: cm.marginal_power(True, 1).value(p),
                                "step must be an integer of at least -11, not True"),
        "marginal_power-50": (lambda p, _: cm.marginal_power(50, 1).value(p),
                              r"step must lie in \[-11, 10\], not 50"),
        "marginal_power-50-derivative": (lambda p, _: cm.marginal_power(50, 1).derivative(p),
                                         r"step must lie in \[-11, 10\], not 50"),
        "marginal_power--12": (lambda p, _: cm.marginal_power(-12, 2).derivative(p),
                               "step must be an integer of at least -11, not -12"),
        "resume_path-2.5": (lambda p, noise: cm.resume_path(p, 2.5, p.states[2], noise),
                            "from_step must be an integer of at least 0, not 2.5"),
        "resume_path-11": (lambda p, noise: cm.resume_path(p, 11, p.states[2], noise),
                           "from_step must lie in"),
        "hj_single_branch-2.5": (lambda p, _: cm.hj_single_branch(
            model, 1.0, 0.0, grid, 2.5, f, 0, 0), "branch_step must be an integer"),
        "hj_single_branch-10": (lambda p, _: cm.hj_single_branch(
            model, 1.0, 0.0, grid, 10, f, 0, 0), r"branch_step must lie in \[0, 9\]"),
        "malliavin_derivative_state-s-2.5": (lambda p, _: cm.malliavin_derivative_state(
            p, 2.5, 5), "s must be an integer"),
        "malliavin_derivative_state-t-11": (lambda p, _: cm.malliavin_derivative_state(
            p, 2, 11), "t must lie in"),
    }


@pytest.mark.parametrize("name", sorted(_step_index_calls()))
def test_step_indices_off_the_grid_or_not_integers_raise_value_errors(name):
    # NumPy would read 2.5 as an IndexError, and a derivative's step taken
    # modulo M + 1 would wrap 50 onto step 6
    call, message = _step_index_calls()[name]
    grid = cm.TimeGrid(1.0, 10)
    noise = cm.generate_noise(3, 0, grid, 1)
    path = cm.simulate_path(cm.ou_model(1.0), 1.0, 0.2, grid, noise)
    with pytest.raises(ValueError, match=message):
        call(path, noise)


def test_marginal_power_value_and_derivative_share_one_step():
    # a negative step counts from the end in both
    batch = cm.simulate_paths(cm.ou_model(1.0), 1.0, 0.2, cm.TimeGrid(1.0, 10), 4, 3)
    for step in (-3, -11):
        back, ahead = cm.marginal_power(step, 2), cm.marginal_power(step + 11, 2)
        assert same_bits(back.value(batch), ahead.value(batch))
        assert same_bits(back.derivative(batch), ahead.derivative(batch))


# ---------------------------------------------------------------------------
# resume_path


def test_resume_noop_matches_simulate():
    grid = cm.TimeGrid(1.0, 40)
    model = cm.ou_model(1.0)
    noise = cm.generate_noise(9, 4, grid, 1)
    base = cm.simulate_path(model, 1.0, 0.3, grid, noise)
    again = cm.resume_path(base, 0, base.states[0], noise)
    assert np.array_equal(again.states, base.states)
    assert np.array_equal(again.jacobians.y, base.jacobians.y)


def test_resume_additive_shift_for_zero_drift():
    grid = cm.TimeGrid(1.0, 40)
    model = make_custom(
        drift=lambda x, t, th: np.zeros_like(x),
        drift_dtheta=lambda x, t, th: np.zeros_like(x),
        drift_dx=lambda x, t, th: np.zeros((1, 1)),
    )
    noise = cm.generate_noise(2, 0, grid, 1)
    base = cm.simulate_path(model, 0.0, 0.0, grid, noise)
    delta = 0.125  # power of two keeps the shift exact in floating point
    k = 13
    up = cm.resume_path(base, k, base.states[k] + delta, noise)
    assert np.array_equal(up.states[:k], base.states[:k])
    assert up.states[-1, 0] - base.states[-1, 0] == delta


def test_resume_crn_branches_contract_at_ou_rate():
    grid = cm.TimeGrid(1.0, 100)
    model = cm.ou_model(1.0)
    theta = 1.0
    noise = cm.generate_noise(21, 6, grid, 1)
    base = cm.simulate_path(model, theta, 0.0, grid, noise)
    k = 30
    delta = 0.5
    hi = cm.resume_path(base, k, base.states[k] + delta, noise)
    lo = cm.resume_path(base, k, base.states[k] - delta, noise)
    gap = hi.states[-1, 0] - lo.states[-1, 0]
    exact = 2.0 * delta * (1.0 - theta * grid.dt) ** (grid.steps - k)
    assert abs(gap - exact) <= 1e-12
    # discrete contraction factor approximates e^{-theta (T - t_k)}
    cont = 2.0 * delta * math.exp(-theta * (grid.horizon - grid.times[k]))
    assert abs(gap - cont) / cont <= 2.5 * grid.dt


RESTART_MODELS = {
    "ou-1": lambda: cm.ou_model(0.8),
    "ou-2": lambda: cm.ou_model(0.8, dim=2),
    "sine-diffusion": sine_diffusion_model,
    "per-row-ou-2": lambda: per_row_copy(cm.ou_model(0.8, dim=2)),
}


@settings(max_examples=40)
@given(name=st.sampled_from(sorted(RESTART_MODELS)), steps=st.integers(2, 12),
       theta=st.floats(-1.0, 1.5), seed=st.integers(0, 2 ** 32), data=st.data())
def test_ragged_restart_rows_match_resume_path_property(name, steps, theta, seed, data):
    # the engine's branch states at mixed steps, restarted in one pass, give
    # row for row what resume_path gives for that row alone; each row's
    # increment at its branch step is the one Euler needed to reach it
    model = RESTART_MODELS[name]()
    grid = cm.TimeGrid(1.0, steps)
    n_dim = model.state_dim
    n_paths = data.draw(st.integers(1, 6))
    x0 = np.linspace(-0.3, 0.4, n_dim)
    batch = cm.simulate_paths(model, theta, x0, grid, n_paths, seed)
    step = st.one_of(st.sampled_from([0, steps - 1]), st.integers(0, steps - 1))
    starts = np.array(data.draw(st.lists(step, min_size=n_paths, max_size=n_paths)))
    sides = data.draw(st.lists(st.sampled_from([0, 1]), min_size=n_paths, max_size=n_paths))
    draws = _branch_draw_block(seed, batch.path_indices, steps, n_dim)
    _, pair = _step_pair(batch, starts, _draws_at(_draws_at(draws, np.arange(n_paths), starts),
                                                  slice(None), None))
    new_states, new_increments = np.empty((2, n_paths, n_dim))
    for i, side in enumerate(sides):
        new_states[i], new_increments[i] = (a[i] for a in pair[side])
    restarted = _branch_batch(batch, starts, new_states, new_increments)
    for i, k in enumerate(starts):
        row = batch.path(i)
        x = row.states[k]
        diag = np.diagonal(np.asarray(model.diffusion(x, grid.times[k])))
        implied = (new_states[i] - x - grid.dt * np.asarray(model.drift(x, grid.times[k], theta))
                   ) / diag
        increments = row.increments.copy()
        increments[k] = implied
        assert same_bits(restarted.increments[i], increments)
        single = cm.resume_path(row, k + 1, new_states[i],
                                cm.NoisePath(increments, seed, row.path_indices))
        assert same_bits(restarted.states[i], single.states)
        assert same_bits(every_path(restarted.jacobians.y, restarted, 3)[i], single.jacobians.y)
        assert same_bits(every_path(restarted.jacobians.z, restarted, 3)[i], single.jacobians.z)
    # a row started at the horizon is not restarted: it keeps its states
    held = data.draw(st.lists(st.sampled_from([steps, 0]), min_size=n_paths,
                              max_size=n_paths))
    states = _euler_continue(model, theta, grid, batch.states.copy(), batch.increments,
                             np.array(held))
    assert same_bits(states, batch.states)


# ---------------------------------------------------------------------------
# models


def test_builtin_drift_gradients_validate():
    rng = np.random.default_rng(0)
    assert cm.validate_drift_gradient(cm.ou_model(1.0), 1.0, rng) < 1e-5
    assert cm.validate_drift_gradient(cm.mean_reverting_model(2.0, 0.5), 0.7, rng) < 1e-5


# int() once truncated these: dim=1.5 built a 1-D model and dim=2.9 a 2-D
# one, dim=0 simulated states with no coordinate, and power 1.5 passed the
# power check and gave NaN per-path values far from the cause
@pytest.mark.parametrize("factory, value", [
    (lambda v: cm.ou_model(1.0, dim=v), 1.5), (lambda v: cm.ou_model(1.0, dim=v), 0),
    (lambda v: cm.ou_model(1.0, dim=v), "2"),
    (lambda v: cm.mean_reverting_model(dim=v), 2.9),
    (lambda v: cm.mean_reverting_model(dim=v), -1),
    (cm.terminal_power, 1.5), (cm.terminal_power, 2.0),
    (lambda v: cm.marginal_power(3, v), np.float64(3.0)),
    (lambda v: cm.ou_model(1.0, dim=v), True), (cm.terminal_power, True),
], ids=["ou-1.5", "ou-0", "ou-str", "mean-reverting-2.9", "mean-reverting--1",
        "terminal-1.5", "terminal-2.0", "marginal-float64", "ou-True", "terminal-True"])
def test_factories_reject_integer_arguments_that_are_not_integers(factory, value):
    with pytest.raises(ValueError, match="must be an integer of at least 1"):
        factory(value)


# a bool component read coordinate 1 (and named index 3 in its IndexError),
# -1 read the last coordinate, and 1 on a 1-D model raised NumPy's IndexError
@pytest.mark.parametrize("component", [True, -1, 1.0, np.float64(0.0)],
                         ids=["True", "-1", "1.0", "float64"])
def test_marginal_power_rejects_components_that_are_not_coordinates(component):
    for factory in (lambda: cm.marginal_power(3, 1, component),
                    lambda: cm.terminal_power(2, component)):
        with pytest.raises(ValueError, match="component must be an integer of at least 0"):
            factory()


def test_marginal_power_rejects_a_component_past_the_state_on_evaluation():
    batch = cm.simulate_paths(cm.ou_model(1.0), 0.8, 0.3, cm.TimeGrid(1.0, 6), 4, 2)
    for f in (cm.marginal_power(3, 1, 1), cm.terminal_power(2, 1)):
        for read in (f.value, f.derivative, f.probe):
            with pytest.raises(ValueError, match="component 1 is not below the state "
                                                 "dimension 1"):
                read(batch)


def test_factories_take_numpy_integers():
    grid = cm.TimeGrid(1.0, 6)
    for factory in (cm.ou_model, cm.mean_reverting_model):
        want = cm.simulate_paths(factory(dim=2), 0.8, 0.3, grid, 4, 2)
        got = cm.simulate_paths(factory(dim=np.int64(2)), 0.8, 0.3, grid, 4, 2)
        assert same_bits(got.states, want.states)
    batch = cm.simulate_paths(cm.ou_model(1.0), 0.8, 0.3, grid, 4, 2)
    assert same_bits(cm.terminal_power(np.int32(3)).value(batch),
                     cm.terminal_power(3).value(batch))


@pytest.mark.parametrize("n_paths", [0, -3])
def test_simulate_paths_rejects_path_counts_below_one(n_paths):
    # these used to fail with a bare IndexError inside the noise streams
    with pytest.raises(ValueError, match="n_paths must be an integer of at least 1"):
        cm.simulate_paths(cm.ou_model(1.0), 1.0, 0.0, cm.TimeGrid(1.0, 4), n_paths, 0)
    one = cm.simulate_paths(cm.ou_model(1.0), 1.0, 0.0, cm.TimeGrid(1.0, 4), 1, 0)
    assert one.states.shape == (1, 5, 1)


def test_validator_flags_wrong_gradient():
    model = make_custom(
        drift=lambda x, t, th: -th * x,
        drift_dtheta=lambda x, t, th: +x,  # wrong sign
        drift_dx=lambda x, t, th: np.full((1, 1), -th),
    )
    assert cm.validate_drift_gradient(model, 1.0, np.random.default_rng(1)) > 1e-2


def test_mean_reverting_pulls_to_mean():
    # discrete chain mean: mean + (x0 - mean) (1 - theta dt)^M, exact
    grid = cm.TimeGrid(2.0, 100)
    mean, theta, x0 = 1.5, 1.2, 0.0
    batch = cm.simulate_paths(cm.mean_reverting_model(mean, 0.3), theta, x0, grid, 50_000, 31)
    emp = cm.fsum(batch.states[:, -1, 0]) / batch.n_paths
    exact = mean + (x0 - mean) * (1.0 - theta * grid.dt) ** grid.steps
    se = batch.states[:, -1, 0].std(ddof=1) / math.sqrt(batch.n_paths)
    assert abs(emp - exact) <= 3.0 * se


def test_ou_closed_form_helpers():
    assert abs(cm.ou_terminal_variance(1.0, 1.0, 1.0) - OU_VAR_T1) < 1e-15
    assert abs(cm.ou_conditional_second_moment(1.0, 1.0, 0.5, 1.0)
               - 0.3160602794142788) < 1e-15
    assert cm.ou_terminal_variance(0.0, 1.0, 0.7) == 0.7
    with pytest.raises(ValueError):
        cm.ou_conditional_second_moment(1.0, 1.0, 2.0, 1.0)
