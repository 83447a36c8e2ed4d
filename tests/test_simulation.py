"""Monte Carlo engines: determinism, positivity, and identity checks."""

import dataclasses
import json
import math
import os
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy.integrate import solve_ivp
from scipy.special import ndtri

from utilsens import (
    ConfigError,
    HestonParams,
    KimOmbergParams,
    Preferences,
    SimConfig,
    UnsupportedModelError,
    decomposition_check,
    eigenpair,
    mc_bump_sensitivity,
    simulate_phat_value,
    validate,
)
from utilsens.models import bumped_models
from utilsens import coefficients as co
from utilsens import simulation as si
from utilsens import valuation as va

from conftest import HESTON_SET, KO_SET, OU_SET, draw_heston, draw_ko


def _ens(model, cfg, workers=None):
    """The engine on one decomposition leg at ``cfg.T``: per path (X_T, int f)."""
    leg = si._Leg(model, si.initial_state(model), cfg.T, "q")
    return si._ensemble([leg], cfg, workers)[0][0]


def _error_term(ens, ep):
    """Mean and SE of exp(int f ds) / phi(X_T), from the shifted weights
    scaled back as ``decomposition_check`` reports them."""
    top, mean, se = si._shifted_error_term(ens, ep)
    return si._times_exp(mean, top), si._times_exp(se, top)


def _path_order(row):
    """A block's row [+z, -z] in path order: pair k's paths 2k and 2k + 1."""
    half = (row.size + 1) // 2
    out = np.empty(row.size)
    out[0::2], out[1::2] = row[:half], row[half:]
    return out


def _bits(value):
    """``value`` with each float as its bytes, so that -0.0 and 0.0 differ,
    inside tuples, lists and dataclasses too; other values as they are."""
    if isinstance(value, float):
        return np.float64(value).tobytes()
    if dataclasses.is_dataclass(value):
        value = dataclasses.astuple(value)
    if isinstance(value, (tuple, list)):
        return [_bits(v) for v in value]
    return value


def _pair_normals(seed, n_paths, n_steps):
    """The contract's normals, (n_steps, ceil(n_paths / 2)): pair k at step j
    reads Philox word j * P + k, one uniform per word."""
    P = (n_paths + 1) // 2
    u = Generator(Philox(key=seed)).random(n_steps * P).reshape(n_steps, P)
    return ndtri(np.maximum(u, 2.0**-54))


def test_normals_chunk_and_worker_independence(ko_model):
    # counter-based stream: same (path, step) value for any blocking
    full = _path_order(si.normals_for(si.BlockStream(123), 1000, range(7, 8), 0,
                                      1000)[0])
    parts = np.concatenate([_path_order(si.normals_for(si.BlockStream(123), 1000,
                                                       range(7, 8), lo, hi)[0])
                            for lo, hi in ((0, 136), (136, 640), (640, 1000))])
    assert np.array_equal(full, parts)
    cfg = SimConfig(T=1.0, n_steps=50, n_paths=4000, seed=9, scheme="exact_gaussian")
    outs = [_ens(ko_model, cfg, workers=w) for w in (1, 2, 4, 8)]
    for o in outs[1:]:
        assert np.array_equal(o.x_T, outs[0].x_T)
        assert np.array_equal(o.integral, outs[0].integral)


@pytest.mark.parametrize("n_paths", [1000, 1001])
def test_mirror_path_reads_the_negated_normal(n_paths):
    # pair k at step j reads word j * P + k; path 2k takes +z and path 2k + 1
    # exactly -z; at odd n_paths the last path has no mirror.  The row of a
    # block is np.concatenate((z, -z)) of its pairs, one row per step of a
    # run, and a block must start at the first path of a pair
    z = _pair_normals(77, n_paths, 3)
    rows = si.normals_for(si.BlockStream(77), n_paths, range(3), 0, n_paths)
    tails = si.normals_for(si.BlockStream(77), n_paths, range(3), 400, n_paths)
    assert rows.shape == (3, n_paths) and tails.shape == (3, n_paths - 400)
    for j in range(3):
        assert np.array_equal(rows[j], np.concatenate((z[j], -z[j][:n_paths // 2])))
        paths = _path_order(rows[j])
        assert np.array_equal(paths[0::2], z[j])
        assert np.array_equal(paths[1::2], -paths[0:n_paths - 1:2])
        assert np.array_equal(_path_order(tails[j]), paths[400:])
    with pytest.raises(ValueError, match="pair"):
        si.normals_for(si.BlockStream(77), n_paths, range(1), 401, n_paths)


@pytest.mark.parametrize("seed", [123, 2**63 + 5, 2**64 - 1])
def test_block_stream_matches_normals_for(seed):
    # one generator per block, read run after run of steps, gives the words
    # of a fresh generator read one step at a time: blocks starting at lo >
    # 0, a row of pairs that is no multiple of 4 (so offsets fall inside
    # Philox's 4-word blocks), several blocks read in turn, runs of one and
    # of several steps, and a gap of 1 to 3 words that is discarded, not
    # advanced
    n = 1003
    blocks = [(0, 400), (400, 402), (402, 1003)]
    streams = [si.BlockStream(seed) for _ in blocks]
    for steps in (range(0, 1), range(1, 4), range(4, 6)):
        for (lo, hi), stream in zip(blocks, streams):
            got = si.normals_for(stream, n, steps, lo, hi)
            for step, row in zip(steps, got):
                fresh = si.normals_for(si.BlockStream(seed), n, range(step, step + 1),
                                       lo, hi)
                assert np.array_equal(row, fresh[0])
    stream = si.BlockStream(seed)
    for word in (0, 5, 7, 8, 13, 50, 49):  # the last read is behind: restart
        u = stream.read(word, 3)
        ref = si.BlockStream(seed).read(0, word + 3)[word:]
        assert np.array_equal(u, ref), word


def test_block_stream_hands_back_its_last_row(monkeypatch):
    # a run of rows, one per word, is a read-only view of the stream's
    # buffer, filled in place: row r is the row whose first pair reads
    # words[r], and one ndtri maps the whole run, one normal per pair.  A
    # repeat of the last run returns the held rows and draws nothing; any
    # other run is read and computed into the same buffer (grown for a
    # longer run)
    stream = si.BlockStream(7, 75)
    words = range(40, 340, 100)
    rows = stream.normals(words, 25)
    first = rows.copy()
    assert rows.shape == (3, 25) and not rows.flags.writeable
    for word, row in zip(words, first):
        assert np.array_equal(row, si.BlockStream(7).normals(range(word, word + 1),
                                                             25)[0])
    sizes = _counted_draws(monkeypatch)
    assert stream.normals(words, 25) is rows
    assert sizes == []
    shorter = stream.normals(words, 24)
    assert np.shares_memory(shorter, rows)
    assert np.array_equal(shorter, np.delete(first, 12, axis=1))
    assert np.array_equal(stream.normals(words, 25), first)
    assert np.array_equal(stream.normals(words[:2], 25), first[:2])
    assert np.array_equal(stream.normals(range(40, 440, 100), 31)[:3, :13],
                          first[:, :13])
    assert sizes == [3 * 12, 3 * 13, 2 * 13, 4 * 16]


def _single_leg_reference(model, chi, cfg, measure, paired=False):
    """The engine one leg at a time, every path at once on the contract's
    normals (``_pair_normals``): path 2k takes +z of pair k, path 2k + 1 -z.

    ``paired`` gives the dt-halving leg of a run of ``cfg`` instead: 2 (n_paths
    // 4) paths at 2 n_steps, fine step 2j + e of path 2r on +z of pair 2r + e
    at step j and of its mirror 2r + 1 on -z."""
    fine = replace(cfg, n_steps=2 * cfg.n_steps) if paired else cfg
    c0, c1, g2, g1, g0 = si._coefficients(model, fine.T, fine.n_steps, measure)
    dt, sigma = fine.T / fine.n_steps, getattr(model.params, model.spec.vol_field)
    decay, shift, sd = si._affine_gaussian_tables(c0[1::2], c1[1::2], sigma, dt)
    normals = _pair_normals(cfg.seed, cfg.n_paths, cfg.n_steps)
    size = 2 * (cfg.n_paths // 4) if paired else cfg.n_paths
    x = xr = np.full(size, chi)
    acc = np.zeros(size)
    g_prev = (g2[0] * chi + g1[0]) * chi + g0[0]
    for j in range(fine.n_steps):
        z = np.empty(size)
        if paired:
            z[0::2] = normals[j // 2][j % 2:size:2]
        else:
            z[0::2] = normals[j]
        z[1::2] = -z[0:size - 1:2]
        if cfg.scheme == "exact_gaussian":
            x = xr = decay[j] * x + shift[j] + sd[j] * z
        elif cfg.scheme == "euler":
            x = xr = x + (c0[2 * j] - c1[2 * j] * x) * dt + sigma * math.sqrt(dt) * z
        else:
            xp = np.maximum(x, 0.0)
            x = x + (c0[2 * j] - c1[2 * j] * xp) * dt \
                + sigma * np.sqrt(xp) * math.sqrt(dt) * z
            xr = np.maximum(x, 0.0)
        g_new = (g2[2 * j + 2] * xr + g1[2 * j + 2]) * xr + g0[2 * j + 2]
        acc += 0.5 * dt * (g_prev + g_new)
        g_prev = g_new
    return xr, acc


@pytest.mark.parametrize("kind, scheme, parameter, n_paths, workers", [
    ("ou", "exact_gaussian", "mu", 500, 1),
    ("ou", "euler", "s0", 500, 1),
    ("ko", "exact_gaussian", "rho", 500, 1),
    ("ko", "euler", "chi", 500, 1),
    ("heston", "full_truncation_euler", "sigma", 500, 1),
    # one thread steps one block, longer than _BLOCK / 2
    ("ko", "exact_gaussian", "k", si._BLOCK + 700, 1),
    # one thread steps three blocks in one workspace, the last smaller
    ("ko", "exact_gaussian", "k", 4 * si._BLOCK + 700, 1),
    ("ko", "exact_gaussian", "k", si._BLOCK + 700, 2),
    ("heston", "full_truncation_euler", "m_bar", si._BLOCK + 700, 2),
    # each of two threads steps three blocks in one workspace, the last smaller
    ("heston", "full_truncation_euler", "m_bar", 8 * si._BLOCK + 700, 2),
])
def test_bump_legs_bit_identical_to_single_leg_runs(ko_model, heston_model, ou_model,
                                                    kind, scheme, parameter, n_paths,
                                                    workers):
    # both legs stepped together on one draw give, bit for bit, what each
    # leg gives run alone with its own draw
    model = {"ko": ko_model, "heston": heston_model, "ou": ou_model}[kind]
    T, h = 1.0, 1e-3
    cfg = SimConfig(T=T, n_steps=40, n_paths=n_paths, seed=2**63 + 11, scheme=scheme)
    chi = si.initial_state(model)
    if parameter in ("chi", "s0"):
        legs = [(model, chi + h), (model, chi - h)]
        h_used = h
    else:
        up, dn, h_used = bumped_models(model, parameter, h)
        legs = [(up, chi), (dn, chi)]
    stacked, _ = si._ensemble([si._Leg(m, c, T, "phat") for m, c in legs], cfg, workers)
    refs = [_single_leg_reference(m, c, cfg, "phat") for m, c in legs]
    for ens, (x_T, integral) in zip(stacked, refs):
        assert ens.x_T.tobytes() == x_T.tobytes()
        assert ens.integral.tobytes() == integral.tobytes()
    l_up, l_dn = refs[0][1], refs[1][1]
    m_up, m_dn = si._log_mean_exp(l_up), si._log_mean_exp(l_dn)
    _, se = si._mean_se(np.exp(l_up - m_up) - np.exp(l_dn - m_dn))
    est_se = mc_bump_sensitivity(model, None, T, parameter, h, cfg, workers)
    assert _bits(est_se) == _bits(((m_up - m_dn) / (2.0 * h_used), se / (2.0 * h_used)))
    assert _bits(simulate_phat_value(legs[0][0], legs[0][1], T, cfg, workers)) == \
        _bits((*si._mean_se(np.exp(l_up)), m_up))


def _counted_draws(monkeypatch):
    # sizes of the runs of normals computed, one per ndtri call (a run a
    # block stream hands back again is not drawn again); the stream maps its
    # uniforms in place
    sizes = []
    draw = si.ndtri

    def counted(u, out=None):
        z = draw(u, out=out)
        sizes.append(z.size)
        return z

    monkeypatch.setattr(si, "ndtri", counted)
    return sizes


def test_bump_legs_share_one_draw(ko_model, monkeypatch):
    # regression guard on shared noise: the engine reads each step's normals
    # once per path block for both legs of a bump, one per antithetic pair.
    # The 2000-path block's rows, shorter than _BLOCK, are computed
    # _BLOCK // 2000 steps at a time, one ndtri call per run
    sizes = _counted_draws(monkeypatch)
    cfg = SimConfig(T=1.0, n_steps=100, n_paths=2000, seed=3, scheme="exact_gaussian")
    mc_bump_sensitivity(ko_model, None, 1.0, "mu", 1e-3, cfg)
    run = si._BLOCK // 2000
    assert sum(sizes) == 1000 * 100
    assert len(sizes) == math.ceil(100 / run)
    assert sizes == [1000 * run] * (100 // run) + [1000 * (100 % run)]
    # two workers on several blocks of rows longer than _BLOCK, one step per
    # ndtri call: P normals per step all the same
    sizes.clear()
    n = 8 * si._BLOCK + 700
    mc_bump_sensitivity(ko_model, None, 1.0, "mu", 1e-3, replace(cfg, n_paths=n),
                        workers=2)
    blocks = si._block_layout(n, si._BLOCK // 2, min(2, os.cpu_count() or 1))
    assert len(blocks) > 2 and min(hi - lo for lo, hi in blocks) > si._BLOCK
    assert sum(sizes) == (n + 1) // 2 * 100 and len(sizes) == 100 * len(blocks)


@pytest.mark.parametrize("n_paths", [20000, 10000, 20001])
def test_dt_halving_leg_draws_no_normals(ko_model, monkeypatch, n_paths):
    # the halving leg is stepped on the main leg's rows at any path count,
    # odd ones included; only the main leg's normals are computed, one per
    # antithetic pair and step: P = ceil(n_paths / 2) per step
    sizes = _counted_draws(monkeypatch)
    cfg = SimConfig(T=1.0, n_steps=40, n_paths=n_paths, seed=3)
    decomposition_check(ko_model, None, 1.0, cfg, check_dt_halving=True)
    assert sum(sizes) == (n_paths + 1) // 2 * 40


@pytest.mark.parametrize("kind, scheme, workers", [
    ("ko", "exact_gaussian", 1),
    ("ko", "exact_gaussian", 2),
    ("ko", "euler", 1),
    ("ko", "euler", 2),
    ("heston", "full_truncation_euler", 1),
    ("heston", "full_truncation_euler", 2),
])
def test_shared_dt_halving_leg_bit_identical_to_own_runs(ko_model, heston_model, kind,
                                                         scheme, workers):
    # the main leg stepped with the halving leg gives, bit for bit, what it
    # gives simulated on its own; the halving leg gives what the fine scheme
    # gives stepped on the normals of pairs of main pairs; the warnings are
    # those of the main and the fine step.  n_paths is odd, so the last main
    # path has no partner; one thread steps it as two blocks in one
    # workspace, the last smaller, and two threads one block each
    model = {"ko": ko_model, "heston": heston_model}[kind]
    n = 4 * si._BLOCK + 701
    cfg = SimConfig(T=2.0, n_steps=10, n_paths=n, seed=2**63 + 17, scheme=scheme)
    ep = eigenpair(model)
    chi = si.initial_state(model)
    with warnings.catch_warnings(record=True) as shared:
        warnings.simplefilter("always")
        r = decomposition_check(model, None, 2.0, cfg, workers, check_dt_halving=True)
    with warnings.catch_warnings(record=True) as own:
        warnings.simplefilter("always")
        mc, se = _error_term(_ens(model, cfg, workers=workers), ep)
        si._tables(si._Leg(model, chi, 2.0, "q"), 20, cfg.scheme)
    x_T, integral = _single_leg_reference(model, chi, cfg, "q", paired=True)
    assert x_T.size == 2 * (n // 4)
    halved, _ = _error_term(si.PathEnsemble(x_T=x_T, integral=integral), ep)
    assert _bits((r.mc_error_term, r.mc_se, r.halved_dt_error_term)) == \
        _bits((mc, se, halved))
    assert [str(w.message) for w in shared] == [str(w.message) for w in own]
    assert len(own) == (1 if kind == "ko" else 2)  # the coarse step warns


@pytest.mark.parametrize("workers", [1, 2])
def test_dt_halving_leg_keeps_the_variance_of_the_main_leg(ko_model, monkeypatch,
                                                           workers):
    # detector for the halving leg's pairing: on a zero-drift Euler leg both
    # legs end at chi + sigma W_T, so E[(X_T - chi)^2] = sigma^2 T on each.
    # A fine path that took a pair's +z and its own mirror's -z would end at
    # chi (variance 0); one that took a pair's +z twice would double it
    def zero_drift(model, T, steps, measure):
        zero = np.zeros(2 * steps + 1)
        return zero, zero, zero, zero, zero

    monkeypatch.setattr(si, "_coefficients", zero_drift)
    T, sigma = 0.5, ko_model.params.sigma
    cfg = SimConfig(T=T, n_steps=4, n_paths=4 * si._BLOCK + 2003, seed=41,
                    scheme="euler")
    mains, fines = si._ensemble([si._Leg(ko_model, 0.0, T, "q", True)], cfg, workers)
    (m, se), (m2, se2) = (si._mean_se(e.x_T ** 2) for e in (mains[0], fines[0]))
    assert fines[0].x_T.size == 2 * (cfg.n_paths // 4)
    assert abs(m - sigma**2 * T) < 4.0 * se
    assert abs(m2 - m) < 4.0 * math.sqrt(se**2 + se2**2)


def test_mean_se_is_the_se_over_pair_means():
    # the mean is over all paths; the SE treats a pair (paths 2k, 2k + 1) as
    # one cluster and, at odd size, the last path as a cluster of its own
    rng = np.random.default_rng(3)
    w = rng.lognormal(size=2000)
    w[1::2] = 0.5 * w[0::2] + rng.lognormal(size=1000)  # correlated mirrors
    mean, se = si._mean_se(w)
    pairs = 0.5 * (w[0::2] + w[1::2])
    assert mean == float(np.mean(w))
    assert se == pytest.approx(np.std(pairs, ddof=1) / math.sqrt(pairs.size),
                               rel=1e-12)
    odd = np.append(w, 7.0)
    mean, se = si._mean_se(odd)
    assert mean == float(np.mean(odd))
    # cluster sums about the mean of all paths, the last cluster one path
    dev = np.append(w[0::2] + w[1::2] - 2.0 * mean, 7.0 - mean)
    C = dev.size
    assert se == pytest.approx(math.sqrt(C / (C - 1) * np.sum(dev**2)) / odd.size,
                               rel=1e-12)
    # mirrored weights that cancel exactly have no pair-mean spread
    assert si._mean_se(np.array([1.0, -1.0, 2.0, -2.0])) == (0.0, 0.0)
    assert si._mean_se(np.array([3.0, 5.0])) == (4.0, 0.0)  # one cluster


def test_shared_dt_halving_leg_keeps_the_stability_floor(heston_model):
    cfg = SimConfig(T=10.0, n_steps=10, n_paths=20000, seed=1,
                    scheme="full_truncation_euler")
    with pytest.raises(ConfigError, match="floor"):
        decomposition_check(heston_model, None, 10.0, cfg, check_dt_halving=True)


@pytest.mark.parametrize("n_paths", [2 * si._BLOCK + 701, 150])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind, scheme", [
    ("ko", "exact_gaussian"),
    ("ko", "euler"),
    ("heston", "full_truncation_euler"),
])
def test_one_pass_bit_identical_to_own_runs(ko_model, heston_model, kind, scheme,
                                            workers, n_paths):
    # decomposition legs at several horizons (T = 0 among them) and value legs
    # stepped on one draw give, field for field, what each gives run alone
    model = {"ko": ko_model, "heston": heston_model}[kind]
    cfg = SimConfig(T=1.0, n_steps=20, n_paths=n_paths, seed=2**63 + 23, scheme=scheme)
    horizons, value_horizons = [1.0, 0.0, 2.5], [2.0, 0.5]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        checks, values = si.decomposition_checks(model, None, horizons, cfg, workers,
                                                 value_horizons=value_horizons)
        own = [decomposition_check(model, None, T, cfg, workers) for T in horizons]
        own_values = [simulate_phat_value(model, None, T, cfg, workers)
                      for T in value_horizons]
    assert _bits(checks) == _bits(own) and _bits(values) == _bits(own_values)
    assert checks[1].halved_dt_error_term is None
    assert None not in (checks[0].halved_dt_error_term, checks[2].halved_dt_error_term)


def test_block_layout_gives_every_worker_an_equal_share():
    # one rule for every thread count: a pass of at most `block` paths is one
    # block, a larger one the fewest blocks of at most 4 * block paths whose
    # count is a multiple of `threads`, so each thread steps one long span.
    # Blocks are sized evenly, and every block but the last holds a multiple
    # of 4 paths, so no antithetic pair or dt-halving pair of pairs straddles
    # two
    for n_paths in (si._BLOCK + 701, 20_000, 100_000, 250_000, 2000, 150):
        for legs in (1, 2, 4, 6):
            block = 4 * max(1, si._BLOCK // (4 * legs))
            for threads in (1, 2, 3, 4):
                blocks = si._block_layout(n_paths, block, threads)
                sizes = [hi - lo for lo, hi in blocks]
                assert [lo for lo, _ in blocks] == [0] + [hi for _, hi in blocks[:-1]]
                assert blocks[-1][1] == n_paths
                assert all(size % 4 == 0 for size in sizes[:-1])
                assert max(sizes) - min(sizes) < 4 * len(blocks)
                if n_paths <= block:
                    assert blocks == [(0, n_paths)]
                else:
                    assert len(blocks) % threads == 0 and max(sizes) <= 4 * block
                    assert (len(blocks) - threads) * 4 * block < n_paths
    # verify's 20,000 paths at 4 main legs, a 100,000-path decomposition run
    # at one main leg, and a 2,000-path bump pass at 2 legs, on one thread
    # and on two
    for threads in (1, 2):
        assert si._block_layout(20_000, 4096, threads) == [(0, 10_000), (10_000, 20_000)]
        assert si._block_layout(100_000, si._BLOCK, threads) == \
            [(0, 50_000), (50_000, 100_000)]
        assert si._block_layout(2000, 8192, threads) == [(0, 2000)]
    assert si._block_layout(20_000, 4096, 3) == [(i, i + 6668) for i in (0, 6668)] + \
        [(13_336, 20_000)]


@pytest.mark.parametrize("workers", [1, 2])
def test_workers_keep_the_callers_error_state(ko_model, monkeypatch, workers):
    # numpy keeps np.errstate in a context variable, which a pool thread does
    # not inherit; each worker's share runs in a copy of the caller's context,
    # so an overflow raises at any worker count, as it does under cli.main
    def kernel(ws, lo, hi):
        ws[:] = 1e308
        ws *= 10.0

    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        si._run_blocks(kernel, np.empty, 2 * si._BLOCK, si._BLOCK, workers)

    def huge_integrand(model, T, steps, measure):
        zero = np.zeros(2 * steps + 1)
        return zero, zero, zero, zero, zero + 1e308

    monkeypatch.setattr(si, "_coefficients", huge_integrand)
    cfg = SimConfig(T=1.0, n_steps=2, n_paths=2 * si._BLOCK + 701, seed=1,
                    scheme="euler")
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        si._ensemble([si._Leg(ko_model, 0.0, 1.0, "q")], cfg, workers)


@pytest.mark.parametrize("workers", [1, 2])
def test_shares_run_under_the_engine_ufunc_buffer(workers):
    # numpy copies a row of at most half its ufunc buffer through it, so each
    # share runs under the engine's small buffer, set in np.errstate()'s
    # scope: the caller's buffer and error state come back after the pass,
    # and after a pass whose kernel raises
    seen = []

    def kernel(ws, lo, hi):
        seen.append(np.getbufsize())

    def failing(ws, lo, hi):
        kernel(ws, lo, hi)
        raise ZeroDivisionError

    with np.errstate(over="raise", under="warn"):
        np.setbufsize(1 << 14)
        state = np.geterr()
        si._run_blocks(kernel, np.empty, 8192, 1024, workers)
        assert np.getbufsize() == 1 << 14 and np.geterr() == state
        with pytest.raises(ZeroDivisionError):
            si._run_blocks(failing, np.empty, 8192, 1024, workers)
        assert np.getbufsize() == 1 << 14 and np.geterr() == state
    # two blocks of 4,096 paths at one thread or two, then the first block of
    # a share, which raises (the pool may cancel the other share before it
    # starts)
    assert si._block_layout(8192, 1024, workers) == [(0, 4096), (4096, 8192)]
    assert len(seen) >= 3 and set(seen) == {si._UFUNC_BUFFER}


@pytest.mark.parametrize("kind", ["ko", "heston"])
def test_outputs_do_not_depend_on_numpys_ufunc_buffer(ko_model, heston_model,
                                                      monkeypatch, kind):
    # buffering only copies operands: with the caller's and the engine's
    # buffer at numpy's default, at 65,536 and at 16 elements, a bump pass of
    # 2 legs x 2,000 paths and a pass of 4 legs x 4,000 paths with
    # dt-halving, each in one block, give the same bytes
    model = {"ko": ko_model, "heston": heston_model}[kind]
    assert si._block_layout(4000, 4 * (si._BLOCK // 16), 1) == [(0, 4000)]
    runs = []
    for size in (8192, 1 << 16, 16):
        monkeypatch.setattr(si, "_UFUNC_BUFFER", size)
        with np.errstate(), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            np.setbufsize(size)
            bump = si.mc_bump_sensitivities(
                model, None, [1.0], "m_bar", 1e-3,
                SimConfig(T=1.0, n_steps=20, n_paths=2000, seed=3))
            checks, values = si.decomposition_checks(
                model, None, (1.0, 5.0, 10.0),
                SimConfig(T=1.0, n_steps=40, n_paths=4000, seed=3), 1,
                value_horizons=[2.0])
        runs.append(_bits([bump, checks, values]))
    assert runs[0] == runs[1] == runs[2]


def test_pool_threads_capped_at_the_cpu_count(ko_model, monkeypatch):
    # a pass runs on min(workers, os.cpu_count()) threads and lays out its
    # paths over them: with 3 CPUs, 100 workers are 3 shares of one block
    # each on a pool of 3 threads, here a stand-in that runs them inline,
    # with the bits of a 1-worker run
    pools, shares = [], []

    class InlinePool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, contexts, share_list, spaces):
            shares.extend(share_list)
            return map(fn, contexts, share_list, spaces)

    cfg = SimConfig(T=1.0, n_steps=10, n_paths=si._BLOCK + 700, seed=7)
    one = _ens(ko_model, cfg, 1)
    monkeypatch.setattr(si, "ThreadPoolExecutor", InlinePool)
    monkeypatch.setattr(si.os, "cpu_count", lambda: 3)
    many = _ens(ko_model, cfg, 100)
    assert pools == [3]
    assert shares == [[block] for block in si._block_layout(cfg.n_paths, si._BLOCK, 3)]
    assert len(shares) == 3
    assert many.x_T.tobytes() == one.x_T.tobytes()
    assert many.integral.tobytes() == one.integral.tobytes()


def test_pass_memory_does_not_grow_with_n_paths(ko_model, monkeypatch):
    # each thread steps its blocks in place in one workspace made before the
    # pass, so beyond its output arrays a 2-worker pass traces at most two
    # workspaces (blocks of at most 4 _BLOCK leg-paths), whatever n_paths:
    # one holds 4 main rows (x, acc and two integrand rows), the row of
    # normals and 4 dt-halving rows of half the paths
    engine, extra = si._ensemble, {}

    def traced(legs, cfg, workers):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        mains, fines = engine(legs, cfg, workers)
        out = sum(e.x_T.nbytes + e.integral.nbytes for e in mains + fines)
        extra[cfg.n_paths] = tracemalloc.get_traced_memory()[1] - base - out
        return mains, fines

    monkeypatch.setattr(si, "_ensemble", traced)
    tracemalloc.start()
    try:
        for n in (250_000, 1_000_000):
            cfg = SimConfig(T=1.0, n_steps=2, n_paths=n, seed=1)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                decomposition_check(ko_model, None, 1.0, cfg, workers=2)
    finally:
        tracemalloc.stop()
    size = max(hi - lo for lo, hi in si._block_layout(1_000_000, si._BLOCK, 2))
    workspace = 8 * (4 + 1 + 4 / 2) * size
    assert abs(extra[1_000_000] - extra[250_000]) < 64 * 1024
    assert extra[1_000_000] < 2 * workspace + 2**20


def test_verify_monte_carlo_draws_each_normal_once(ko_model, monkeypatch):
    # verify's three decomposition runs, their dt-halving legs and the
    # two-route value read the same words: each normal is computed once, one
    # per antithetic pair and step
    from utilsens import cli

    sizes = _counted_draws(monkeypatch)
    cfg = SimConfig(T=5.0, n_steps=40, n_paths=1000, seed=5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cli._verify_checks(ko_model, cfg, None)
    assert sum(sizes) == 500 * 40


@pytest.mark.parametrize("command", ["value", "simulate", "diagnose"])
def test_ou_horizon_grid_draws_each_normal_once(tmp_path, monkeypatch, capsys, command):
    # on the complete-market model every horizon of a T_grid (and, for
    # diagnose, both bump legs of each) is stepped in one engine pass on the
    # same words: each normal is computed once, not once per horizon, one
    # per antithetic pair and step
    from utilsens import cli

    config = tmp_path / "ou.json"
    config.write_text(json.dumps({
        "ou_complete": OU_SET, "preferences": {"p": -3.0},
        "sim": {"T": 1.0, "n_steps": 40, "n_paths": 1000, "seed": 5},
        "sweep": {"parameter": "b", "T_grid": [0.5, 1.0, 2.0]}}))
    sizes = _counted_draws(monkeypatch)
    assert cli.main([command, "--config", str(config)]) == 0
    assert len(json.loads(capsys.readouterr().out)["rows"]) == 3
    assert sum(sizes) == 500 * 40


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind, parameter", [
    ("ko", "mu"), ("ko", "chi"),
    ("heston", "sigma"), ("heston", "chi"),
    ("ou", "b"), ("ou", "s0"),
])
def test_bump_horizons_bit_identical_to_own_runs(ko_model, heston_model, ou_model,
                                                 kind, parameter, workers):
    # the bump legs of several horizons (T = 0 among them) stepped in one
    # pass give, bit for bit, what each horizon's own call gives; n_paths is
    # odd and spans several path blocks at one worker and one per worker at
    # two
    model = {"ko": ko_model, "heston": heston_model, "ou": ou_model}[kind]
    cfg = SimConfig(T=1.0, n_steps=20, n_paths=si._BLOCK + 701, seed=2**63 + 29,
                    scheme=model.spec.schemes[0])
    horizons = [0.0, 0.5, 1.0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        shared = si.mc_bump_sensitivities(model, None, horizons, parameter, 1e-3,
                                          cfg, workers)
        own = [mc_bump_sensitivity(model, None, T, parameter, 1e-3, cfg, workers)
               for T in horizons]
    assert shared == own
    assert shared[0] == (0.0, 0.0) and all(se > 0.0 for _, se in shared[1:])


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_multi_horizon_routes_refuse_a_bad_horizon_before_any_work(ko_model, monkeypatch,
                                                                   bad):
    # both routes check every horizon by SimConfig's rule at entry, so a bad
    # one anywhere in the list is refused before the engine is called
    called = []
    monkeypatch.setattr(si, "_ensemble", lambda *args: called.append(args))
    cfg = SimConfig(T=1.0, n_steps=20, n_paths=200, seed=1)
    refused = pytest.raises(ValueError, match=r"^T must be finite and >= 0$")
    with refused:
        si.mc_bump_sensitivities(ko_model, None, [1.0, bad], "mu", 1e-3, cfg)
    with refused:
        si.decomposition_checks(ko_model, None, [1.0, bad], cfg)
    with refused:
        si.decomposition_checks(ko_model, None, [1.0], cfg, value_horizons=[bad])
    assert called == []


def test_mc_bump_finite_where_value_underflows(ou_model):
    # configs/ou_complete.json at T = 1e4: every per-path weight exp(int)
    # underflows to 0, so each leg's mean is taken in log space
    m = ou_model
    cfg = SimConfig(T=1e4, n_steps=2000, n_paths=2000, seed=1)
    with pytest.warns(UserWarning, match="mean-reversion"):
        est, se = mc_bump_sensitivity(m, None, 1e4, "mu", 1e-3, cfg)
        v, _, lv = simulate_phat_value(m, None, 1e4, cfg)
    assert math.isfinite(est) and math.isfinite(se) and se > 0.0
    assert v == 0.0 and math.isfinite(lv) and lv < -700.0


def test_phat_log_value_matches_value(ko_model, ou_model):
    for m in (ko_model, ou_model):
        cfg = SimConfig(T=2.0, n_steps=200, n_paths=3000, seed=19,
                        scheme="exact_gaussian")
        v, _, lv = simulate_phat_value(m, None, 2.0, cfg)
        assert lv == pytest.approx(math.log(v), rel=1e-12)


def test_mu_zero_error_term_exactly_one():
    prefs = Preferences(p=-1.2)
    ko = validate(KimOmbergParams(**{**KO_SET, "mu": 0.0}), prefs)
    he = validate(HestonParams(**{**HESTON_SET, "mu": 0.0}), prefs)
    for m, scheme in [(ko, "exact_gaussian"), (he, "full_truncation_euler")]:
        cfg = SimConfig(T=2.0, n_steps=100, n_paths=500, seed=3, scheme=scheme)
        ens = _ens(m, cfg)
        mean, se = _error_term(ens, eigenpair(m))
        assert mean == 1.0 and se == 0.0


def test_t0_error_term():
    # phi(chi) = 1 at chi = 0 for kim_omberg, so the T = 0 estimate is exactly 1
    m = validate(KimOmbergParams(**{**KO_SET, "chi": 0.0}), Preferences(p=-1.0))
    cfg = SimConfig(T=0.0, n_steps=10, n_paths=200, seed=1, scheme="exact_gaussian")
    ens = _ens(m, cfg)
    assert np.all(ens.x_T == 0.0)
    mean, se = _error_term(ens, eigenpair(m))
    assert mean == 1.0 and se == 0.0


def test_heston_paths_nonnegative():
    rng = np.random.default_rng(51)
    for _ in range(3):
        m = draw_heston(rng)
        cfg = SimConfig(T=3.0, n_steps=600, n_paths=2000, seed=17,
                        scheme="full_truncation_euler")
        ens = _ens(m, cfg)
        assert np.all(ens.x_T >= 0.0)


def test_ko_terminal_mean_matches_ode_oracle(ko_model):
    # mean of the time-dependent linear SDE solves m' = c0(t) - c1(t) m;
    # integrate it independently with an adaptive solver
    T, n_steps = 4.0, 800
    cfg = SimConfig(T=T, n_steps=n_steps, n_paths=40000, seed=23,
                    scheme="exact_gaussian")
    ens = _ens(ko_model, cfg)
    times = np.linspace(0.0, T, 2 * n_steps + 1)
    c0, c1, _, _, _ = si._coefficients(ko_model, T, n_steps, "q")

    def rhs(t, y):
        c0t = np.interp(t, times, c0)
        c1t = np.interp(t, times, c1)
        return c0t - c1t * y[0]

    sol = solve_ivp(rhs, (0.0, T), [ko_model.params.chi], rtol=1e-10,
                    atol=1e-12, dense_output=False, t_eval=[T])
    mean_oracle = sol.y[0, -1]
    sd = np.std(ens.x_T) / math.sqrt(cfg.n_paths)
    assert abs(np.mean(ens.x_T) - mean_oracle) < 3.0 * sd


@pytest.mark.parametrize("name, xs", [("ko_model", (-0.3, 0.1, 0.5)),
                                      ("heston_model", (0.02, 0.09, 0.3))])
def test_engine_coefficients_match_pointwise_routes(request, name, xs):
    # the arrays the engine integrates against the library's pointwise
    # definitions: the q drift c0 - c1 x is kappa, and the q integrand
    # (g2 x + g1) x + g0 is the tilt rate f = -(q/2)(1-q)(xi* - xi_hat)^2.
    # Both are differences of larger terms (early on xi_hat ~ xi* and f is
    # ~1e-5 of the controls' size), so the tolerance is relative to the
    # size of those terms, not to the difference
    m = request.getfixturevalue(name)
    T, n_steps = 5.0, 50
    cfg = SimConfig(T=T, n_steps=n_steps, n_paths=100, seed=1,
                    scheme=m.spec.schemes[0])
    c0, c1, g2, g1, g0 = si._coefficients(m, T, n_steps, "q")
    times = np.linspace(0.0, T, 2 * n_steps + 1)
    half = 0.5 * m.q * (1.0 - m.q)
    for k in (0, 1, 37, 50, 99, 100):
        t = times[k]
        for x in xs:
            kappa = va.kappa_eval_generic(m, x, t, T)
            kappa_scale = abs(c0[k]) + abs(c1[k] * x)
            assert abs(c0[k] - c1[k] * x - kappa) <= 1e-10 * kappa_scale, (k, x)
            f = va.f_eval(m, x, t, T)
            f_scale = half * (abs(va.control_star_xi(m, x))
                              + abs(va.control_hat_xi(m, x, t, T))) ** 2
            assert abs((g2[k] * x + g1[k]) * x + g0[k] - f) <= 1e-10 * f_scale, \
                (k, x)


def test_euler_scheme_agrees_with_exact_gaussian(ko_model):
    T = 1.0
    base = SimConfig(T=T, n_steps=1000, n_paths=30000, seed=29,
                     scheme="exact_gaussian")
    eul = replace(base, scheme="euler")
    m1, s1 = _error_term(_ens(ko_model, base), eigenpair(ko_model))
    m2, s2 = _error_term(_ens(ko_model, eul), eigenpair(ko_model))
    assert abs(m1 - m2) < 3.0 * math.sqrt(s1**2 + s2**2) + 1e-3 * abs(m1)


def test_decomposition_identity_small_runs():
    rng = np.random.default_rng(52)
    for draw, scheme in [(draw_ko, "exact_gaussian"),
                         (draw_heston, "full_truncation_euler")]:
        m = draw(rng, mixing_floor=0.5)
        for T in (1.0, 5.0):
            cfg = SimConfig(T=T, n_steps=500, n_paths=20000, seed=61,
                            scheme=scheme)
            r = decomposition_check(m, None, T, cfg, check_dt_halving=False)
            assert r.ratio_gap < 3.0 * r.mc_se, (m.kind, T, r)


def test_decomposition_t0_trivial(ko_model):
    cfg = SimConfig(T=0.0, n_steps=10, n_paths=100, seed=1,
                    scheme="exact_gaussian")
    r = decomposition_check(ko_model, None, 0.0, cfg)
    assert r.passed and r.mc_se == 0.0 and r.ratio_gap <= 1e-12


def test_decomposition_se_finite_for_huge_weights(ko_model):
    # at chi = 35 the per-path weights are near e^545, so their squares
    # overflow unless the log-weights are shifted by their largest value
    cfg = SimConfig(T=0.1, n_steps=20, n_paths=1000, seed=1)
    r = decomposition_check(ko_model, 35.0, 0.1, cfg, check_dt_halving=False)
    assert math.isfinite(r.mc_error_term) and math.isfinite(r.mc_se)
    assert 0.0 < r.mc_se < r.mc_error_term
    assert r.passed == (r.ratio_gap < 3.0 * r.mc_se)


def test_two_route_value_agreement():
    prefs = Preferences(p=-1.0)
    ko = validate(KimOmbergParams(**KO_SET), prefs)
    he = validate(HestonParams(**HESTON_SET), prefs)
    for m, scheme in [(ko, "exact_gaussian"), (he, "full_truncation_euler")]:
        cfg = SimConfig(T=2.0, n_steps=400, n_paths=40000, seed=71, scheme=scheme)
        v_hat, se, _ = simulate_phat_value(m, None, 2.0, cfg)
        v_cl = va.dual_value(m, None, 2.0).v
        assert abs(v_hat - v_cl) < 3.0 * se


def test_phat_value_t0_exact(ko_model, ou_model):
    for m in (ko_model, ou_model):
        cfg = SimConfig(T=0.0, n_steps=10, n_paths=150, seed=5,
                        scheme="exact_gaussian")
        v, se, _ = simulate_phat_value(m, None, 0.0, cfg)
        assert v == 1.0 and se == 0.0


def test_mc_bump_mu_zero_m_bar_insensitive():
    m = validate(KimOmbergParams(**{**KO_SET, "mu": 0.0}), Preferences(p=-1.0))
    cfg = SimConfig(T=2.0, n_steps=200, n_paths=5000, seed=13,
                    scheme="exact_gaussian")
    est, se = mc_bump_sensitivity(m, None, 2.0, "m_bar", 1e-4, cfg)
    assert est == pytest.approx(0.0, abs=max(3.0 * se, 1e-10))


def test_mc_bump_chi_matches_closed_form(ko_model):
    cfg = SimConfig(T=10.0, n_steps=800, n_paths=40000, seed=37,
                    scheme="exact_gaussian")
    est, se = mc_bump_sensitivity(ko_model, None, 10.0, "chi", 1e-4, cfg)
    cols = co.closed_path(ko_model, 10.0)
    closed = -cols["beta"] * ko_model.params.chi - cols["gamma"]
    assert abs(est - closed) < 3.0 * se


def test_mc_bump_state_step_shrinks_into_the_domain(heston_model):
    # chi = 0.09: a 0.1 bump would start the down leg at chi = -0.01, outside
    # the Heston domain, so the step shrinks to 0.01 as a parameter bump's does
    cfg = SimConfig(T=1.0, n_steps=100, n_paths=2000, seed=1,
                    scheme="full_truncation_euler")
    assert mc_bump_sensitivity(heston_model, None, 1.0, "chi", 0.1, cfg) == \
        mc_bump_sensitivity(heston_model, None, 1.0, "chi", 0.01, cfg)


def test_ou_complete_growth_trend(ou_model):
    lam = eigenpair(ou_model).lam
    cfg = SimConfig(T=40.0, n_steps=1500, n_paths=30000, seed=41,
                    scheme="exact_gaussian")
    v, _, _ = simulate_phat_value(ou_model, None, 40.0, cfg)
    growth = -math.log(v) / 40.0
    assert abs(growth - lam) < 0.10 * lam


def test_scheme_model_mismatch_rejected(ko_model, heston_model):
    cfg = SimConfig(T=1.0, n_steps=100, n_paths=200, seed=1,
                    scheme="full_truncation_euler")
    with pytest.raises(ValueError, match="scheme"):
        _ens(ko_model, cfg)
    cfg2 = SimConfig(T=1.0, n_steps=100, n_paths=200, seed=1,
                     scheme="exact_gaussian")
    with pytest.raises(ValueError, match="scheme"):
        _ens(heston_model, cfg2)
    with pytest.raises(ValueError, match="scheme"):
        simulate_phat_value(heston_model, None, 1.0, cfg2)


@pytest.mark.parametrize("name", ["ko_model", "heston_model", "ou_model"])
def test_default_scheme_is_the_models_first(request, name):
    # a SimConfig without a scheme runs spec.schemes[0], field for field as
    # the config that names it; Heston's is full_truncation_euler
    model = request.getfixturevalue(name)
    cfg = SimConfig(T=1.0, n_steps=50, n_paths=1000, seed=1)
    named = replace(cfg, scheme=model.spec.schemes[0])
    parameter = model.spec.sensitivity_params[0]
    assert mc_bump_sensitivity(model, None, 1.0, parameter, 1e-3, cfg) == \
        mc_bump_sensitivity(model, None, 1.0, parameter, 1e-3, named)
    if model.spec.has_path:
        assert decomposition_check(model, None, 1.0, cfg) == \
            decomposition_check(model, None, 1.0, named)
    else:
        assert simulate_phat_value(model, None, 1.0, cfg) == \
            simulate_phat_value(model, None, 1.0, named)


def test_stability_floor_error(heston_model):
    cfg = SimConfig(T=10.0, n_steps=10, n_paths=200, seed=1,
                    scheme="full_truncation_euler")
    with pytest.raises(ValueError, match="floor"):
        _ens(heston_model, cfg)


def test_soft_step_warning(ko_model):
    cfg = SimConfig(T=10.0, n_steps=40, n_paths=200, seed=1,
                    scheme="exact_gaussian")
    with pytest.warns(UserWarning, match="mean-reversion"):
        _ens(ko_model, cfg)
    # on every route the warning names the first frame outside the package
    routes = [
        lambda: decomposition_check(ko_model, None, 10.0, cfg),
        lambda: si.decomposition_checks(ko_model, None, [10.0], cfg),
        lambda: simulate_phat_value(ko_model, None, 10.0, cfg),
        lambda: mc_bump_sensitivity(ko_model, None, 10.0, "mu", 1e-3, cfg),
        lambda: si.mc_bump_sensitivities(ko_model, None, [10.0], "mu", 1e-3, cfg),
    ]
    for route in routes:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            route()
        steps = [w for w in caught if "mean-reversion" in str(w.message)]
        assert steps and all(w.filename == __file__ for w in steps)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(T=1.0, n_steps=100, n_paths=50, seed=1)
    with pytest.raises(ValueError):
        SimConfig(T=1.0, n_steps=0, n_paths=200, seed=1)
    with pytest.raises(ValueError):
        SimConfig(T=1.0, n_steps=10, n_paths=200, seed=1, scheme="milstein")
    with pytest.raises(ValueError):
        SimConfig(T=-1.0, n_steps=10, n_paths=200, seed=1)
    cfg = SimConfig(T=1.0, n_steps=10, n_paths=200, seed=1)
    assert replace(cfg, T=2.0, seed=3) == SimConfig(T=2.0, n_steps=10, n_paths=200,
                                                    seed=3)
    with pytest.raises(ValueError):
        replace(cfg, n_paths=50)
    # counts are integers: a float or bool is refused, not run or truncated
    for bad in (dict(seed=1.5), dict(seed=True), dict(n_steps=10.0),
                dict(n_paths=1000.0), dict(n_steps=True)):
        with pytest.raises(ValueError, match="must be an integer"):
            replace(cfg, **bad)
    # the horizon is a real number: a bool or a string is refused by name
    for bad in (True, "1"):
        with pytest.raises(ValueError, match="T must be a real number"):
            replace(cfg, T=bad)
    assert replace(cfg, T=2).T == 2 and replace(cfg, T=np.float64(2.5)).T == 2.5


def test_error_term_log_scale_robust():
    # 1/phi(X_T) = exp(900) and exp(int f) = exp(-900) both overflow or
    # vanish on their own (naive product is 0 * inf = nan); the per-path
    # log-space assembly gives the exact finite weights
    from utilsens.eigenpairs import Eigenpair

    ep = Eigenpair(lam=0.0, a2=2.0, a1=0.0)  # log phi(30) = -900
    assert math.exp(-900.0) == 0.0  # the naive factors truly degenerate
    ens = si.PathEnsemble(
        x_T=np.array([30.0, 0.0, 0.0]),
        integral=np.array([-900.0, 0.0, -math.log(2.0)]),
    )
    mean, se = _error_term(ens, ep)
    assert math.isfinite(mean) and math.isfinite(se)
    assert mean == pytest.approx(2.5 / 3.0, rel=1e-12)


def test_decomposition_finite_gates_at_large_state(ko_model):
    # exp of the closed ratio's exponent (and of the largest log-weight)
    # overflows at chi = 45; both are compared on one shifted log scale
    cfg = SimConfig(T=0.1, n_steps=20, n_paths=1000, seed=1)
    r = decomposition_check(ko_model, 45.0, 0.1, cfg)
    assert r.passed is True and r.halved_dt_passed is True
    assert r.mc_error_term == math.inf and r.ratio_gap == math.inf
    assert math.isfinite(r.v_closed)


def test_q_paths_rejects_ou(ou_model):
    cfg = SimConfig(T=1.0, n_steps=10, n_paths=200, seed=1)
    with pytest.raises(UnsupportedModelError):
        decomposition_check(ou_model, None, 1.0, cfg)


def test_dt_halving_flags_visible_bias(heston_model):
    # full truncation at a crude step has visible bias; halving dt must move
    # the estimate by less than 3 combined SE once the step is fine enough
    cfg = SimConfig(T=5.0, n_steps=800, n_paths=30000, seed=83,
                    scheme="full_truncation_euler")
    r = decomposition_check(heston_model, None, 5.0, cfg, check_dt_halving=True)
    assert r.halved_dt_passed is not None
    assert r.halved_dt_gap < 3.0 * r.halved_dt_combined_se
