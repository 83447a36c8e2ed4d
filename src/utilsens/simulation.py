"""Monte Carlo simulation of the measure-changed factor dynamics.

Two discretizations cover all supported runs:

* affine-Gaussian: the decomposition and value-representation dynamics of the
  Kim-Omberg factor (and the complete-market price) are linear SDEs with
  time-dependent coefficients, so each step draws from the exact Gaussian
  transition with the coefficients frozen at the step midpoint (scheme
  ``exact_gaussian``), or does a plain Euler step (scheme ``euler``);
* full-truncation Euler for the square-root Heston factor, which evaluates
  drift and diffusion at the positive part of the state and so keeps the
  reported path nonnegative (scheme ``full_truncation_euler``).  The
  positive part is kept from the end of one step to the next, and Heston's
  exponent integrand, linear in the state, is one product per step: 14
  array passes per leg-step (see ``_stepper``).

A ``SimConfig`` without a scheme runs the model's default, the first of
its ``spec.schemes``.

Noise is counter-based and antithetic.  Paths 2k and 2k + 1 form pair k <
P = ceil(n_paths / 2); at step j the pair reads the Philox word j * P + k,
one uniform per word mapped to a normal z by the inverse CDF, and path 2k
takes +z while its mirror path 2k + 1 takes -z (at odd n_paths the last path
has no mirror).  So a pass computes P normals per step, and results are
bit-identical for any worker count or path blocking.  Every standard error
is taken over pair means: a pair is one cluster, an unpaired path another.
Each path block reads its words through one generator (``BlockStream``) for
the whole run, moved only when it is not already at the block's next word.
A block's rows come in runs of steps: a row shorter than _BLOCK is computed
_BLOCK // size steps at a time, one read per row and then one
``np.maximum``, one ``ndtri`` and one ``np.negative`` over the run, in the
stream's one buffer of at most max(size, _BLOCK) doubles; a longer row is a
run of one step.  How the steps fall into runs changes no normal.

One engine call steps several legs together on one draw per step and block
(common random numbers), and computes each normal once.  A leg carries its
own model, initial state, horizon and measure and is set up from those and
the step count alone, so its step dt = T / n_steps is its own.  Several
horizons are always one pass: the decomposition and value runs of
``decomposition_checks`` and the bump legs of ``mc_bump_sensitivities``,
whose one-horizon cases are ``decomposition_check``, ``simulate_phat_value``
and ``mc_bump_sensitivity``; each route checks its horizons by the one
horizon rule (``models._check_horizons``) before any work.
A pass runs on min(workers, os.cpu_count()) threads, and its paths are
laid out in blocks by leg-paths and by that thread count (``_block_layout``).
Each thread steps one span of blocks in place, in one workspace of its own
made before the pass: the state, the integral and the integrand of its legs,
and its stream's run of rows of normals.  No result depends on the block
layout or the thread count.
Each share runs under a ufunc buffer of _UFUNC_BUFFER elements, not numpy's
default 8,192: numpy copies an op's rows through its buffer when they hold
at most half of it, which under the default takes in every row of up to
4,096 paths in a step's (legs, 1) column broadcasts and in a run of normals,
and makes the op 2-3 times slower.  The copy changes no number, so neither
does the buffer's size.

The dt-halving leg of a decomposition run has 2 (n_paths // 4) paths at
2 n_steps steps and draws no normals of its own.  Its pair r takes main
pairs 2r and 2r + 1: fine path 2r takes fine steps 2j and 2j + 1 on +z of
those pairs at step j, and its mirror 2r + 1 on their -z, read from the rows
the block's stream already holds.  A fine path's two increments thus come
from two different pairs, never from a pair and its own mirror, whose sum
is 0.  It is stepped in the same engine pass, with the main leg's results
those of a run without halving.

The module owns the simulation grid: a leg of horizon T stepped n times
reads its drift and exponent coefficients on the half-step grid
linspace(0, T, 2 n + 1), taken for a factor model from one read of its closed
path, ``coefficients.closed_path``, at time-to-go T - t.
"""

from __future__ import annotations

import contextvars
import math
import numbers
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtri

from . import coefficients as coeff
from . import valuation
from .eigenpairs import Eigenpair, eigenpair, phi_log
from .models import (
    ConfigError,
    Model,
    _check_horizons,
    bumped_models,
    initial_state,
    validate,
)

SCHEMES = ("exact_gaussian", "euler", "full_truncation_euler")
_BLOCK = 16384  # leg-paths per block of a pass of k main legs, which lays out
# its paths by _BLOCK / k (see _block_layout); no result depends on it
_UFUNC_BUFFER = 64  # numpy's ufunc buffer, in elements, while a pass steps:
# numpy copies an op's operands through its buffer when their rows hold at
# most half of it, which makes a (legs, 1) column broadcast over (legs, size)
# 2-3x slower with the same result, so the buffer stays under twice the
# shortest row of a one-block pass, the 50 dt-halving paths of SimConfig's
# least 100; numpy takes multiples of 16, and 16 to 1,024 run equally fast
_LOG_HEADROOM = 300.0  # terms compared below exp(300) keep finite squares


@dataclass(frozen=True)
class SimConfig:
    T: float
    n_steps: int
    n_paths: int
    seed: int
    scheme: str | None = None  # None: the model's default, spec.schemes[0]

    def __post_init__(self) -> None:
        _check_horizons(self.T)
        for name in ("n_steps", "n_paths", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.n_paths < 100:
            raise ValueError("n_paths must be >= 100")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.scheme is not None and self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")


@dataclass(frozen=True)
class PathEnsemble:
    """Per-path terminal state and accumulated exponent integral."""

    x_T: np.ndarray
    integral: np.ndarray


@dataclass(frozen=True)
class DecompositionResult:
    v_closed: float
    skeleton: float
    mc_error_term: float
    mc_se: float
    ratio_gap: float
    passed: bool
    halved_dt_error_term: float | None = None
    halved_dt_gap: float | None = None
    halved_dt_combined_se: float | None = None
    halved_dt_passed: bool | None = None
    seed: int = 0


class BlockStream:
    """The Philox words of one path block, read forward through one generator.

    ``read(word, size)`` returns the uniforms of words [word, word + size).  The
    generator moves only when it is not already at ``word``: it discards the
    rest of a 4-word Philox block, or advances its counter over whole blocks.
    A read behind the current position starts a fresh generator.

    ``normals(words, size)`` is a run of antithetic rows of ``size`` paths,
    one per entry of ``words``, the word of the row's first pair: row r holds
    the normals z of words [words[r], words[r] + ceil(size / 2)), one uniform
    each, then -z of the first size // 2 of them.  Each row's uniforms come
    from one read, and one ``np.maximum``, one ``ndtri`` and one
    ``np.negative`` map the whole run, so a run of short rows costs a few
    calls, not a few per row.  The rows are filled in place in the stream's
    buffer, made for ``size`` doubles and grown when a longer run is asked
    for, and handed back as a read-only (len(words), size) view of it, valid
    until the next run.  Asked again for the run it holds, the stream
    returns that view and neither reads nor computes anything.
    """

    def __init__(self, seed: int, size: int = 0) -> None:
        self._seed = seed
        self._word = -1  # next word of the generator; -1 before the first read
        self._buf = np.empty(size)
        self._held = (None, 0, None)  # (words, size, rows) of the last run

    def read(self, word: int, size: int, out: np.ndarray | None = None) -> np.ndarray:
        if word < self._word or self._word < 0:
            self._bg = Philox(key=self._seed)
            self._gen = Generator(self._bg)
            self._word = 0
        gap = word - self._word
        if gap >= 4:
            # the counter stands at ceil(self._word / 4); advance empties the buffer
            self._bg.advance(word // 4 - (self._word + 3) // 4)
            gap = word % 4
        if gap:
            self._bg.random_raw(gap)
        self._word = word + size
        return self._gen.random(size, out=out)

    def normals(self, words: range, size: int) -> np.ndarray:
        if self._held[:2] != (words, size):
            if self._buf.size < len(words) * size:
                self._buf = np.empty(len(words) * size)
            rows = self._buf[:len(words) * size].reshape(len(words), size)
            pairs = (size + 1) // 2
            z = rows[:, :pairs]
            for word, row in zip(words, z):
                self.read(word, pairs, out=row)
            # u = 0 would map to -inf; nudge the (2^-53-probability) exact zero
            np.maximum(z, 2.0**-54, out=z)
            ndtri(z, out=z)
            np.negative(z[:, :size // 2], out=rows[:, pairs:])
            rows.flags.writeable = False
            self._held = (words, size, rows)
        return self._held[2]


def normals_for(stream: BlockStream, n_paths: int, steps: range, lo: int,
                hi: int) -> np.ndarray:
    """Standard normals for paths [lo, hi) at each of ``steps``, lo even,
    read through ``stream``, the block's generator, reused from run to run:
    one row per step, (len(steps), hi - lo).

    Pair k < P = ceil(n_paths / 2) holds paths 2k and 2k + 1 and reads word
    step * P + k, one uniform per word.  A step's row is the block's [z, -z]:
    z of its pairs [lo / 2, ceil(hi / 2)) for paths lo, lo + 2, ..., then -z
    for their mirrors lo + 1, lo + 3, ... (a last path without a mirror has
    no -z), filled in place in the stream's buffer and valid until the
    stream's next run.  The normals depend only on the stream's seed,
    whatever the stream read before or how the steps are split into runs,
    and a repeat of the stream's last run returns the rows it holds.
    """
    if lo % 2:
        raise ValueError("a path block starts at the first path of a pair")
    P = (n_paths + 1) // 2
    return stream.normals(range(steps.start * P + lo // 2, steps.stop * P + lo // 2,
                                steps.step * P), hi - lo)


class _Leg(NamedTuple):
    """One engine leg: ``model`` started at state ``chi`` and integrated over
    [0, T] under ``measure``; with ``halving``, a dt-halving leg rides along."""

    model: Model
    chi: float
    T: float
    measure: str
    halving: bool = False


def _block_layout(n_paths: int, block: int, threads: int) -> list[tuple[int, int]]:
    """Evenly sized path blocks [lo, hi) for a pass on ``threads`` threads: a
    pass of at most ``block`` paths is one block, a larger one the fewest
    blocks of at most 4 ``block`` paths whose count is a multiple of
    ``threads``, so each thread steps one long span of paths.  Every block but
    the last holds a multiple of 4 paths, so no antithetic pair and no pair of
    pairs of the dt-halving leg straddles two blocks."""
    count = 1
    if n_paths > block:
        count = threads * -(-n_paths // (4 * block * threads))
    block = 4 * -(-n_paths // (4 * count))
    return [(lo, min(lo + block, n_paths)) for lo in range(0, n_paths, block)]


def _interleave(out: np.ndarray, row: np.ndarray) -> None:
    """Write a block's results, held as [paths on +z, their mirrors on -z],
    into ``out`` in path order: a pair's two paths side by side."""
    half = (row.shape[-1] + 1) // 2
    out[..., 0::2] = row[..., :half]
    out[..., 1::2] = row[..., half:]


def _run_blocks(kernel, workspace, n_paths: int, block: int,
                workers: int | None) -> None:
    """Step the blocks of ``_block_layout`` on min(workers, os.cpu_count())
    threads: ``kernel(ws, lo, hi)`` steps paths [lo, hi) in the workspace
    ``ws = workspace(size)``, made for blocks of up to ``size`` paths.  Each
    thread steps one share, a span of consecutive blocks, one after another
    in one workspace.  The workspaces are made in the calling thread, before
    any block is stepped, and each share runs in its own copy of the calling
    thread's context, so numpy's error state (``np.errstate``) holds on every
    thread as it does on the caller.

    A share runs under numpy's ufunc buffer of _UFUNC_BUFFER elements, set
    inside ``np.errstate()``, the scope numpy ties it to, so the caller's
    buffer and error state come back when the share ends.  Under numpy's
    default buffer of 8,192 each row of at most 4,096 paths in a step's
    column broadcasts and a run's ``np.maximum``, ``ndtri`` and
    ``np.negative`` would be copied through it; under this one every row of
    more than 32 paths runs in place.  Buffering only copies operands, the
    kernel takes no reduction and every table is float64, so no result
    depends on the buffer.
    """
    threads = min(workers or 1, os.cpu_count() or 1)
    blocks = _block_layout(n_paths, block, threads)
    per = -(-len(blocks) // threads)
    shares = [blocks[i:i + per] for i in range(0, len(blocks), per)]
    spaces = [workspace(blocks[0][1]) for _ in shares]

    def run(share, ws) -> None:
        with np.errstate():
            np.setbufsize(_UFUNC_BUFFER)
            for lo, hi in share:
                kernel(ws, lo, hi)

    if len(shares) == 1:
        run(shares[0], spaces[0])
        return
    contexts = [contextvars.copy_context() for _ in shares]
    with ThreadPoolExecutor(max_workers=len(shares)) as pool:
        list(pool.map(lambda c, share, ws: c.run(run, share, ws),
                      contexts, shares, spaces))


def _affine_gaussian_tables(c0m, c1m, sigma, dt):
    """Per-step (decay, shift, sd) of the exact frozen-coefficient transition."""
    z = c1m * dt
    decay = np.exp(-z)
    safe = np.where(np.abs(z) < 1e-14, 1.0, c1m)
    psi = np.where(np.abs(z) < 1e-14, dt, -np.expm1(-z) / safe)
    psi2 = np.where(np.abs(z) < 1e-14, dt, -np.expm1(-2.0 * z) / (2.0 * safe))
    return decay, c0m * psi, sigma * np.sqrt(psi2)


def _coefficients(model: Model, T: float, steps: int, measure: str):
    """(c0, c1, g2, g1, g0) on the half-step grid linspace(0, T, 2 steps + 1).

    The factor drift is c0 - c1 x and the accumulated exponent integrand
    g2 x^2 + g1 x + g0: the tilt rate f under measure "q", the value
    exponent under "phat".  A factor model reads its closed path once, at
    time-to-go T - t.
    """
    times = np.linspace(0.0, T, 2 * steps + 1)
    beta = gamma = None
    if model.spec.has_path:
        path = coeff.closed_path(model, times)
        beta, gamma = path["beta"][::-1], path["gamma"][::-1]
    ep = eigenpair(model)
    c0, c1 = model.spec.drift(model, ep, measure, beta, gamma)
    g2, g1, g0 = model.spec.exponent(model, ep, measure, times, beta, gamma)
    one = np.ones_like(times)
    return c0 * one, c1 * one, g2, g1, g0


def _outside_stacklevel() -> int:
    """The ``stacklevel``, for a ``warnings.warn`` in the calling function,
    of the first frame outside the package, so a warning names the line of
    the code that called into it."""
    frame, level = sys._getframe(1), 1
    while frame and frame.f_globals.get("__name__", "").split(".")[0] == __package__:
        frame, level = frame.f_back, level + 1
    return level


def _tables(leg: _Leg, steps: int, scheme: str):
    """The scheme's per-step tables and the per-node exponent tables
    (t0, t1, t2, g2, g1, g0) of ``leg`` over ``steps`` steps of its horizon,
    after its stability-floor check and step warning."""
    model = leg.model
    c0, c1, g2, g1, g0 = _coefficients(model, leg.T, steps, leg.measure)
    sigma = getattr(model.params, model.spec.vol_field)
    max_rate = float(np.max(np.abs(c1)))
    if scheme in ("euler", "full_truncation_euler"):
        floor = math.ceil(2.0 * leg.T * max_rate)
        if steps < floor:
            raise ConfigError(
                f"n_steps={steps} below the explicit-scheme stability floor "
                f"{floor} (= ceil(2 T max drift rate))"
            )
    if steps < 10.0 * leg.T * max_rate:
        warnings.warn(
            f"n_steps={steps} is below 10 * T * max mean-reversion rate "
            f"(~{10.0 * leg.T * max_rate:.0f}); discretization bias may be visible",
            stacklevel=_outside_stacklevel(),
        )
    if scheme == "exact_gaussian":
        per_step = _affine_gaussian_tables(c0[1::2], c1[1::2], sigma, leg.T / steps)
    else:
        per_step = (c0[0:-1:2], c1[0:-1:2], np.full(steps, sigma))
    return (*per_step, g2, g1, g0)


def _stepper(legs: list[_Leg], tables: list[tuple], steps: int, scheme: str):
    """(workspace, start, step) of ``scheme`` for ``legs`` on their
    ``tables`` (see ``_tables``) over ``steps`` steps of each horizon; the
    state, the integral, the tables and the step columns dt, sqrt(dt) and
    dt / 2 carry a leading leg axis, so each leg keeps its own horizon and
    measure.

    ``workspace(size)`` holds the buffers of blocks of up to ``size`` paths
    per leg: the raw scheme state x, the exponent integral acc, two
    integrand buffers and, under full truncation, the reported path value
    xr = max(x, 0).  ``start(ws, size)`` sets the state (x, xr, acc, g, h) of
    ``size`` paths per leg at t = 0 in ``ws``: acc = 0 and g the integrand
    at the first node, h free.  ``step(j, state, z)`` moves it over step j on
    the normals z in place, h taking the temporaries and then the integrand
    at the step's end, and returns the state with g and h swapped.  Odd
    entries of the half-step drift arrays are the midpoints used by
    exact_gaussian; the exponent integrand is read at the steps + 1 nodes
    and accumulated by the trapezoid rule.

    The tables are read once, here.  Where g2 and g0 are zero on every leg
    (Heston under both measures) the integrand is the one product g1 xr.  At
    a finite state the full form's 0 xr + g1 is g1, and its + 0 can only
    turn a -0 into +0, a sign that no sum into the integral keeps (acc
    starts at +0), so the results are the full form's bit for bit.  A
    full-truncation step thus takes 14 array passes: 4 for the drift, 5 for
    the noise, 1 for xr and 4 for the integrand and its trapezoid.
    """
    # (decay, shift, sd) for exact_gaussian and (c0, c1, sigma) at the step's
    # left end for the Euler schemes; t[j] is the (legs, 1) column of step j,
    # float64 even for an integer parameter, so no step casts an operand
    t0, t1, t2, g2, g1, g0 = (np.stack(col, axis=1, dtype=float)[:, :, None]
                              for col in zip(*tables))
    chi = np.array([[leg.chi] for leg in legs])
    dt = np.array([[leg.T / steps] for leg in legs])
    sqdt = np.sqrt(dt)
    half_dt = 0.5 * dt
    g_start = (g2[0] * chi + g1[0]) * chi + g0[0]
    linear = not (g2.any() or g0.any())
    exact = scheme == "exact_gaussian"
    truncate = scheme == "full_truncation_euler"

    def workspace(size: int) -> np.ndarray:
        return np.empty((5 if truncate else 4, len(legs) * size))

    def start(ws: np.ndarray, size: int):
        x, acc, g, h, *xr = (b[:len(legs) * size].reshape(len(legs), size)
                             for b in ws)
        x[...] = chi
        acc[...] = 0.0
        g[...] = g_start
        return x, np.maximum(x, 0.0, out=xr[0]) if truncate else x, acc, g, h

    def step(j: int, state, z: np.ndarray):
        # full truncation keeps x unclamped but evaluates drift, diffusion and
        # the integrand at the positive part xr, kept from the step before, so
        # the reported path is >= 0.  The updates run in place, in the order
        # of the plain expressions (x + (t0 - t1 x) dt + t2 sqrt(dt) z, and so
        # on), so every path's numbers are theirs and no step allocates
        x, xr, acc, g, h = state
        if exact:
            x *= t0[j]
            x += t1[j]
            x += np.multiply(t2[j], z, out=h)
        else:
            drift = np.multiply(t1[j], xr, out=h)
            np.subtract(t0[j], drift, out=drift)
            drift *= dt
            x += drift
            if truncate:
                noise = np.sqrt(xr, out=h)
                noise *= t2[j]
                noise *= sqdt
                noise *= z
            else:
                noise = np.multiply(t2[j] * sqdt, z, out=h)
            x += noise
            if truncate:
                np.maximum(x, 0.0, out=xr)
        k = 2 * (j + 1)
        g_new = np.multiply(g1[k] if linear else g2[k], xr, out=h)
        if not linear:
            g_new += g1[k]
            g_new *= xr
            g_new += g0[k]
        area = np.add(g, g_new, out=g)
        area *= half_dt
        acc += area
        return x, xr, acc, g_new, area

    return workspace, start, step


def _ensemble(legs: list[_Leg], cfg: SimConfig, workers: int | None
              ) -> tuple[list[PathEnsemble], list[PathEnsemble | None]]:
    """Integrate the SDE and the exponent integral of each leg over its own
    horizon, all legs on the same normals: (main ensembles, dt-halving
    ensembles), one of each per leg, the latter None for a leg without one.

    ``cfg`` gives the paths, steps, seed and scheme (by default the first of
    ``spec.schemes``: every leg of a pass has one kind); ``cfg.T`` is not
    read, as each leg's tables come from the leg at n_steps (2 n_steps for
    its dt-halving leg).  Each step draws one row of normals per path block
    and moves every leg with it, so a leg's results are those of a run of
    that leg alone.  The rows come in runs of ``_BLOCK // size`` steps for a
    block of ``size`` < _BLOCK paths, of one step otherwise (see
    ``BlockStream``), and every leg is moved over a run before the next.  A
    leg at T = 0 is not stepped: its ensemble is every path at its state,
    with no dt-halving leg.  A block's row is [+z, -z] (see
    ``normals_for``), so the legs hold a block's paths as [paths on +z,
    their mirrors]; at the block's end ``_interleave`` writes them in path
    order, a pair side by side.

    A dt-halving leg has 2 (n_paths // 4) paths at 2 n_steps, pair r of them
    on main pairs 2r and 2r + 1 (see the module docstring).  On a row of an
    even number of pairs, z[0::2] is [+z, -z] of the block's even pairs and
    z[1::2] of its odd ones, so fine steps 2j and 2j + 1 read those slices
    of step j's row and the fine leg holds its block as [+, -] halves too.
    A last block with an odd pair or an unpaired path first cuts its rows to
    [+z, -z] of its whole pairs of pairs.

    A pass of k stepped main legs lays out its paths by _BLOCK / k
    (``_block_layout``), so a thread holds at most about as much state as
    one leg does in a block of 4 _BLOCK paths, and no pair of pairs
    straddles two blocks.  Each thread steps its blocks in one workspace
    made before the pass (``_run_blocks``): its stream, whose buffer holds
    the run of rows of normals, and the buffers of the main and the
    dt-halving steppers, reset at each block's start.  Results never depend
    on the block layout or the thread count.
    """
    scheme = cfg.scheme
    for leg in legs:
        scheme = scheme or leg.model.spec.schemes[0]
        if scheme not in leg.model.spec.schemes:
            raise ValueError(
                f"scheme '{scheme}' not supported for {leg.model.kind}; "
                f"allowed: {leg.model.spec.schemes}"
            )
    n, steps = cfg.n_paths, cfg.n_steps
    mains = [PathEnsemble(x_T=np.full(n, leg.chi), integral=np.zeros(n))
             if leg.T == 0.0 else None for leg in legs]
    fines = [None] * len(legs)
    moving = [i for i, leg in enumerate(legs) if leg.T != 0.0]
    if not moving:
        return mains, fines
    halving = [i for i in moving if legs[i].halving]
    main_tables, fine_tables = [], []
    for i in moving:  # each leg's checks and warnings, main step then fine
        main_tables.append(_tables(legs[i], steps, scheme))
        if legs[i].halving:
            fine_tables.append(_tables(legs[i], 2 * steps, scheme))
    workspace, start, step = _stepper([legs[i] for i in moving], main_tables,
                                      steps, scheme)
    if halving:
        fine_workspace, fine_start, fine_step = _stepper(
            [legs[i] for i in halving], fine_tables, 2 * steps, scheme)
    del main_tables, fine_tables  # the steppers hold stacked copies
    n2 = 2 * (n // 4)
    x_T, integral = np.empty((len(moving), n)), np.empty((len(moving), n))
    x_T2, integral2 = np.empty((len(halving), n2)), np.empty((len(halving), n2))

    def worker_space(size: int):
        # the stream's buffer holds one run of rows of the thread's first block
        stream = BlockStream(cfg.seed, max(1, _BLOCK // size) * size)
        return (stream, workspace(size),
                fine_workspace(2 * (size // 4)) if halving else None)

    def kernel(ws, lo: int, hi: int) -> None:
        stream, main_ws, fine_ws = ws
        pairs, fine = (hi - lo + 1) // 2, 2 * ((hi - lo) // 4)
        run = max(1, _BLOCK // (hi - lo))  # steps per run of normals
        s = start(main_ws, hi - lo)
        f = fine_start(fine_ws, fine) if halving else None
        for first in range(0, steps, run):
            js = range(first, min(first + run, steps))
            for j, z in zip(js, normals_for(stream, n, js, lo, hi)):
                s = step(j, s, z)
            if halving:
                # a repeat read computes nothing, but keeps perfbench's traced
                # count of a one-horizon check at one normal per path-step per
                # leg
                rows = normals_for(stream, n, js, lo, hi)
                if fine != pairs:
                    rows = np.concatenate((rows[:, :fine], rows[:, pairs:pairs + fine]),
                                          axis=1)
                for j, z in zip(js, rows):
                    f = fine_step(2 * j, f, z[0::2])
                    f = fine_step(2 * j + 1, f, z[1::2])
        _interleave(x_T[:, lo:hi], s[1])
        _interleave(integral[:, lo:hi], s[2])
        if halving:
            _interleave(x_T2[:, lo // 2:lo // 2 + fine], f[1])
            _interleave(integral2[:, lo // 2:lo // 2 + fine], f[2])

    _run_blocks(kernel, worker_space, n, 4 * max(1, _BLOCK // (4 * len(moving))),
                workers)
    for k, i in enumerate(moving):
        mains[i] = PathEnsemble(x_T=x_T[k], integral=integral[k])
    for k, i in enumerate(halving):
        fines[i] = PathEnsemble(x_T=x_T2[k], integral=integral2[k])
    return mains, fines


def _shifted_error_term(ensemble: PathEnsemble, ep: Eigenpair) -> tuple[float, float, float]:
    """(top, mean, SE) of the weights exp(int f ds - log phi(X_T) - top),
    with top the largest per-path exponent, so the weights lie in (0, 1] and
    neither they nor their squares in the SE overflow."""
    if ensemble.x_T.size == 0:
        raise ValueError("empty ensemble")
    log_w = ensemble.integral - phi_log(ep, ensemble.x_T)
    top = float(np.max(log_w))
    log_w -= top
    return (top, *_mean_se(np.exp(log_w, out=log_w)))


def _times_exp(x: float, s: float) -> float:
    """x * exp(s) for x >= 0, inf where that overflows."""
    try:
        return x * math.exp(s)
    except OverflowError:
        if x == 0.0:
            return 0.0
        with np.errstate(over="ignore"):
            return float(np.exp(s + math.log(x)))


def _mean_se(w: np.ndarray) -> tuple[float, float]:
    """Mean of per-path weights in path order, and its standard error over
    the clusters of antithetic pairs: paths 2k and 2k + 1 are cluster k, and
    at odd size the last path is a cluster of its own.  With every path
    paired the SE is std(pair means, ddof=1) / sqrt(pairs)."""
    mean = float(np.mean(w))
    clusters = (w.size + 1) // 2
    if clusters < 2:
        return mean, 0.0
    dev = w - mean
    sums = dev[0::2]  # each cluster's summed deviation from the mean
    sums[:w.size // 2] += dev[1::2]
    ss = float(np.dot(sums, sums)) * clusters / (clusters - 1)
    return mean, math.sqrt(ss) / w.size


def decomposition_check(model: Model, chi: float | None, T: float, cfg: SimConfig,
                        workers: int | None = None,
                        check_dt_halving: bool = True) -> DecompositionResult:
    """Verify v = exp(-lambda T) phi(chi) E[exp(int f)/phi(X_T)] at 3 SE, and
    to 1e-12 at T = 0, where the ensemble is every path at chi.

    Its SE is taken over antithetic pair means.  The dt-halving gate steps a
    leg of 2 (n_paths // 4) paths at doubled n_steps on the main leg's
    normals, two main pairs giving a fine pair's steps (see ``_ensemble``),
    and requires the error-term shift to stay below 3 combined SE, which
    bounds the scheme's visible bias.

    The closed ratio v e^{lambda T} / phi(chi) and the error terms are
    compared on one scale exp(shift), so the gates see finite numbers at any
    state.  The shift stays 0 until a term would pass exp(_LOG_HEADROOM), so
    results in range are computed as on the plain scale, bit for bit.  A
    reported field out of floating-point range is inf.

    This is the one-horizon case of ``decomposition_checks``.
    """
    return decomposition_checks(model, chi, [T], cfg, workers, check_dt_halving)[0][0]


def decomposition_checks(model: Model, chi: float | None, horizons, cfg: SimConfig,
                         workers: int | None = None, check_dt_halving: bool = True,
                         value_horizons=()
                         ) -> tuple[list[DecompositionResult],
                                    list[tuple[float, float, float]]]:
    """``decomposition_check`` at each of ``horizons`` and
    ``simulate_phat_value`` at each of ``value_horizons``, every leg stepped
    in one engine pass on one draw of normals; ``cfg.T`` is not read.

    Returns (the checks, the (value, SE, ln value) estimates), in the order
    of their horizons.  Each is, bit for bit, what its own call gives at the
    same ``cfg``: the runs read the same Philox words, so computing each
    normal once changes no per-path number.
    """
    _check_horizons(*horizons, *value_horizons)
    chi = initial_state(model, chi)
    ep = eigenpair(model)
    lphi = float(phi_log(ep, chi))
    log_values = [valuation.log_dual_value(model, chi, T) for T in horizons]
    legs = [_Leg(model, chi, T, "q", check_dt_halving) for T in horizons]
    legs += [_Leg(model, chi, T, "phat") for T in value_horizons]
    mains, fines = _ensemble(legs, cfg, workers)
    checks = [_decomposition_result(ep, lphi, lv, T, mains[k], fines[k], cfg.seed)
              for k, (T, lv) in enumerate(zip(horizons, log_values))]
    return checks, [_value_estimate(e.integral) for e in mains[len(horizons):]]


def _decomposition_result(ep: Eigenpair, lphi: float, lv: float, T: float,
                          main: PathEnsemble, fine: PathEnsemble | None,
                          seed: int) -> DecompositionResult:
    """The gates of ``decomposition_check`` at horizon T, from ln phi(chi),
    the closed ln v and the main and (if any) dt-halving ensembles."""
    log_ratio = lv + ep.lam * T - lphi
    # (top, mean, SE) of the main run and, if any (T > 0), the halved-dt run
    runs = [_shifted_error_term(e, ep) for e in (main, fine) if e is not None]
    shift = max(0.0, max(log_ratio, *(top for top, _, _ in runs)) - _LOG_HEADROOM)

    def on_scale(run):  # (mean, SE) in units of exp(shift)
        top, mean, s = run
        return mean * math.exp(top - shift), s * math.exp(top - shift)

    mc, se = on_scale(runs[0])
    gap = abs(math.exp(log_ratio - shift) - mc)
    passed = gap <= 1e-12 if T == 0.0 else gap < 3.0 * se
    halved = halved_gap = combined = halved_passed = None
    if len(runs) > 1:
        mc2, se2 = on_scale(runs[1])
        halved_gap = abs(mc - mc2)
        combined = math.sqrt(se**2 + se2**2)
        halved_passed = halved_gap < 3.0 * combined
        passed = passed and halved_passed
        top2, mean2, _ = runs[1]
        halved = _times_exp(mean2, top2)
        halved_gap, combined = _times_exp(halved_gap, shift), _times_exp(combined, shift)
    top, mean, s = runs[0]
    return DecompositionResult(
        v_closed=_times_exp(1.0, lv), skeleton=_times_exp(1.0, -ep.lam * T + lphi),
        mc_error_term=_times_exp(mean, top), mc_se=_times_exp(s, top),
        ratio_gap=_times_exp(gap, shift), passed=bool(passed),
        halved_dt_error_term=halved, halved_dt_gap=halved_gap,
        halved_dt_combined_se=combined, halved_dt_passed=halved_passed,
        seed=seed,
    )


def _log_mean_exp(l: np.ndarray) -> float:
    """ln mean(exp(l)), shifted by max(l) so that it stays finite where every
    exp(l) underflows."""
    top = float(np.max(l))
    return top + math.log(float(np.mean(np.exp(l - top))))


def _value_estimate(integral: np.ndarray) -> tuple[float, float, float]:
    """(mean, SE, log-mean-exp) of the per-path value weights exp(integral)."""
    return (*_mean_se(np.exp(integral)), _log_mean_exp(integral))


def simulate_phat_value(model: Model, chi: float | None, T: float, cfg: SimConfig,
                        workers: int | None = None) -> tuple[float, float, float]:
    """Monte Carlo estimate (value, SE, ln value) of the dual value at horizon T.

    The log is a log-mean-exp of the per-path exponents, so it stays finite
    where the value itself underflows to 0.  This is the second,
    measure-changed route to the dual value; for the complete-market model it
    is the only finite-horizon route.  This is the one-horizon case of
    ``decomposition_checks``.
    """
    return decomposition_checks(model, chi, (), cfg, workers, value_horizons=[T])[1][0]


def mc_bump_sensitivity(model: Model, chi: float | None, T: float, parameter: str,
                        h: float, cfg: SimConfig,
                        workers: int | None = None) -> tuple[float, float]:
    """Central log-difference of the MC value under a parameter bump: the
    one-horizon case of ``mc_bump_sensitivities``."""
    return mc_bump_sensitivities(model, chi, [T], parameter, h, cfg, workers)[0]


def mc_bump_sensitivities(model: Model, chi: float | None, horizons, parameter: str,
                          h: float, cfg: SimConfig, workers: int | None = None
                          ) -> list[tuple[float, float]]:
    """(d ln v / d parameter, SE) at each of ``horizons``, the up and down
    legs of every horizon stepped in one engine pass on one draw of Gaussian
    increments; ``cfg.T`` is not read.  Common random numbers make the
    finite-difference noise scale with the bump response, not with the
    absolute value level.

    The legs come from ``models.bumped_models``.  A state bump (``chi`` or
    the state field) bumps the model revalidated with its state set to
    ``chi``, so a leg outside the state's domain shrinks the step once by
    10x or raises, as an inadmissible parameter bump does.
    """
    _check_horizons(*horizons)
    chi = initial_state(model, chi)
    state = model.spec.state_field
    if parameter in ("chi", state):
        model = validate(replace(model.params, **{state: chi}), model.prefs)
        chi = None  # each leg starts at its own bumped state
    up, dn, h = bumped_models(model, parameter, h)
    legs = [_Leg(leg, initial_state(leg, chi), T, "phat")
            for T in horizons for leg in (up, dn)]
    integrals = [e.integral for e in _ensemble(legs, cfg, workers)[0]]
    estimates = []
    for l_up, l_dn in zip(integrals[0::2], integrals[1::2]):
        # ln of each leg's mean, and the SE from the legs' normalized weights
        m_up, m_dn = _log_mean_exp(l_up), _log_mean_exp(l_dn)
        _, se = _mean_se(np.exp(l_up - m_up) - np.exp(l_dn - m_dn))
        estimates.append(((m_up - m_dn) / (2.0 * h), se / (2.0 * h)))
    return estimates
