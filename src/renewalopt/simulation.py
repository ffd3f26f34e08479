"""Slotted-time simulation of N asynchronous renewal systems.

Every system starts its first frame at slot 0 and a new frame the slot after
its previous frame ends, so the systems drift out of phase.  ``run`` takes
the slots in order and does in them only what Q needs.  In slot t the
systems that start a frame there, in index order, each pick an action
against Q[t], take the next frame of their (system, action) stream and lay
its metrics on z (its row on its slice, its impulse on one entry).  Then the
queue takes one step, Q[t+1] = max{Q[t] + sum_n z^n[t] - d[t], 0}, through
``controller.queue_step`` on Python floats, in the order of the numpy
reference in ``tests/conftest.py``, so trajectories match it bit for bit.
After the loop numpy builds each system's frame columns from its actions and
its streams' blocks, and y[t] adds the rates of the frames covering t, one
system at a time in index order, each system's rates repeated over its slots.

A drift-plus-penalty decision depends only on (model, Q[t], V), so it is made
once per (model object, slot): ``ratio_objectives`` builds its objective list
at Q[t] and the solver reads it for every system of that model starting a
frame then.  Given its action a frame is
i.i.d., so system n plays action a's frames from their own stream,
SeedSequence(seed, spawn_key=(0, n, a)), drawn FRAME_BLOCK frames per
``core.sample_frame`` call: the j-th frame system n plays under action a is
the same whatever V, solver or policy chose it.  Stationary actions come from
spawn_key=(0, n) and d from (1,): adding systems never perturbs other streams.
A ``SamplePath`` holds one seed's d and streams, drawn on first use and
replayed from the start by every run given it, so the cells of a V sweep
draw them once.

``run`` returns a ``RunTrace``, the whole record of the run; every analysis
below is a function of it alone, and the per-frame ones read one table over
its recorded frame columns: no analysis draws a frame again.

``check_trace`` is one such analysis: it verifies a finished trace, asserting
the exact invariants of ``--check`` and naming the first offending slot and system.
"""

from __future__ import annotations

import math
import operator
from array import array
from bisect import bisect_right
from collections import namedtuple
from dataclasses import dataclass, field
from itertools import chain, count, repeat
from typing import Iterator, Sequence

import numpy as np

from .controller import queue_step, ratio_bound_holds, ratio_objectives
from .controller import solve_bisection, solve_enumerate
from .core import PerformanceVector, RenewalSystemModel, exceeds_bounds, sample_frame

__all__ = [
    "CappedPoisson",
    "ExternalProcess",
    "DppRatioPolicy",
    "RandomizedStationaryPolicy",
    "CheckViolation",
    "SamplePath",
    "RunTrace",
    "run",
    "queue_trajectory",
    "check_trace",
    "FrameStats",
    "frame_stats",
    "drift_diagnostic",
]


# external i.i.d. slot process


@dataclass(frozen=True)
class CappedPoisson:
    """Poisson(rate) clipped at cap = ceil(rate + 10 sqrt(rate)); scale=-1 flips every draw.

    The clip keeps |d[t]| bounded as the analysis assumes; the clipped mass is
    below 1e-10 for the rates used here, so the stated mean ignores the bias.
    """

    rate: float
    scale: float = 1.0
    cap: int = field(init=False)

    def __post_init__(self):
        if not self.rate > 0:
            raise ValueError("rate must be positive")
        object.__setattr__(self, "cap", math.ceil(self.rate + 10.0 * math.sqrt(self.rate)))

    @property
    def mean(self) -> float:
        return self.scale * self.rate

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.scale * np.minimum(rng.poisson(self.rate, size=n), self.cap).astype(float)


@dataclass(frozen=True, eq=False)
class ExternalProcess:
    """Independent per-constraint slot distributions, i.i.d. across slots."""

    coords: tuple

    def __post_init__(self):
        coords = tuple(self.coords)
        object.__setattr__(self, "coords", coords)
        if not coords:
            raise ValueError("need at least one coordinate")

    @property
    def n_metrics(self) -> int:
        return len(self.coords)

    def sample_matrix(self, rng: np.random.Generator, slots: int) -> np.ndarray:
        return np.column_stack([c.sample_array(rng, slots) for c in self.coords])


# policies


@dataclass(frozen=True)
class DppRatioPolicy:
    """Minimize (V*y_hat + <Q, z_hat>)/t_hat at every frame start."""

    v: float
    solver: str = "enumerate"

    def __post_init__(self):
        object.__setattr__(self, "v", float(self.v))
        if not 0 < self.v < math.inf:
            raise ValueError("V must be positive and finite")
        if self.solver not in ("enumerate", "bisection"):
            raise ValueError('solver must be "enumerate" or "bisection"')


@dataclass(frozen=True, eq=False)
class RandomizedStationaryPolicy:
    """Draw each frame's action i.i.d. from fixed per-system weights."""

    weights: tuple[np.ndarray, ...]

    def __post_init__(self):
        cleaned, cdfs = [], []
        for w in self.weights:
            arr = np.array(w, dtype=float).reshape(-1)
            if np.any(arr < -1e-9):
                raise ValueError("weights must be nonnegative")
            arr = np.maximum(arr, 0.0)
            total = arr.sum()
            if not np.isclose(total, 1.0, atol=1e-6):
                raise ValueError("weights must sum to 1 per system")
            arr /= total
            arr.flags.writeable = False
            cleaned.append(arr)
            # Generator.choice's table: the running sum over its last entry
            cdf = arr.cumsum()
            cdfs.append((cdf / cdf[-1]).tolist())
        object.__setattr__(self, "weights", tuple(cleaned))
        object.__setattr__(self, "_cdfs", tuple(cdfs))

    def draw_action(self, n: int, rng: np.random.Generator) -> int:
        """System n's action, as rng.choice(actions, p=weights[n]) draws it.

        The same random() double searched in the same table, so the index
        and the generator's state match choice's, without its per-call checks.
        """
        return bisect_right(self._cdfs[n], rng.random())


class CheckViolation(Exception):
    """An exact invariant failed on a finished trace, as ``check_trace`` found it."""


# frames drawn per sampler call from one (system, action) stream
FRAME_BLOCK = 64


def _count(name: str, value) -> int:
    """value as an int if it is an integer >= 1 (numpy integers pass), else ValueError."""
    n = operator.index(value) if hasattr(type(value), "__index__") else 0
    if n < 1:
        raise ValueError(f"{name} must be >= 1 and an integer, got {value!r}")
    return n


def _generator(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


class SamplePath:
    """One seed's d and (system, action) frame streams, as read-only arrays.

    Making it draws nothing and seeds no generator: d is drawn when a run first
    reads it, and a stream's blocks, through ``sample_frame``, when a run first
    reads past those drawn.  Every run given the path replays it from the start.
    """

    def __init__(self, models: Sequence[RenewalSystemModel], external, slots: int, seed: int):
        slots = _count("slots", slots)
        self.models, self.external, self.slots, self.seed = tuple(models), external, slots, seed
        self._d = None
        self._generators = {}  # (system, action) -> its stream's generator
        self.blocks = [[[] for _ in range(m.n_actions)] for m in self.models]  # drawn so far

    @property
    def d(self) -> np.ndarray:
        if self._d is None:
            self._d = self.external.sample_matrix(_generator(self.seed, 1), self.slots)
            self._d.setflags(write=False)
        return self._d

    def frames(self, n: int, a: int):
        """Stream (n, a)'s frames from its first, as (length, offset, metric, z): z is the
        impulse value, or a row frame's metric row (offset and metric -1)."""
        blocks = self.blocks[n][a]
        for i in count():
            if i == len(blocks):  # no run has read this far: draw FRAME_BLOCK more
                if not blocks:
                    self._generators[n, a] = _generator(self.seed, 0, n, a)
                frames = sample_frame(self.models[n], a, self._generators[n, a], FRAME_BLOCK)
                rows = (frames.metric_rate,) if frames.impulse is None else frames.impulse[::2]
                for column in (frames.length, frames.penalty_rate, *rows):
                    column.setflags(write=False)
                blocks.append(frames)
            frames = blocks[i]
            if frames.impulse is None:
                offsets, l, z = repeat(-1), -1, frames.metric_rate.tolist()
            else:
                offsets, l, z = frames.impulse
                offsets, z = offsets.tolist(), z.tolist()
            yield from zip(frames.length.tolist(), offsets, repeat(l), z)


# the engine


@dataclass(frozen=True, eq=False)
class RunTrace:
    """The whole record of one run; every reported number is a function of it.

    models, process, policy and seed are what ``run`` was given.  penalty[t]
    and metrics[t] are the slot-t sums over systems of y and z, external[t]
    is d[t] (the sample path's read-only array, shared by the runs of one
    seed), and queues[t] is Q[t] for t = 0..slots, zero first and the final
    queue last: 8 * (1 + 3L) bytes per slot.  frames[n] is system n's frame
    log, one (start, length, action) int64 row per frame in order; the last
    may end past the horizon, which cuts its y and z short.  Row k of
    frame_rates[n], impulse_slots[n] (-1 for a row) and frame_metrics[n] (the
    row, or zeros but for the impulse) is that frame: 8 * (5 + L) bytes.
    """

    models: tuple[RenewalSystemModel, ...]
    process: ExternalProcess
    policy: DppRatioPolicy | RandomizedStationaryPolicy
    seed: int
    penalty: np.ndarray
    metrics: np.ndarray
    external: np.ndarray
    queues: np.ndarray
    frames: tuple[np.ndarray, ...]
    frame_rates: tuple[np.ndarray, ...]
    impulse_slots: tuple[np.ndarray, ...]
    frame_metrics: tuple[np.ndarray, ...]

    @property
    def slots(self) -> int:
        return self.penalty.shape[0]

    @property
    def frames_per_system(self) -> np.ndarray:
        return np.array([log.shape[0] for log in self.frames])

    @property
    def avg_penalty(self) -> float:
        return float(self.penalty.sum()) / self.slots

    @property
    def avg_metrics(self) -> np.ndarray:
        return self.metrics.sum(axis=0) / self.slots

    @property
    def avg_queues(self) -> np.ndarray:
        """sum_{t<slots} Q[t], added in slot order, over slots."""
        for _, sums in _running_sums(self.queues[:-1]):
            pass
        return sums[-1] / self.slots


_CHUNK = 8192
_ROWS = 256


def _running_sums(
    x: np.ndarray, minus: np.ndarray | None = None
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (start, S) per chunk of rows, S[i] = sum_{s<=start+i} (x[s] - minus[s]).

    The rows are added in order, carrying the last sum into the next chunk,
    so S has the bits of the full np.cumsum without its full-size temporary.
    """
    carry = None
    for start in range(0, x.shape[0], _CHUNK):
        stop = start + _CHUNK
        block = np.array(x[start:stop]) if minus is None else x[start:stop] - minus[start:stop]
        if carry is not None:
            block[0] += carry
        np.cumsum(block, axis=0, out=block)
        carry = block[-1]
        yield start, block


def _frame_columns(actions: array, blocks: list, n_metrics: int) -> tuple[np.ndarray, ...]:
    """One system's frame log and rate, impulse-slot and metric columns.

    Its j-th frame under action a is frame j of the blocks[a] its stream
    drew, and the frames start back to back from slot 0.
    """
    acts = np.frombuffer(actions, dtype=np.int64)
    log = np.zeros((acts.shape[0], 3), dtype=np.int64)  # start, length, action
    log[:, 2] = acts
    rate, at = np.empty(acts.shape[0]), np.full_like(acts, -1)  # at: offset until the end
    metrics = np.zeros((acts.shape[0], n_metrics))
    for a, drawn in enumerate(blocks):
        mine = np.flatnonzero(acts == a)
        # the path may hold more blocks than this run read
        for i, frames in zip(range(0, mine.shape[0], FRAME_BLOCK), drawn):
            sel = mine[i : i + FRAME_BLOCK]
            k = sel.shape[0]
            log[sel, 1], rate[sel] = frames.length[:k], frames.penalty_rate[:k]
            if frames.impulse is None:
                metrics[sel] = frames.metric_rate[:k]
            else:
                offsets, l, values = frames.impulse
                at[sel], metrics[sel, l] = offsets[:k], values[:k]
    np.cumsum(log[:-1, 1], out=log[1:, 0])
    np.add(at, log[:, 0], out=at, where=at >= 0)
    return log, rate, at, metrics


def _penalty_series(logs: Sequence[np.ndarray], rates: Sequence[np.ndarray], slots: int):
    """y[t]: 0.0 plus the rates of the frames covering t, one system at a time in
    index order; a last frame past the horizon is cut at it, never laid out whole."""
    y = np.zeros(slots)
    for log, rate in zip(logs, rates):
        y += np.repeat(rate, np.minimum(log[:, 1], slots - log[:, 0]))
    return y


def trace_bytes(models: Sequence[RenewalSystemModel], slots: int, cells: int) -> int:
    """The bytes ``run`` holds at most over ``slots``, one of ``cells`` runs sharing a path,
    at f = ceil(slots / min t_hat) frames a system a run: the ``RunTrace`` and y's repeat,
    8 a slot; the columns of one more system, for the actions and temporaries of the one
    being built; the path's blocks, 8 * (5 + L) a frame with their objects: a run reads f
    frames of system n, so the cells read at most min(A_n, cells) * f, plus a partly read
    block a stream; and in the loop a pending block a stream, 8 * (24 + L) a frame as lists."""
    n_metrics, streams = models[0].n_metrics, sum(m.n_actions for m in models)
    frames = -(-slots // min(float(m.t_hats.min()) for m in models))
    blocks = sum(min(m.n_actions, cells) for m in models) * frames + streams * FRAME_BLOCK
    need = 8 * (2 + 3 * n_metrics) * slots + 8 * (5 + n_metrics) * (len(models) + 1) * frames
    return need + 8 * (5 + n_metrics) * blocks + 8 * streams * (24 + n_metrics) * FRAME_BLOCK


def run(
    models: Sequence[RenewalSystemModel],
    external: ExternalProcess,
    policy,
    slots: int,
    seed: int,
    *,
    path: SamplePath | None = None,
) -> RunTrace:
    """Simulate all systems for the given number of slots.

    Deterministic given (models, external, policy, slots, seed).  Each slot
    decides and lays down the frames starting there, then steps Q once.
    Frames past the horizon lay down only their in-horizon slots.  d and the
    frames come from ``path``, a ``SamplePath`` of the same models, external
    process, slots and seed (else ValueError); without one the run makes its own.
    """
    models = tuple(models)
    n_sys = len(models)
    if n_sys == 0:
        raise ValueError("need at least one system")
    n_metrics = external.n_metrics
    if any(m.n_metrics != n_metrics for m in models):
        raise ValueError("all systems must share the external process dimension")
    slots = _count("slots", slots)

    stationary = isinstance(policy, RandomizedStationaryPolicy)
    if isinstance(policy, DppRatioPolicy):
        v = policy.v
        solve = solve_enumerate if policy.solver == "enumerate" else solve_bisection
    elif stationary:
        if len(policy.weights) != n_sys:
            raise ValueError("one weight vector per system required")
        for w, m in zip(policy.weights, models):
            if w.shape[0] != m.n_actions:
                raise ValueError("weight length must match the system's action count")
    else:
        raise TypeError(f"unknown policy type {type(policy).__name__}")

    if path is None:
        path = SamplePath(models, external, slots, seed)
    built = path.models, path.external, path.slots, path.seed
    for what, mine, given in zip(("models", "an external process", "slots", "a seed"), built,
                                 (models, external, slots, seed)):
        if mine != given:  # models and external processes compare by identity
            raise ValueError(f"the sample path was built for {what} other than the run's")

    action_rngs = [_generator(seed, 0, n) for n in range(n_sys)] if stationary else None
    d_arr = path.d
    frame_streams = [[path.frames(n, a) for a in range(m.n_actions)] for n, m in enumerate(models)]

    # item assignment and fromlist reach the buffers without a numpy call
    z_buf = array("d", [0.0]) * (slots * n_metrics)
    z_arr = np.frombuffer(z_buf).reshape(slots, n_metrics)
    q_buf = array("d", [0.0]) * n_metrics  # Q[0], then one row per slot stepped
    # d's rows as lists, converted _ROWS slots at a time
    d_rows = chain.from_iterable(d_arr[i : i + _ROWS].tolist() for i in range(0, slots, _ROWS))
    actions = [array("q") for _ in range(n_sys)]  # per system, the action of each frame
    starting = {0: list(range(n_sys))}  # frame-start slot -> systems starting there
    q = q_buf.tolist()  # Q[t] as a list, the form the ratio kernel reads

    for t, d_row in zip(range(slots), d_rows):
        if t in starting:
            decided = {}  # this slot's decisions, keyed by model object
            for n in sorted(starting.pop(t)):
                model = models[n]
                if stationary:
                    idx = policy.draw_action(n, action_rngs[n])
                else:
                    idx = decided.get(model)
                    if idx is None:
                        idx = decided[model] = solve(ratio_objectives(model, q, v))
                length, offset, l, z = next(frame_streams[n][idx])
                if offset < 0:
                    z_arr[t : t + length] += z
                # FrameOutcome keeps the offset and sample_frame the metric in range
                elif t + offset < slots:
                    z_buf[(t + offset) * n_metrics + l] += z
                actions[n].append(idx)
                starting.setdefault(t + length, []).append(n)
        # every frame covering slot t has started, so z[t] is final
        q = queue_step(q, z_buf[t * n_metrics : (t + 1) * n_metrics], d_row)
        q_buf.fromlist(q)

    blocks = list(path.blocks)
    del frame_streams, path  # the streams' pending frames, and a path of the run's own
    # pop: each system's actions, and its blocks if no other run holds the path, are
    # freed once its columns are built
    columns = [_frame_columns(actions.pop(0), blocks.pop(0), n_metrics) for _ in models]
    logs, rates, at, metrics = zip(*columns)
    queues = np.frombuffer(q_buf).reshape(slots + 1, n_metrics)
    series = _penalty_series(logs, rates, slots), z_arr, d_arr, queues
    return RunTrace(models, external, policy, seed, *series, logs, rates, at, metrics)


# analyses of a trace


def queue_trajectory(trace: RunTrace, stride: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(times, queues): Q at every stride-th slot from 0, then Q[slots], the last row.

    The default stride keeps the row count near ten thousand.
    """
    slots = trace.slots
    stride = max(1, -(-slots // 10_000)) if stride is None else _count("stride", stride)
    times = np.append(np.arange(0, slots, stride), slots)
    return times, trace.queues[times]


def check_trace(trace: RunTrace) -> None:
    """Raise CheckViolation at the first exact invariant a finished trace breaks.

    First, by (slot, system), a decision of a dpp_ratio trace that fails its
    certificate (``ratio_bound_holds`` on ``ratio_objectives`` at the recorded Q[t_k],
    each the loop's list bit for bit), else a frame over its declared bounds
    (``core.exceeds_bounds``); then Q[t+1] >= sum_{s<=t}(z[s] - d[s]), exact as both
    sides add the same per-slot deltas in slot order and the queue only clamps upward.
    """
    first = []  # (0 decision | 1 bounds, slot, system, fault) of each system's first faults
    columns = zip(trace.models, trace.frames, trace.frame_rates, trace.frame_metrics)
    for n, (m, log, rate, metrics) in enumerate(columns):
        if isinstance(trace.policy, DppRatioPolicy):  # every decision at once, at Q[starts]
            at_starts = [trace.queues[log[:, 0], l] for l in range(trace.queues.shape[1])]
            at_q = ratio_objectives(m, at_starts, trace.policy.v)
            first += [(0, t, n, f"frame decision at slot {t}, system {n}: the ratio objective "
                       f"of action {a} exceeds another action's")
                      for t, _, a in log[~ratio_bound_holds(at_q, log[:, 2])][:1].tolist()]
        over = exceeds_bounds(rate, metrics, m.y_max, m.z_max)
        first += [(1, t, n, f"sampled frame at slot {t}, system {n} exceeds declared bounds")
                  for t in log[over[0] | over[1], 0][:1].tolist()]
    if first:
        raise CheckViolation(min(first)[3])
    for start, net in _running_sums(trace.metrics, trace.external):
        queues = trace.queues[start + 1 : start + 1 + net.shape[0]]
        rows = np.flatnonzero(~(queues >= net).all(axis=1))
        if rows.size:
            q, cum_net = queues[rows[0]], net[rows[0]]
            bad = int(np.argmin(q - cum_net))
            raise CheckViolation(
                f"queue lower bound violated at slot {start + int(rows[0])}, constraint {bad}: "
                f"Q={float(q[bad])!r} < cumulative net input {float(cum_net[bad])!r}"
            )


# one system's frames that end inside the horizon: y = rate * length, z the row
# times length or the impulse value, w = sum of Q over the slots, qz of <Q, z>
_Frames = namedtuple("_Frames", "start length y z w qz")


def _frame_table(trace: RunTrace) -> tuple[_Frames, ...]:
    """Each system's completed frames, over the trace's frame columns; raises
    RuntimeError naming a system with no frame that ends inside the horizon."""
    prefix = np.zeros_like(trace.queues)  # prefix[t] = sum_{s<t} Q[s]
    np.cumsum(trace.queues[:-1], axis=0, out=prefix[1:])
    columns = zip(trace.frames, trace.frame_rates, trace.impulse_slots, trace.frame_metrics)
    table = []
    for n, (log, rate, at, metrics) in enumerate(columns):
        # the frames are in order and only the last can end past the horizon
        done = int(np.count_nonzero(log[:, 0] + log[:, 1] <= trace.slots))
        if not done:
            raise RuntimeError(f"system {n}: no completed frames; increase slots")
        start, length, at, z = log[:done, 0], log[:done, 1], at[:done], metrics[:done].copy()
        row = at < 0
        w = prefix[start + length] - prefix[start]
        qz = (z * np.where(row[:, None], w, trace.queues[at])).sum(axis=1)
        z[row] *= length[row, None]
        table.append(_Frames(start, length, rate[:done] * length, z, w, qz))
    return tuple(table)


class FrameStats:
    """Running sums over one system's completed frames.

    Keeps enough cross moments to compute the ratio estimators Y/T and Z/T
    and their delta-method standard errors without storing per-frame lists.
    """

    def __init__(self, n_metrics: int):
        self.count = 0
        self.sum_y = 0.0
        self.sum_t = 0.0
        self.sum_yy = 0.0
        self.sum_yt = 0.0
        self.sum_tt = 0.0
        self.sum_z = np.zeros(n_metrics)
        self.sum_zz = np.zeros(n_metrics)
        self.sum_zt = np.zeros(n_metrics)

    def add(self, y_totals, z_totals, lengths) -> None:
        """Add frames in order, given their totals Y, rows of totals Z and lengths T:
        each sum goes on one add at a time (np.cumsum; np.sum adds pairwise)."""
        y, t = np.asarray(y_totals, dtype=float), np.asarray(lengths, dtype=float)
        z = np.asarray(z_totals, dtype=float).reshape(-1, self.sum_z.shape[0])
        self.count += y.shape[0]
        sums = (self.sum_y, self.sum_t, self.sum_yy, self.sum_yt, self.sum_tt)
        terms = np.column_stack((y, t, y * y, y * t, t * t, z, z * z, z * t[:, None]))
        rows = np.vstack((np.concatenate((sums, self.sum_z, self.sum_zz, self.sum_zt)), terms))
        sums = np.cumsum(rows, axis=0, out=rows)[-1].copy()  # not rows' whole buffer
        self.sum_y, self.sum_t, self.sum_yy, self.sum_yt, self.sum_tt = sums[:5].tolist()
        self.sum_z, self.sum_zz, self.sum_zt = sums[5:].reshape(3, -1)

    @property
    def empirical_f(self) -> float:
        return self.sum_y / self.sum_t

    @property
    def empirical_g(self) -> np.ndarray:
        return self.sum_z / self.sum_t

    def f_se(self) -> float:
        # delta method for the ratio estimator: sqrt(sum (Y_k - f T_k)^2)/sum T
        f = self.empirical_f
        resid = max(self.sum_yy - 2 * f * self.sum_yt + f * f * self.sum_tt, 0.0)
        return math.sqrt(resid) / self.sum_t

    def g_se(self) -> np.ndarray:
        g = self.empirical_g
        resid = np.maximum(self.sum_zz - 2 * g * self.sum_zt + g * g * self.sum_tt, 0.0)
        return np.sqrt(resid) / self.sum_t


def frame_stats(trace: RunTrace) -> tuple[FrameStats, ...]:
    """Per-system statistics of the frames completed within the horizon."""
    stats = tuple(FrameStats(model.n_metrics) for model in trace.models)
    for st, frames in zip(stats, _frame_table(trace)):
        st.add(frames.y, frames.z, frames.length)
    return stats


def drift_diagnostic(trace: RunTrace, reference: Sequence[PerformanceVector]) -> list[np.ndarray]:
    """Per system, the drift sum of each completed frame of a dpp_ratio run.

    For a reference point (f_bar, g_bar) a frame's sum over its slots of
    V * (y[t] - f_bar) + <Q[t], z[t] - g_bar> is V * (Y - T * f_bar) + QZ - W . g_bar,
    read off the frame table: QZ is row . W for a metric row and value * Q[start +
    offset, l] for an impulse, and W is a difference of one prefix sum of Q.
    """
    reference = tuple(reference)
    if not isinstance(trace.policy, DppRatioPolicy):
        raise ValueError("drift diagnostic applies to the dpp_ratio policy")
    if len(reference) != len(trace.models):
        raise ValueError("one reference point per system required")
    if any(r.g_hat.shape[0] != trace.process.n_metrics for r in reference):
        raise ValueError("reference metric dimension mismatch")
    return [
        trace.policy.v * (f.y - f.length * ref.f_hat) + f.qz - f.w @ ref.g_hat
        for f, ref in zip(_frame_table(trace), reference)
    ]
