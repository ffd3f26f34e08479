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
its streams' blocks, and y[t] adds the rates of the frames covering t in
frame-start order (ties by index), as laying each rate on its slots would.

A drift-plus-penalty decision depends only on (model, Q[t], V), so it is
solved once per (model object, slot) and shared by the systems of that model
starting a frame in that slot.  Given its action a frame is i.i.d., so
system n plays action a's frames from their own stream, SeedSequence(seed,
spawn_key=(0, n, a)), drawn FRAME_BLOCK frames per ``core.sample_frame``
call: the j-th frame system n plays under action a is the same whatever V,
solver or policy chose it.  Stationary actions come from spawn_key=(0, n)
and d from (1,), so adding systems never perturbs other streams.

``run`` returns a ``RunTrace``, the whole record of the run; every analysis
below is a function of it alone, and the per-frame ones read one table over
its recorded frame columns: no analysis draws a frame again.

``check=True`` asserts three exact invariants: in the loop, the minimality
certificate of each decision (``ratio_bound_holds`` at Q[t]); after it, the
declared bounds of every recorded frame (``core.exceeds_bounds``, naming the
first offending slot and system) and the sample-path lower bound
Q_l[t] >= sum_{s<t}(sum_n z_l^n[s] - d_l[s]), exact in floating point as
both sides add the same per-slot deltas and the queue only clamps upward.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from collections import namedtuple
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterator, Sequence

import numpy as np

from .controller import queue_step, ratio_bound_holds, solve_bisection, solve_enumerate
from .core import PerformanceVector, RenewalSystemModel, _mean_se, exceeds_bounds, sample_frame

__all__ = [
    "CappedPoisson",
    "ExternalProcess",
    "default_poisson_cap",
    "DppRatioPolicy",
    "RandomizedStationaryPolicy",
    "CheckViolation",
    "RunTrace",
    "run",
    "QueueTrajectory",
    "queue_trajectory",
    "check_queue_bound",
    "FrameStats",
    "frame_stats",
    "DriftDiagnostic",
    "uniform_frame_drift_bound",
    "drift_diagnostic",
    "SystemSweepStats",
    "stationary_predictions",
]


# external i.i.d. slot process


def default_poisson_cap(rate: float) -> int:
    """Truncation point far enough out that the clipped mass is negligible."""
    return math.ceil(rate + 10.0 * math.sqrt(rate))


@dataclass(frozen=True)
class CappedPoisson:
    """Poisson(rate) clipped at cap; scale=-1 flips the sign of every draw.

    The clip keeps |d[t]| bounded as the analysis assumes.  With the default
    cap of mean + 10*sqrt(mean) the clipped probability mass is below 1e-10
    for the rates used here, so the stated mean ignores the truncation bias.
    """

    rate: float
    cap: int | None = None
    scale: float = 1.0

    def __post_init__(self):
        if not self.rate > 0:
            raise ValueError("rate must be positive")
        if self.cap is None:
            object.__setattr__(self, "cap", default_poisson_cap(self.rate))
        if self.cap < self.rate:
            raise ValueError("cap below the mean would bias every sample")

    @property
    def mean(self) -> float:
        return self.scale * self.rate

    @property
    def max_abs(self) -> float:
        return abs(self.scale) * self.cap

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

    def max_abs(self) -> float:
        return max(c.max_abs for c in self.coords)

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
    """An exact runtime invariant failed during a checked run."""


# frames drawn per sampler call from one (system, action) stream
FRAME_BLOCK = 64


def _frame_stream(model: RenewalSystemModel, action: int, rng: np.random.Generator, drawn: list):
    """The action's frames, FRAME_BLOCK per draw, as (length, offset, metric, z): z is
    the impulse value, or a row frame's metric row (offset and metric -1).  Each
    block drawn is appended to ``drawn``, from which the frame columns are built."""
    while True:
        frames = sample_frame(model, action, rng, FRAME_BLOCK)
        drawn.append(frames)
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
    is d[t], and queues[t] is Q[t] for t = 0..slots, zero first and the final
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
    def total_penalty(self) -> float:
        return float(self.penalty.sum())

    @property
    def total_metrics(self) -> np.ndarray:
        return self.metrics.sum(axis=0)

    @property
    def queue_slot_sum(self) -> np.ndarray:
        """sum_{t<slots} Q[t], added in slot order."""
        for _, sums in _running_sums(self.queues[:-1]):
            pass
        return sums[-1]

    @property
    def final_queues(self) -> np.ndarray:
        return self.queues[-1]

    @property
    def frames_per_system(self) -> np.ndarray:
        return np.array([log.shape[0] for log in self.frames])

    @property
    def avg_penalty(self) -> float:
        return self.total_penalty / self.slots

    @property
    def avg_metrics(self) -> np.ndarray:
        return self.total_metrics / self.slots

    @property
    def avg_queues(self) -> np.ndarray:
        return self.queue_slot_sum / self.slots


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


def _frame_columns(actions: array, drawn: list, n_metrics: int) -> tuple[np.ndarray, ...]:
    """One system's frame log and rate, impulse-slot and metric columns.

    Its j-th frame under action a is the next unused frame of the blocks
    stream a drew, and the frames start back to back from slot 0.
    """
    acts = np.frombuffer(actions, dtype=np.int64)
    log = np.zeros((acts.shape[0], 3), dtype=np.int64)  # start, length, action
    log[:, 2] = acts
    rate, at = np.empty(acts.shape[0]), np.full_like(acts, -1)  # at: offset until the end
    metrics = np.zeros((acts.shape[0], n_metrics))
    for a, blocks in enumerate(drawn):
        mine = np.flatnonzero(acts == a)
        for i, frames in enumerate(blocks):
            sel = mine[i * FRAME_BLOCK : (i + 1) * FRAME_BLOCK]
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
    """y[t]: 0.0 plus the rates of the frames covering t in frame-start order, ties
    by system index, added one at a time as laying each rate on its slots would."""
    n_sys = len(logs)
    shift = np.arange(n_sys) * slots  # system n's starts, moved to n * slots, sort as one
    keys = np.concatenate([log[:, 0] + at for log, at in zip(logs, shift)])
    rate, y = np.concatenate(rates), np.empty(slots)
    rows = max(1, _CHUNK // n_sys)  # at most _CHUNK (slot, system) entries per chunk
    for lo in range(0, slots, rows):
        slot = np.arange(lo, min(lo + rows, slots))
        # queries in increasing order search fastest; covering is slot x system
        covering = np.searchsorted(keys, shift[:, None] + slot, "right").T - 1
        order = np.argsort(keys[covering] - shift, axis=1, kind="stable")
        terms = np.zeros((slot.shape[0], n_sys + 1))  # per slot 0.0, then the rates by rank
        terms[:, 1:] = np.take_along_axis(rate[covering], order, axis=1)
        # accumulate adds one term at a time along a row, where sum() or np.sum need not
        y[lo : lo + slot.shape[0]] = np.cumsum(terms, axis=1)[:, -1]
    return y


def run(
    models: Sequence[RenewalSystemModel],
    external: ExternalProcess,
    policy,
    slots: int,
    seed: int,
    *,
    check: bool = False,
) -> RunTrace:
    """Simulate all systems for the given number of slots.

    Deterministic given (models, external, policy, slots, seed).  Each slot
    decides and lays down the frames starting there, then steps Q once.
    Frames past the horizon lay down only their in-horizon slots.
    """
    models = tuple(models)
    n_sys = len(models)
    if n_sys == 0:
        raise ValueError("need at least one system")
    n_metrics = external.n_metrics
    if any(m.n_metrics != n_metrics for m in models):
        raise ValueError("all systems must share the external process dimension")
    if slots < 1:
        raise ValueError("slots must be >= 1")

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

    def stream(*key):
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))

    action_rngs = [stream(0, n) for n in range(n_sys)] if stationary else None
    d_arr = external.sample_matrix(stream(1), slots)
    drawn = [[[] for _ in range(m.n_actions)] for m in models]  # the blocks each stream drew
    frame_streams = [
        [_frame_stream(m, a, stream(0, n, a), drawn[n][a]) for a in range(m.n_actions)]
        for n, m in enumerate(models)
    ]

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
                        idx = decided[model] = solve(model, q, v)
                        if check and not ratio_bound_holds(model, idx, q, v):
                            raise CheckViolation(
                                f"frame decision at slot {t}, system {n}: the ratio objective "
                                f"of action {idx} exceeds another action's"
                            )
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

    del frame_streams  # the streams' pending frames
    # pop: each system's blocks are freed once its columns are built
    columns = [_frame_columns(actions.pop(0), drawn.pop(0), n_metrics) for _ in models]
    logs, rates, at, metrics = zip(*columns)
    queues = np.frombuffer(q_buf).reshape(slots + 1, n_metrics)
    series = _penalty_series(logs, rates, slots), z_arr, d_arr, queues
    trace = RunTrace(models, external, policy, seed, *series, logs, rates, at, metrics)
    if check:
        first = []  # (slot, system) of each system's first frame over its declared bounds
        for n, m in enumerate(models):
            over = exceeds_bounds(trace.frame_rates[n], trace.frame_metrics[n], m.y_max, m.z_max)
            first += [(int(t), n) for t in trace.frames[n][over[0] | over[1], 0][:1]]
        if first:
            t, n = min(first)
            raise CheckViolation(f"sampled frame at slot {t}, system {n} exceeds declared bounds")
        check_queue_bound(trace)
    return trace


# analyses of a trace


@dataclass(frozen=True, eq=False)
class QueueTrajectory:
    """Downsampled queue series; the last row is the final queue Q[slots]."""

    times: np.ndarray
    queues: np.ndarray


def queue_trajectory(trace: RunTrace, stride: int | None = None) -> QueueTrajectory:
    """Q at every stride-th slot from 0, then Q[slots].

    The default stride keeps the row count near ten thousand.
    """
    slots = trace.slots
    if stride is None:
        stride = max(1, -(-slots // 10_000))
    elif stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    times = np.append(np.arange(0, slots, stride), slots)
    return QueueTrajectory(times, trace.queues[times])


def check_queue_bound(trace: RunTrace) -> None:
    """Raise CheckViolation at the first slot t where Q[t+1] < sum_{s<=t}(z[s] - d[s]).

    Both sides add the same per-slot deltas in slot order, so the comparison
    is exact.
    """
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


@dataclass(frozen=True, eq=False)
class DriftDiagnostic:
    """Per-system statistics of frame drift sums against their uniform bound.

    For a reference point (f_bar, g_bar) per system, each completed frame
    contributes sum over its slots of X[t] = V*(y[t] - f_bar) +
    <Q[t], z[t] - g_bar>, and the analysis guarantees the conditional mean of
    that sum never exceeds c0 = L * z_max * (N * z_max + d_max) * B.  The
    diagnostic reports the mean of (frame sum - c0) per system, which
    must stay <= 0 within noise whenever the reference point is feasible for
    the system.
    """

    c0: float
    frame_counts: np.ndarray
    excess_mean: np.ndarray
    excess_se: np.ndarray

    def within_bound(self, sigmas: float = 3.0) -> np.ndarray:
        return self.excess_mean <= sigmas * self.excess_se


def uniform_frame_drift_bound(trace: RunTrace) -> float:
    """c0 = L * z_max * (N * z_max + d_max) * B over the trace's systems."""
    models, process = trace.models, trace.process
    z_max = max(m.z_max for m in models)
    b = max(m.residual_bound for m in models)
    return process.n_metrics * z_max * (len(models) * z_max + process.max_abs()) * b


def drift_diagnostic(trace: RunTrace, reference: Sequence[PerformanceVector]) -> DriftDiagnostic:
    """Drift sums of the completed frames of a dpp_ratio run against c0.

    Each frame's sum is V * (Y - T * f_bar) + QZ - W . g_bar, read off the
    frame table: QZ is row . W for a metric row and value * Q[start +
    offset, l] for an impulse, and W is a difference of one prefix sum of Q.
    """
    reference = tuple(reference)
    if not isinstance(trace.policy, DppRatioPolicy):
        raise ValueError("drift diagnostic applies to the dpp_ratio policy")
    if len(reference) != len(trace.models):
        raise ValueError("one reference point per system required")
    if any(r.g_hat.shape[0] != trace.process.n_metrics for r in reference):
        raise ValueError("reference metric dimension mismatch")
    c0 = uniform_frame_drift_bound(trace)
    excesses = [
        trace.policy.v * (f.y - f.length * ref.f_hat) + f.qz - f.w @ ref.g_hat - c0
        for f, ref in zip(_frame_table(trace), reference)
    ]
    means, ses = map(np.array, zip(*map(_mean_se, excesses)))
    counts = np.array([x.shape[0] for x in excesses])
    return DriftDiagnostic(c0, frame_counts=counts, excess_mean=means, excess_se=ses)


@dataclass(frozen=True, eq=False)
class SystemSweepStats:
    """Predicted vs realized per-slot averages for one system."""

    predicted_f: float
    predicted_g: np.ndarray
    empirical_f: float
    empirical_g: np.ndarray
    se_f: float
    se_g: np.ndarray
    frames: int


def stationary_predictions(trace: RunTrace) -> tuple[SystemSweepStats, ...]:
    """Compare a stationary run with its renewal-reward ratios, per system.

    The prediction for each system is sum_a p_a y_hat_a / sum_a p_a t_hat_a
    (and likewise per metric); the empirical value is the ratio of completed
    frame totals, with a delta-method standard error.
    """
    if not isinstance(trace.policy, RandomizedStationaryPolicy):
        raise ValueError("stationary predictions apply to the stationary policy")
    systems = []
    for model, w, st in zip(trace.models, trace.policy.weights, frame_stats(trace)):
        t_mix = float(w @ model.t_hats)
        systems.append(
            SystemSweepStats(
                predicted_f=float(w @ model.y_hats) / t_mix,
                predicted_g=(model.z_hats.T @ w) / t_mix,
                empirical_f=st.empirical_f,
                empirical_g=st.empirical_g,
                se_f=st.f_se(),
                se_g=st.g_se(),
                frames=st.count,
            )
        )
    return tuple(systems)
