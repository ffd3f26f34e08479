"""Domain types for controlled renewal systems.

A renewal system runs on slotted time and splits its timeline into frames.
At the first slot of each frame the controller picks an action from a finite
set; the action fixes the joint distribution of the frame length T (a
positive integer number of slots), the per-slot penalty y[t], and the per-slot
metric vector z[t] (length L, one entry per coupled time-average constraint).
Frames are independent across systems and, given the action, i.i.d. within a
system.

Each action is summarized by a ``PerformanceTriple`` of expected frame totals
(y_hat, z_hat, t_hat); dividing by t_hat gives the per-slot ``PerformanceVector``
(f_hat, g_hat), the quantity that long-run time averages converge to.  Models
declare per-slot bounds (y_max, z_max) and a residual second-moment bound B
on frame overshoot, and ``validate_model`` checks a model's samplers against
all of its declarations empirically.

A sampler draws k frames per call as one ``FrameOutcome`` of columns:
lengths, penalty rates, and metric rows or one impulse per frame (offset
and value, on one metric); given the action frames are i.i.d., so a block
has the law of k single draws.  ``sample_frame`` checks a block against the
model.  The engine and ``validate_model`` record each frame as columns
(length, rate, impulse slot or -1, L metric values), which
``exceeds_bounds`` checks against the declared bounds; the frame totals are
Y = rate * length and Z = row * length or the impulse value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

__all__ = [
    "PerformanceTriple",
    "PerformanceVector",
    "FrameOutcome",
    "FrameSampler",
    "RenewalSystemModel",
    "sample_frame",
    "exceeds_bounds",
    "validate_model",
    "ActionValidation",
    "ValidationReport",
]


@dataclass(frozen=True, eq=False)
class PerformanceTriple:
    """Expected frame totals (y_hat, z_hat, t_hat) for one action.

    y_hat is the expected total penalty accumulated over a frame, z_hat the
    expected total metric vector, and t_hat the expected frame length in
    slots.  Frame lengths are integers >= 1, so t_hat >= 1.
    """

    y_hat: float
    z_hat: np.ndarray
    t_hat: float

    def __post_init__(self):
        object.__setattr__(self, "y_hat", float(self.y_hat))
        object.__setattr__(self, "t_hat", float(self.t_hat))
        z = np.array(self.z_hat, dtype=float, copy=True).reshape(-1)
        z.flags.writeable = False
        object.__setattr__(self, "z_hat", z)
        if not self.t_hat >= 1.0:
            raise ValueError(f"t_hat must be >= 1, got {self.t_hat}")


@dataclass(frozen=True, eq=False)
class PerformanceVector:
    """Per-slot expectations (f_hat, g_hat) = (y_hat, z_hat) / t_hat."""

    f_hat: float
    g_hat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "f_hat", float(self.f_hat))
        g = np.array(self.g_hat, dtype=float, copy=True).reshape(-1)
        g.flags.writeable = False
        object.__setattr__(self, "g_hat", g)


@dataclass(slots=True, eq=False)
class FrameOutcome:
    """A block of k sampled frames as columns: metric rows or impulses.

    Every slot of frame j carries penalty_rate[j], and its metrics are the
    row metric_rate[j] (shape (k, L)) on every slot or zero but for one
    impulse: impulse = (offsets, metric, values) puts values[j] on metric at
    slot offsets[j].  Construction rejects a length below 1, both rows and
    an impulse or neither, and an impulse off its frame's slots (on slots
    the queue has stepped through or another frame's); ``sample_frame``
    checks the block size and the metric.  Not frozen; nothing assigns to it.
    """

    length: np.ndarray
    penalty_rate: np.ndarray
    metric_rate: np.ndarray | None
    impulse: tuple[np.ndarray, int, np.ndarray] | None = None

    def __post_init__(self):
        length, impulse = self.length, self.impulse
        if (length < 1).any():
            raise ValueError(f"frame of length {length.min()}")
        if (impulse is None) == (self.metric_rate is None):
            raise ValueError("frame needs exactly one of a metric row and an impulse")
        if impulse is not None:
            at = impulse[0]
            outside = (at < 0) | (at >= length)
            if outside.any():
                j = outside.argmax()
                raise ValueError(f"impulse at offset {at[j]} of a frame of length {length[j]}")


class FrameSampler(Protocol):
    """Stochastic generator of frames for one action.

    ``sample(rng, k)`` returns k frames as one ``FrameOutcome``, with rows
    (``ConstantRateSampler``) or impulses (the scheduling sampler's job
    counts), drawing each random column with one size-k numpy call.  It
    must be stateless apart from the random source, so the same generator
    state always yields the same frames.
    """

    def sample(self, rng: np.random.Generator, k: int) -> FrameOutcome: ...


@dataclass(frozen=True, eq=False)
class RenewalSystemModel:
    """One system's finite action set: declared triples plus frame samplers.

    y_max and z_max bound every per-slot |y[t]| and |z_l[t]| the samplers may
    emit; residual_bound B >= 1 bounds E[(T - s)^2 | T >= s] for every slot
    offset s.  Declarations are validated against the triples at construction
    and against the samplers by ``validate_model``.
    """

    actions: tuple[PerformanceTriple, ...]
    samplers: tuple[FrameSampler, ...]
    y_max: float
    z_max: float
    residual_bound: float

    def __post_init__(self):
        actions = tuple(self.actions)
        samplers = tuple(self.samplers)
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "samplers", samplers)
        object.__setattr__(self, "y_max", float(self.y_max))
        object.__setattr__(self, "z_max", float(self.z_max))
        object.__setattr__(self, "residual_bound", float(self.residual_bound))
        if not actions:
            raise ValueError("model needs at least one action")
        if len(samplers) != len(actions):
            raise ValueError("one sampler per action required")
        n_metrics = actions[0].z_hat.shape[0]
        if any(a.z_hat.shape[0] != n_metrics for a in actions):
            raise ValueError("all actions must share the same metric dimension")
        object.__setattr__(self, "_n_metrics", n_metrics)
        if self.y_max < 0 or self.z_max < 0:
            raise ValueError("bounds must be nonnegative")
        if not self.residual_bound >= 1.0:
            raise ValueError("residual_bound must be >= 1")
        slack = 1e-9
        for i, a in enumerate(actions):
            if abs(a.y_hat) > self.y_max * a.t_hat * (1 + slack):
                raise ValueError(f"action {i}: |y_hat| exceeds y_max * t_hat")
            if np.any(np.abs(a.z_hat) > self.z_max * a.t_hat * (1 + slack)):
                raise ValueError(f"action {i}: |z_hat| exceeds z_max * t_hat")
        # cache per-action arrays used by the subproblem solvers
        y = np.array([a.y_hat for a in actions])
        z = np.array([a.z_hat for a in actions])
        t = np.array([a.t_hat for a in actions])
        for arr in (y, z, t):
            arr.flags.writeable = False
        object.__setattr__(self, "_y", y)
        object.__setattr__(self, "_z", z)
        object.__setattr__(self, "_t", t)

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    @property
    def n_metrics(self) -> int:
        return self._n_metrics

    @property
    def y_hats(self) -> np.ndarray:
        """Expected frame penalty totals, one entry per action."""
        return self._y

    @property
    def z_hats(self) -> np.ndarray:
        """Expected frame metric totals, shape (n_actions, n_metrics)."""
        return self._z

    @property
    def t_hats(self) -> np.ndarray:
        """Expected frame lengths, one entry per action."""
        return self._t


def sample_frame(
    model: RenewalSystemModel, action: int, rng: np.random.Generator, k: int
) -> FrameOutcome:
    """Sample a block of k frames for the given action index.

    Raises ValueError for a block of another size, an impulse on a metric
    the model does not have, and a metric row whose length is not the
    model's metric count.
    """
    if not 0 <= action < len(model.samplers):
        raise IndexError(f"action index {action} out of range for {len(model.samplers)} actions")
    frames = model.samplers[action].sample(rng, k)
    n_metrics = model._n_metrics
    if len(frames.length) != k:
        raise ValueError(f"a block of {len(frames.length)} frames, where {k} were asked for")
    if frames.impulse is not None:
        l = frames.impulse[1]
        if not 0 <= l < n_metrics:
            raise ValueError(f"impulse on metric {l} of a frame with {n_metrics} metrics")
    elif (shape := frames.metric_rate.shape)[1:] != (n_metrics,):
        raise ValueError(f"metric row of length {shape[-1]} of a frame with {n_metrics} metrics")
    return frames


def exceeds_bounds(rates, metrics, y_max: float, z_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Per recorded frame, (penalty_over, metric_over): |y| > y_max, some |z_l| > z_max?

    Over the frames' rate and metric-value columns; with z_max >= 0, as a
    model declares, these are the answers of their per-slot arrays.
    """
    return np.abs(rates) > y_max, (np.abs(metrics) > z_max).any(axis=1)


@dataclass(frozen=True, eq=False)
class ActionValidation:
    """Empirical evidence for one action's declarations."""

    action_index: int
    samples: int
    bound_violations: int
    declared: PerformanceTriple
    y_mean: float
    y_se: float
    t_mean: float
    residual_estimates: np.ndarray
    residual_ses: np.ndarray
    residual_counts: np.ndarray
    residual_flags: np.ndarray
    # the largest residual estimate the flag rule assessed (offset 0 if none)
    max_assessed_residual: float


@dataclass(frozen=True, eq=False)
class ValidationReport:
    """Result of checking a model's samplers against its declarations."""

    actions: tuple[ActionValidation, ...]
    flags: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.flags


# fewer surviving frames than this gives no usable SE for the residual
# second-moment check, so such offsets are estimated but never flagged
RESIDUAL_MIN_FRAMES = 30


def _mean_se(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error over axis 0; the SE is zero below 2 rows."""
    mean = values.mean(axis=0)
    if values.shape[0] < 2:
        return mean, np.zeros_like(mean)
    return mean, values.std(axis=0, ddof=1) / np.sqrt(values.shape[0])


def validate_model(
    model: RenewalSystemModel,
    samples_per_action: int,
    rng: np.random.Generator | None = None,
) -> ValidationReport:
    """Sample each action and report violations of the model's declarations.

    Draws each action's samples as one block through ``sample_frame`` and
    checks three things per action: (a) per-slot bound violations, one per
    frame and bound crossed (``exceeds_bounds``), which must be zero;
    (b) estimates of E[(T - s)^2 | T >= s] for every offset s up to the
    longest observed frame, flagged when an estimate backed by at least
    RESIDUAL_MIN_FRAMES surviving frames exceeds the declared residual_bound
    by more than 3 standard errors; (c) empirical frame-total means against
    the declared triple, flagged beyond 4 standard errors.
    """
    if samples_per_action < 1:
        raise ValueError("samples_per_action must be >= 1")
    if rng is None:
        rng = np.random.default_rng(0)

    reports = []
    flags: list[str] = []
    for idx in range(model.n_actions):
        declared = model.actions[idx]
        n, n_metrics = samples_per_action, model.n_metrics
        frames = sample_frame(model, idx, rng, n)
        lengths, rates = frames.length.astype(float), frames.penalty_rate
        if frames.impulse is None:
            metrics, totals = frames.metric_rate, frames.metric_rate * lengths[:, None]
        else:
            _, l, values = frames.impulse
            metrics = totals = np.zeros((n, n_metrics))
            metrics[:, l] = values
        over = exceeds_bounds(rates, metrics, model.y_max, model.z_max)
        violations = int(np.count_nonzero(over[0]) + np.count_nonzero(over[1]))

        y_mean, y_se = _mean_se(rates * lengths)
        t_mean, t_se = _mean_se(lengths)
        z_mean, z_se = _mean_se(totals)

        max_len = int(lengths.max())
        residual_est = np.zeros(max_len + 1)
        residual_se = np.zeros(max_len + 1)
        residual_count = np.zeros(max_len + 1, dtype=np.int64)
        tail = lengths
        for s in range(max_len + 1):
            tail = tail[tail >= s]
            residual_est[s], residual_se[s] = _mean_se((tail - s) ** 2)
            residual_count[s] = tail.shape[0]
        # a lone long frame must not count as evidence against the bound
        assessed = residual_count >= RESIDUAL_MIN_FRAMES
        residual_flag = assessed & (residual_est > model.residual_bound + 3 * residual_se)
        max_residual = residual_est[assessed].max() if assessed.any() else residual_est[0]

        if violations:
            flags.append(f"action {idx}: {violations} per-slot bound violations")
        if residual_flag.any():
            margin = np.where(residual_flag, residual_est - 3 * residual_se, -np.inf)
            worst = int(np.argmax(margin))
            flags.append(
                f"action {idx}: residual second moment at offset {worst} "
                f"estimated {residual_est[worst]:.6g} exceeds declared bound "
                f"{model.residual_bound:.6g}"
            )
        for name, emp, se, decl in zip(
            ["y_hat", "t_hat"] + [f"z_hat[{l}]" for l in range(model.n_metrics)],
            [y_mean, t_mean, *z_mean],
            [y_se, t_se, *z_se],
            [declared.y_hat, declared.t_hat, *declared.z_hat],
        ):
            tol = 4 * se if se > 0 else 1e-9
            if abs(emp - decl) > tol:
                flags.append(f"action {idx}: empirical {name} {emp:.6g} vs declared {decl:.6g}")

        reports.append(
            ActionValidation(
                action_index=idx,
                samples=n,
                bound_violations=violations,
                declared=declared,
                y_mean=float(y_mean),
                y_se=float(y_se),
                t_mean=float(t_mean),
                residual_estimates=residual_est,
                residual_ses=residual_se,
                residual_counts=residual_count,
                residual_flags=residual_flag,
                max_assessed_residual=float(max_residual),
            )
        )

    return ValidationReport(actions=tuple(reports), flags=tuple(flags))
