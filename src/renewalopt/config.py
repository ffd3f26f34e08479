"""Plain-text experiment configuration.

Format: one `key = value` pair per line, `#` starts a comment, blank lines
are ignored.  A `[class]` line opens a job-class block for custom scheduling
instances; keys after it belong to that class until the next section.  Lists
(v, seeds, weights, jobs_support) are whitespace- or comma-separated.

Top-level keys:
    instance     table1 | custom                       (required)
    servers      integer >= 1                          (custom; optional override for table1)
    idle_power   float >= 0                            (custom; default for all classes)
    policy       dpp_ratio | stationary                (default dpp_ratio)
    solver       enumerate | bisection                 (default enumerate)
    v            positive floats                       (default 1 2 5 10 20 50 100 200)
    slots        integer >= 1                          (required)
    seeds        integers >= 0                         (default 1)
    out          output directory                      (default results)
    trajectories on | off                              (default off)
    check        on | off                              (default off)
    weights      lp | per-class probabilities          (stationary policy; default lp)

[class] keys: arrival_rate, service_mean, jobs_support (two integers),
energy, idle_mean, idle_power (optional, defaults to the top-level value).

Unknown keys, duplicate keys, and malformed values (inf and nan included)
are reported with their line numbers; all errors in a file are collected
before giving up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .scheduling import TABLE1, SchedulingInstance, ServerClassParams

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "DEFAULT_V_SWEEP"]

DEFAULT_V_SWEEP = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0)

_TOP_KEYS = {
    "instance",
    "servers",
    "idle_power",
    "policy",
    "solver",
    "v",
    "slots",
    "seeds",
    "out",
    "trajectories",
    "check",
    "weights",
}
_CLASS_KEYS = {
    "arrival_rate",
    "service_mean",
    "jobs_support",
    "energy",
    "idle_mean",
    "idle_power",
}


class ConfigError(Exception):
    """One or more config problems; each carries (line, key, reason)."""

    def __init__(self, errors: list[tuple[int, str, str]]):
        self.errors = list(errors)
        lines = []
        for ln, key, reason in self.errors:
            # line 0 marks problems with no source line, e.g. a missing key
            at = f"line {ln}: " if ln else ""
            lines.append(f"{at}{key}: {reason}" if key else f"{at}{reason}")
        super().__init__("invalid config:\n  " + "\n  ".join(lines))


@dataclass(frozen=True)
class ExperimentConfig:
    instance: SchedulingInstance
    policy: str
    solver: str
    v_list: tuple[float, ...]
    slots: int
    seeds: tuple[int, ...]
    out: str
    trajectories: bool
    check: bool
    weights: tuple[float, ...] | str


def _split_list(value: str) -> list[str]:
    return value.replace(",", " ").split()


def parse_config(text: str) -> ExperimentConfig:
    errors: list[tuple[int, str, str]] = []
    top: dict[str, tuple[int, str]] = {}
    classes: list[dict[str, tuple[int, str]]] = []
    current: dict[str, tuple[int, str]] | None = None

    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if line == "[class]":
                current = {}
                classes.append(current)
            else:
                errors.append((ln, "", f"unknown section {line!r}"))
                current = {}  # swallow the section's keys, already reported
            continue
        if "=" not in line:
            errors.append((ln, "", f"expected key = value, got {line!r}"))
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        scope = top if current is None else current
        known = _TOP_KEYS if current is None else _CLASS_KEYS
        if key not in known:
            where = "top level" if current is None else "[class] section"
            errors.append((ln, key, f"unknown key at {where}"))
            continue
        if key in scope:
            errors.append((ln, key, "duplicate key"))
            continue
        scope[key] = (ln, value)

    def take(scope, key, parser, default=None, required=False, where=""):
        if key not in scope:
            if required:
                errors.append((0, key, f"required key missing{where}"))
            return default
        ln, value = scope[key]
        try:
            return parser(value)
        except ValueError as exc:
            errors.append((ln, key, str(exc)))
            return default

    def parse_choice(options):
        def parser(value):
            if value not in options:
                raise ValueError(f"must be one of {', '.join(sorted(options))}")
            return value
        return parser

    def parse_int(minimum):
        def parser(value):
            try:
                out = int(value)
            except ValueError:
                raise ValueError(f"not an integer: {value!r}") from None
            if out < minimum:
                raise ValueError(f"must be >= {minimum}")
            return out
        return parser

    def parse_float(value):
        try:
            out = float(value)
        except ValueError:
            raise ValueError(f"not a number: {value!r}") from None
        if not math.isfinite(out):
            raise ValueError(f"not a finite number: {value!r}")
        return out

    def parse_float_list(value):
        items = _split_list(value)
        if not items:
            raise ValueError("empty list")
        return tuple(parse_float(item) for item in items)

    def parse_int_list(value):
        items = _split_list(value)
        if not items:
            raise ValueError("empty list")
        out = []
        for item in items:
            try:
                out.append(int(item))
            except ValueError:
                raise ValueError(f"not an integer: {item!r}") from None
        return tuple(out)

    def parse_onoff(value):
        if value not in ("on", "off"):
            raise ValueError("must be on or off")
        return value == "on"

    kind = take(top, "instance", parse_choice({"table1", "custom"}), required=True)
    servers = take(top, "servers", parse_int(1))
    idle_power = take(top, "idle_power", parse_float)
    policy = take(top, "policy", parse_choice({"dpp_ratio", "stationary"}), default="dpp_ratio")
    solver = take(top, "solver", parse_choice({"enumerate", "bisection"}), default="enumerate")
    v_list = take(top, "v", parse_float_list, default=DEFAULT_V_SWEEP)
    slots = take(top, "slots", parse_int(1), required=True)
    seeds = take(top, "seeds", parse_int_list, default=(1,))
    out = take(top, "out", str, default="results")
    trajectories = take(top, "trajectories", parse_onoff, default=False)
    check = take(top, "check", parse_onoff, default=False)

    weights: tuple[float, ...] | str = "lp"
    if "weights" in top:
        ln, value = top["weights"]
        if value == "lp":
            weights = "lp"
        else:
            try:
                weights = parse_float_list(value)
            except ValueError as exc:
                errors.append((ln, "weights", str(exc)))

    if v_list is not None:
        bad = [x for x in v_list if not x > 0]
        if bad:
            ln = top["v"][0] if "v" in top else 0
            errors.append((ln, "v", "V must be positive"))
    if seeds is not None and any(seed < 0 for seed in seeds):
        errors.append((top["seeds"][0], "seeds", "seeds must be >= 0"))

    instance = None
    if kind == "table1":
        if classes:
            errors.append((0, "instance", "table1 preset does not take [class] sections"))
        if idle_power is not None:
            ln = top["idle_power"][0]
            errors.append((ln, "idle_power", "only valid with instance = custom"))
        instance = TABLE1
        if servers is not None:
            instance = SchedulingInstance(n_servers=servers, classes=TABLE1.classes)
    elif kind == "custom":
        if servers is None:
            errors.append((0, "servers", "required for instance = custom"))
        if idle_power is None:
            errors.append((0, "idle_power", "required for instance = custom"))
        if not classes:
            errors.append((0, "instance", "custom instance needs at least one [class] section"))
        built = []
        for i, scope in enumerate(classes):
            where = f" in [class] {i + 1}"
            arrival = take(scope, "arrival_rate", parse_float, required=True, where=where)
            service = take(scope, "service_mean", parse_float, required=True, where=where)
            support = take(scope, "jobs_support", parse_int_list, required=True, where=where)
            energy = take(scope, "energy", parse_float, required=True, where=where)
            idle = take(scope, "idle_mean", parse_float, required=True, where=where)
            power = take(scope, "idle_power", parse_float, default=idle_power)
            if support is not None and len(support) != 2:
                ln = scope["jobs_support"][0]
                errors.append((ln, "jobs_support", "needs exactly two integers"))
                support = None
            if None in (arrival, service, support, energy, idle, power):
                continue
            try:
                built.append(
                    ServerClassParams(arrival, service, support[0], support[1], energy, idle, power)
                )
            except ValueError as exc:
                ln = min(entry[0] for entry in scope.values()) if scope else 0
                errors.append((ln, f"class {i + 1}", str(exc)))
        if not errors and built:
            instance = SchedulingInstance(n_servers=servers, classes=tuple(built))

    if (
        isinstance(weights, tuple)
        and instance is not None
        and len(weights) != instance.n_classes
    ):
        ln = top["weights"][0]
        errors.append((ln, "weights", f"need {instance.n_classes} entries, one per class"))
    if isinstance(weights, tuple):
        if any(w < 0 for w in weights):
            errors.append((top["weights"][0], "weights", "entries must be nonnegative"))
        elif abs(sum(weights) - 1.0) > 1e-6:
            errors.append((top["weights"][0], "weights", "entries must sum to 1"))

    if errors:
        raise ConfigError(sorted(errors))

    return ExperimentConfig(
        instance=instance,
        policy=policy,
        solver=solver,
        v_list=tuple(v_list),
        slots=slots,
        seeds=seeds,
        out=out,
        trajectories=trajectories,
        check=check,
        weights=weights,
    )
