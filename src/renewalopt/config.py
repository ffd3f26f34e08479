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
    solver       enumerate | bisection                 (dpp_ratio only; default enumerate)
    v            positive floats, dpp_ratio only       (default 1 2 5 10 20 50 100 200)
    slots        integer >= 1                          (required)
    seeds        integers >= 0                         (default 1)
    out          output directory                      (default results)
    trajectories on | off                              (default off)
    check        on | off                              (default off)
    weights      lp | per-class probabilities          (stationary only; default lp)

[class] keys:
    arrival_rate float > 0                             (required)
    service_mean float >= 1                            (required)
    jobs_support two integers 0 < low <= high < low + 2**32 - 1 (required; integer midpoint)
    energy       float >= 0                            (required)
    idle_mean    float >= 1                            (required)
    idle_power   float >= 0                            (default: the top-level value)

A v list may not hold two entries that print alike under format(v, "g"),
nor a seeds list one seed twice: either would repeat a (v, seed) cell.
Unknown keys, duplicate keys, and malformed values (inf and nan included)
are reported with their line numbers, each malformed value once; all errors
in a file are collected before giving up, except that a [class] block is
checked as a whole only once each of its values (idle_power included) parses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .scheduling import TABLE1, SchedulingInstance, ServerClassParams

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "DEFAULT_V_SWEEP"]

DEFAULT_V_SWEEP = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0)


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


def _choice(*options):
    def parser(value):
        if value not in options:
            raise ValueError(f"must be one of {', '.join(sorted(options))}")
        return value
    return parser


def _checked(parse, holds, reason):
    """parse, then reject a value for which holds(value) is false."""
    def parser(value):
        out = parse(value)
        if not holds(out):
            raise ValueError(reason)
        return out
    return parser


def _int(value):
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"not an integer: {value!r}") from None


def _float(value):
    try:
        out = float(value)
    except ValueError:
        raise ValueError(f"not a number: {value!r}") from None
    if not math.isfinite(out):
        raise ValueError(f"not a finite number: {value!r}")
    return out


def _list_of(parse_item):
    def parser(value):
        items = value.replace(",", " ").split()
        if not items:
            raise ValueError("empty list")
        return tuple(parse_item(item) for item in items)
    return parser


def _onoff(value):
    if value not in ("on", "off"):
        raise ValueError("must be on or off")
    return value == "on"


_positive_int = _checked(_int, lambda x: x >= 1, "must be >= 1")
_nonnegative_float = _checked(_float, lambda x: x >= 0, "must be >= 0")
_probabilities = _checked(
    _checked(_list_of(_float), lambda ws: min(ws) >= 0, "entries must be nonnegative"),
    lambda ws: abs(sum(ws) - 1.0) <= 1e-6,
    "entries must sum to 1",
)
# each (v, seed) pair is one cell, written to trajectory_<format(v, "g")>_<seed>.csv
_v_list = _checked(
    _checked(_list_of(_float), lambda vs: all(v > 0 for v in vs), "V must be positive"),
    lambda vs: len({format(v, "g") for v in vs}) == len(vs),
    'two entries are one cell: format(v, "g") prints them alike',
)
_seed_list = _checked(
    _checked(_list_of(_int), lambda xs: min(xs) >= 0, "seeds must be >= 0"),
    lambda xs: len(set(xs)) == len(xs),
    "a seed repeats",
)

# the default of a key that must be present
_REQUIRED = object()

# key -> (parser of its value, default when absent); the keys are the known keys
_TOP_TABLE = {
    "instance": (_choice("table1", "custom"), _REQUIRED),
    "servers": (_positive_int, None),
    "idle_power": (_nonnegative_float, None),
    "policy": (_choice("dpp_ratio", "stationary"), "dpp_ratio"),
    "solver": (_choice("enumerate", "bisection"), "enumerate"),
    "v": (_v_list, DEFAULT_V_SWEEP),
    "slots": (_positive_int, _REQUIRED),
    "seeds": (_seed_list, (1,)),
    "out": (_checked(str, len, "empty path"), "results"),
    "trajectories": (_onoff, False),
    "check": (_onoff, False),
    "weights": (lambda value: value if value == "lp" else _probabilities(value), "lp"),
}
# a class without its own idle_power takes the top-level value
_CLASS_TABLE = {
    "arrival_rate": (_float, _REQUIRED),
    "service_mean": (_float, _REQUIRED),
    "jobs_support": (
        _checked(_list_of(_int), lambda xs: len(xs) == 2, "needs exactly two integers"),
        _REQUIRED,
    ),
    "energy": (_float, _REQUIRED),
    "idle_mean": (_float, _REQUIRED),
    "idle_power": (_nonnegative_float, None),
}


def _parse_scope(scope, table, errors, where="") -> dict:
    """Every key of table parsed from scope's (line, value) entries.

    An absent key takes its default.  A malformed value is reported once,
    on its line, and a missing required key at line 0; either parses to None.
    """
    values = {}
    for key, (parser, default) in table.items():
        values[key] = None if default is _REQUIRED else default
        if key in scope:
            ln, value = scope[key]
            try:
                values[key] = parser(value)
            except ValueError as exc:
                errors.append((ln, key, str(exc)))
                values[key] = None
        elif default is _REQUIRED:
            errors.append((0, key, f"required key missing{where}"))
    return values


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
        if key not in (_TOP_TABLE if current is None else _CLASS_TABLE):
            where = "top level" if current is None else "[class] section"
            errors.append((ln, key, f"unknown key at {where}"))
            continue
        if key in scope:
            errors.append((ln, key, "duplicate key"))
            continue
        scope[key] = (ln, value)

    cfg = _parse_scope(top, _TOP_TABLE, errors)
    kind, servers, idle_power = cfg["instance"], cfg["servers"], cfg["idle_power"]

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
        for key in ("servers", "idle_power"):
            if key not in top:
                errors.append((0, key, "required for instance = custom"))
        if not classes:
            errors.append((0, "instance", "custom instance needs at least one [class] section"))
        built = []
        for i, scope in enumerate(classes):
            params = _parse_scope(scope, _CLASS_TABLE, errors, f" in [class] {i + 1}")
            if "idle_power" not in scope:
                params["idle_power"] = idle_power
            if None in params.values():
                continue
            low, high = params.pop("jobs_support")
            try:
                built.append(ServerClassParams(jobs_low=low, jobs_high=high, **params))
            except ValueError as exc:
                ln = min(entry[0] for entry in scope.values()) if scope else 0
                errors.append((ln, f"class {i + 1}", str(exc)))
        if not errors and built:
            instance = SchedulingInstance(n_servers=servers, classes=tuple(built))

    # a key of the other policy would be dropped unread
    for key, owner in (("weights", "stationary"), ("v", "dpp_ratio"), ("solver", "dpp_ratio")):
        if key in top and cfg[key] is not None and cfg["policy"] not in (owner, None):
            errors.append((top[key][0], key, f"only valid with policy = {owner}"))
    weights = cfg["weights"]
    if (
        cfg["policy"] != "dpp_ratio"
        and isinstance(weights, tuple)
        and instance is not None
        and len(weights) != instance.n_classes
    ):
        ln = top["weights"][0]
        errors.append((ln, "weights", f"need {instance.n_classes} entries, one per class"))

    if errors:
        raise ConfigError(sorted(errors))

    return ExperimentConfig(
        instance=instance,
        policy=cfg["policy"],
        solver=cfg["solver"],
        v_list=cfg["v"],
        slots=cfg["slots"],
        seeds=cfg["seeds"],
        out=cfg["out"],
        trajectories=cfg["trajectories"],
        check=cfg["check"],
        weights=weights,
    )
