"""Command-line front end.

    renewalopt run <config> [--out DIR] [--check] [--slots N] [--seed S]
    renewalopt lp <config> [--out DIR]
    renewalopt validate <config> [--samples N]

`run` executes the configured (V, seed) grid and writes summary.csv, lp.csv,
and optional trajectory_<V>_<seed>.csv files.  `lp` writes only the benchmark
solution.  `validate` samples every action of the instance's model and prints
a declaration-vs-empirical report.

Exit codes: 0 success, 1 config error, 2 runtime error, 3 invariant violation
under --check.  Identical config and seed produce byte-identical CSVs; all
floats are written with 9 significant digits.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .benchmark import (
    LPSolution,
    extract_reference_point,
    solve_lp,
    stationary_policy_weights,
)
from .config import ConfigError, ExperimentConfig, parse_config
from .core import validate_model
from .scheduling import SchedulingInstance, build_instance
from .simulation import (
    FRAME_BLOCK,
    CheckViolation,
    DppRatioPolicy,
    RandomizedStationaryPolicy,
    queue_trajectory,
    run,
)

__all__ = ["main", "run_experiment"]


def _fmt(x) -> str:
    return format(float(x), ".9g")


def _write_lp_csv(path: Path, sol: LPSolution) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["record", "system", "index", "value"])
        writer.writerow(["status", "", "", sol.status])
        if sol.status != "optimal":
            return
        writer.writerow(["objective", "", "", _fmt(sol.objective)])
        for n, w in enumerate(sol.weights):
            for a, value in enumerate(w):
                writer.writerow(["weight", n, a, _fmt(value)])
        for l, value in enumerate(sol.achieved):
            writer.writerow(["achieved", "", l, _fmt(value)])
        for l, value in enumerate(sol.duals):
            writer.writerow(["dual", "", l, _fmt(value)])
        reference = extract_reference_point(sol)
        for n, point in enumerate(reference):
            writer.writerow(["reference_f", n, "", _fmt(point.f_hat)])
            for l, value in enumerate(point.g_hat):
                writer.writerow(["reference_g", n, l, _fmt(value)])
        for n, p in enumerate(stationary_policy_weights(sol)):
            for a, value in enumerate(p):
                writer.writerow(["policy_weight", n, a, _fmt(value)])


def _write_trajectory(path: Path, trajectory) -> None:
    times, queues = trajectory.times, trajectory.queues
    line = "%d" + ",%.9g" * queues.shape[1] + "\r\n"  # _fmt's digits, csv.writer's line end
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["t"] + [f"q_{l + 1}" for l in range(queues.shape[1])]) + "\r\n")
        for i in range(0, times.shape[0], 256):  # as Python rows, a bounded batch at a time
            rows = zip(times[i : i + 256].tolist(), queues[i : i + 256].tolist())
            fh.writelines(line % (t, *row) for t, row in rows)


def _memory_budget() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_memory(key: str, count: int, need_bytes: int, what: str) -> None:
    """Raise a ConfigError on `key` when the `what` of `count` exceeds physical memory."""
    need_mib, budget_mib = need_bytes / 2**20, _memory_budget() / 2**20
    if need_mib > budget_mib:
        raise ConfigError([(0, key, (
            f"{count} {key} need a {need_mib:.1f} MiB {what}, more than "
            f"the {budget_mib:.0f} MiB of physical memory"
        ))])


def _build(inst: SchedulingInstance):
    """build_instance, once the benchmark LP's dense simplex tableau fits in memory."""
    n, l = inst.n_servers, inst.n_classes  # rows: servers, classes; columns: weights, slacks
    _check_memory("servers", n, 8 * (n + l + 1) * ((l + 1) * n + 2 * l + 1), "LP tableau")
    return build_instance(inst)


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None) -> int:
    """Execute the configured grid and write CSVs; returns the exit code."""
    models, external, lp = _build(cfg.instance)
    # past the double range, V * y_hat breaks the decision and N * y_max * slots the sums
    v, y_hat = max(cfg.v_list), max(float(np.abs(m.y_hats).max()) for m in models)
    if cfg.policy == "dpp_ratio" and not v * y_hat < math.inf:
        raise ConfigError([(0, "v", f"V * y_hat = {v!r} * {y_hat!r} overflows")])
    if not len(models) * max(m.y_max for m in models) * cfg.slots < math.inf:
        raise ConfigError([(0, "slots", "the largest penalty total N * y_max * slots overflows")])
    n_metrics = external.n_metrics
    # a cell's trace holds 8 * (1 + 3L) bytes per slot and 8 * (5 + L) per frame per
    # system, a frame per t_hat slots (count the shortest); it grows slot by slot,
    # so a horizon that cannot fit would fail mid-run.  The y fold copies each frame's
    # start and rate (16 bytes), one system's drawn blocks and actions (8 * (4 + L)
    # a frame) wait beside the columns built, and in the loop each (system, action)
    # stream holds a pending block, 8 * (24 + L) bytes a frame as numpy columns and lists
    frames = -(-cfg.slots // min(float(m.t_hats.min()) for m in models))  # ceil
    need = 8 * (1 + 3 * n_metrics) * cfg.slots + 8 * (7 + n_metrics) * len(models) * frames
    need += 8 * (4 + n_metrics) * frames
    need += 8 * (24 + n_metrics) * FRAME_BLOCK * sum(m.n_actions for m in models)
    _check_memory("slots", cfg.slots, need, "trace per cell")
    lp_sol = solve_lp(lp)

    if cfg.policy == "stationary":
        if cfg.weights == "lp":
            if lp_sol.status != "optimal":
                raise ConfigError([(0, "weights", (
                    f"lp needs an optimal benchmark, and this instance's is {lp_sol.status}"
                ))])
            weights = stationary_policy_weights(lp_sol)
        else:
            per_class = np.asarray(cfg.weights, dtype=float)
            weights = tuple(per_class for _ in models)
        grid = [(None, seed) for seed in cfg.seeds]
    else:
        grid = [(v, seed) for v in cfg.v_list for seed in cfg.seeds]

    out = Path(out_dir if out_dir is not None else cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_lp_csv(out / "lp.csv", lp_sol)

    header = (
        ["policy", "v", "seed", "slots", "avg_penalty"]
        + [f"avg_metric_{l + 1}" for l in range(n_metrics)]
        + [f"avg_queue_{l + 1}" for l in range(n_metrics)]
        + [f"final_queue_{l + 1}" for l in range(n_metrics)]
        + ["frames_total", "lp_objective", "gap"]
    )
    rows = []
    for v, seed in grid:
        policy = RandomizedStationaryPolicy(weights) if v is None else DppRatioPolicy(v, cfg.solver)
        trace = run(models, external, policy, cfg.slots, seed, check=cfg.check)
        row = [cfg.policy, "" if v is None else _fmt(v), seed, trace.slots]
        row += map(_fmt, (trace.avg_penalty, *trace.avg_metrics, *trace.avg_queues))
        row += map(_fmt, trace.final_queues)
        row.append(int(trace.frames_per_system.sum()))
        if lp_sol.status == "optimal":
            row += [_fmt(lp_sol.objective), _fmt(trace.avg_penalty - lp_sol.objective)]
        else:
            row += ["", ""]
        rows.append(row)
        if cfg.trajectories:
            tag = "stationary" if v is None else format(v, "g")
            _write_trajectory(out / f"trajectory_{tag}_{seed}.csv", queue_trajectory(trace))
        # free this cell's series before the next cell allocates its own
        del trace

    with open(out / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return 0


def _cmd_run(args) -> int:
    cfg = parse_config(Path(args.config).read_text())
    if args.slots is not None:
        if args.slots < 1:
            raise ConfigError([(0, "slots", "must be >= 1")])
        cfg = replace(cfg, slots=args.slots)
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError([(0, "seed", "must be >= 0")])
        cfg = replace(cfg, seeds=(args.seed,))
    if args.check:
        cfg = replace(cfg, check=True)
    return run_experiment(cfg, out_dir=args.out)


def _cmd_lp(args) -> int:
    cfg = parse_config(Path(args.config).read_text())
    _, _, lp = _build(cfg.instance)
    sol = solve_lp(lp)
    out = Path(args.out if args.out is not None else cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_lp_csv(out / "lp.csv", sol)
    if sol.status == "optimal":
        print(f"status: optimal  objective: {_fmt(sol.objective)}")
    else:
        print(f"status: {sol.status}")
    return 0


def _cmd_validate(args) -> int:
    if args.samples < 1:
        raise ConfigError([(0, "samples", "must be >= 1")])
    cfg = parse_config(Path(args.config).read_text())
    # servers are homogeneous: one server's model is every server's
    (model,), _, _ = build_instance(replace(cfg.instance, n_servers=1))
    need = 8 * (16 + model.n_metrics) * args.samples  # the block and validate's temporaries
    _check_memory("samples", args.samples, need, "sample table per action")
    report = validate_model(model, args.samples)
    print(f"model (all servers): {'ok' if report.ok else 'FLAGGED'}")
    for av in report.actions:
        print(
            f"  action {av.action_index}: samples={av.samples} "
            f"bound_violations={av.bound_violations} "
            f"y_hat={_fmt(av.y_mean)} (declared {_fmt(av.declared.y_hat)}) "
            f"t_hat={_fmt(av.t_mean)} (declared {_fmt(av.declared.t_hat)}) "
            f"max_residual={_fmt(av.max_assessed_residual)} "
            f"(bound {_fmt(model.residual_bound)})"
        )
    for flag in report.flags:
        print(f"  flag: {flag}")
    return 0 if report.ok else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="renewalopt",
        description="Simulate drift-plus-penalty control of coupled renewal systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the configured experiment grid")
    p_run.add_argument("config", help="path to the experiment config")
    p_run.add_argument("--out", default=None, help="output directory (overrides config)")
    p_run.add_argument("--check", action="store_true", help="assert runtime invariants")
    p_run.add_argument("--slots", type=int, default=None, help="override slot count")
    p_run.add_argument("--seed", type=int, default=None, help="run a single seed")
    p_run.set_defaults(func=_cmd_run)

    p_lp = sub.add_parser("lp", help="solve and write only the benchmark LP")
    p_lp.add_argument("config", help="path to the experiment config")
    p_lp.add_argument("--out", default=None, help="output directory (overrides config)")
    p_lp.set_defaults(func=_cmd_lp)

    p_val = sub.add_parser("validate", help="check model declarations by sampling")
    p_val.add_argument("config", help="path to the experiment config")
    p_val.add_argument("--samples", type=int, default=20000, help="samples per action")
    p_val.set_defaults(func=_cmd_validate)

    args = parser.parse_args(argv)
    try:
        if getattr(args, "out", None) == "":  # Path("") would be the working directory
            raise ConfigError([(0, "out", "empty path")])
        return args.func(args)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 1
    except CheckViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # numpy names the allocation; a list does not
        print(f"error: out of memory {exc}".rstrip(), file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
