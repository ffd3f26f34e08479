"""The renewalopt benchmark: one workload per invocation, in fresh processes.

    python3 perf/run.py --workload {grid,checked,validate} --seed N \
        --seconds S --trace {0,1}

Writes the workload's config from the seed, then runs the `renewalopt`
command through `perf/child.py` again and again, one fresh process at a
time, until S seconds have passed (at least MIN_REPS times).  Every run's
outputs are checked, and its summary.csv (or, for `validate`, its stdout)
is hashed; all runs of one invocation must give the same bytes.

With --trace 0 the last stdout line reports the end-to-end metrics, each a
median over the runs.  With --trace 1 untraced and traced runs alternate;
the last line reports the per-layer metrics of the traced runs (medians),
and `trace.overhead_frac` compares the two kinds.  Every invocation also
writes its raw runs, hashes and environment to perf/results/.

See perf/README.md for why each workload and metric is there.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
PROGRAM = ROOT / "src" / "renewalopt" / "cli.py"

MIN_REPS = 3  # per kind of run (untraced, traced)
# The calibration loop's median time on the 2-vCPU Xeon VM the benchmark was
# defined on; it only sets the scale of the reported times.
CALIBRATION_REF_S = 0.007
CALIBRATION_REPEATS = 5
HARD_LIMIT_S = 150.0  # stop starting or running commands past this
POLL_S = 0.01
PAGE_KB = os.sysconf("SC_PAGE_SIZE") // 1024
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

GRID_SLOTS = 4000
GRID_CELLS = 16  # the default sweep's 8 V values x 2 seeds
CHECKED_SLOTS = 8000
CHECKED_V = 100
VALIDATE_SAMPLES = 20000
TABLE1_ACTIONS = 3

# (arrival_rate, service_mean, jobs_support, energy, idle_mean)
CHECKED_CLASSES = (
    (3.0, 2.0, (4, 10), 9, 1.5),
    (2.5, 2.5, (6, 12), 11, 2.0),
    (2.0, 1.8, (3, 9), 7, 1.4),
    (3.5, 3.0, (8, 16), 14, 1.6),
    (1.5, 2.2, (5, 11), 8, 1.8),
    (2.5, 1.6, (2, 8), 6, 1.3),
)


def table1_optimum() -> float:
    """e* of the Table-1 LP in closed form, as tests/test_acceptance.py has it.

    Serve classes 2 and 3 exactly at their arrival rates and spend the
    remaining server time on class 1.
    """
    f = (23.5 / 8.0, 32.9 / (4.6 + 4.3), 24.1 / 7.5)
    g = (15.0 / 8.0, 21.0 / (4.6 + 4.3), 17.0 / 7.5)
    w2 = 3.0 / g[1]
    w3 = 4.0 / g[2]
    w1 = 5.0 - w2 - w3
    return f[0] * w1 + f[1] * w2 + f[2] * w3


def written_tolerance(x: float) -> float:
    """Half a unit in the 9th significant digit, the precision of the CSVs."""
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(x))) - 8)


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def calibration_loop() -> float:
    """Median seconds of a fixed loop that uses no renewalopt code.

    Like the workloads it is interpreted Python with small numpy calls, so
    it slows down with them when the shared machine does.
    """
    import numpy as np

    weights = np.arange(6.0)
    offsets = np.ones(6)
    times = []
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        acc = 0.0
        for i in range(20000):
            acc += (i * 3 % 7) * 0.5
            if i % 10 == 0:
                acc += float(np.argmin(weights * acc + offsets))
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Outcome:
    """What one command produced, as far as the checks can tell."""

    cells: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    slots: int = 0
    frames: int = 0
    digest: str = ""
    lp_gap: float | None = None
    avg_backlog: float | None = None

    def fail_all(self, problem: str) -> "Outcome":
        self.failed = self.cells
        self.problems.append(problem)
        return self


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cells: int  # per command
    config: Callable[[int], str]  # seed -> config file text
    args: Callable[[Path, Path], list[str]]  # (config, output dir) -> CLI arguments
    check: Callable[[int, Path, Path], Outcome]  # (exit code, output dir, stdout)


def grid_config(seed: int) -> str:
    # no `v` key: the default sweep 1 2 5 10 20 50 100 200 is what runs
    return (
        "instance = table1\n"
        "policy = dpp_ratio\n"
        "solver = enumerate\n"
        f"slots = {GRID_SLOTS}\n"
        f"seeds = {2 * seed} {2 * seed + 1}\n"
        "trajectories = off\n"
        "check = off\n"
    )


def checked_config(seed: int) -> str:
    lines = [
        "instance = custom",
        "servers = 12",
        "idle_power = 2.0",
        "policy = dpp_ratio",
        "solver = bisection",
        f"v = {CHECKED_V}",
        f"slots = {CHECKED_SLOTS}",
        f"seeds = {seed}",
        "trajectories = on",
        "check = on",
    ]
    for arrival, service, (low, high), energy, idle in CHECKED_CLASSES:
        lines += [
            "",
            "[class]",
            f"arrival_rate = {arrival}",
            f"service_mean = {service}",
            f"jobs_support = {low} {high}",
            f"energy = {energy}",
            f"idle_mean = {idle}",
        ]
    return "\n".join(lines) + "\n"


def validate_config(seed: int) -> str:
    # validate_model draws from default_rng(0) inside the program: the seed
    # cannot reach it, and `slots` is required by the parser but unused
    return "instance = table1\nslots = 1\n"


def run_args(config: Path, out: Path) -> list[str]:
    return ["run", str(config), "--out", str(out)]


def validate_args(config: Path, out: Path) -> list[str]:
    return ["validate", str(config), "--samples", str(VALIDATE_SAMPLES)]


def read_lp_objective(path: Path) -> tuple[str, str]:
    """(status, objective as written) from an lp.csv."""
    status = objective = ""
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if row[0] == "status":
                status = row[3]
            elif row[0] == "objective":
                objective = row[3]
    return status, objective


def check_run_outputs(
    exit_code: int,
    out: Path,
    expected_cells: int,
    slots: int,
    estar: float | None,
    trajectories: bool,
) -> Outcome:
    outcome = Outcome(cells=expected_cells)
    if exit_code != 0:
        return outcome.fail_all(f"exit code {exit_code}")
    summary = out / "summary.csv"
    try:
        status, objective = read_lp_objective(out / "lp.csv")
        data = summary.read_bytes()
    except (OSError, IndexError) as exc:
        return outcome.fail_all(f"missing or malformed output: {exc}")
    outcome.digest = hashlib.sha256(data).hexdigest()
    if status != "optimal":
        return outcome.fail_all(f"lp.csv status {status!r}")
    tolerance = 1e-9 + written_tolerance(estar) if estar is not None else None
    if tolerance is not None and not abs(float(objective) - estar) <= tolerance:
        return outcome.fail_all(f"lp.csv objective {objective} is not e* = {estar!r}")

    rows = list(csv.DictReader(data.decode().splitlines()))
    if len(rows) != expected_cells:
        outcome.problems.append(f"summary.csv has {len(rows)} rows, expected {expected_cells}")
    good = []
    for row in rows[:expected_cells]:
        problem = check_summary_row(row, slots, objective)
        if problem is None and trajectories:
            name = f"trajectory_{float(row['v']):g}_{row['seed']}.csv"
            problem = check_trajectory(out / name, slots)
        if problem is None:
            good.append(row)
        else:
            outcome.problems.append(f"cell v={row.get('v')} seed={row.get('seed')}: {problem}")
    outcome.failed = expected_cells - len(good)
    outcome.slots = sum(int(row["slots"]) for row in good)
    outcome.frames = sum(int(row["frames_total"]) for row in good)
    if good:
        outcome.lp_gap = statistics.fmean(float(row["gap"]) for row in good)
        outcome.avg_backlog = statistics.fmean(
            float(value)
            for row in good
            for key, value in row.items()
            if key.startswith("avg_queue_")
        )
    return outcome


def check_summary_row(row: dict, slots: int, objective: str) -> str | None:
    for key, value in row.items():
        if key == "policy":
            continue
        try:
            if not math.isfinite(float(value)):
                return f"{key} = {value} is not finite"
        except (TypeError, ValueError):
            return f"{key} = {value!r} is not a number"
    if int(row["slots"]) != slots:
        return f"slots = {row['slots']}, expected {slots}"
    if not int(row["frames_total"]) > 0:
        return "frames_total is 0"
    if row["lp_objective"] != objective:
        return f"lp_objective {row['lp_objective']} differs from lp.csv {objective}"
    return None


def check_trajectory(path: Path, slots: int) -> str | None:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
    except OSError as exc:
        return f"no trajectory: {exc}"
    if not rows or int(rows[-1][0]) != slots:
        return f"{path.name} does not end at slot {slots}"
    if not all(math.isfinite(float(x)) for row in rows for x in row):
        return f"{path.name} has a non-finite value"
    return None


ACTION_LINE = re.compile(r"^  action (\d+): samples=(\d+) .* t_hat=(\S+) \(declared")


def check_validate_outputs(exit_code: int, stdout: Path) -> Outcome:
    outcome = Outcome(cells=TABLE1_ACTIONS)
    if exit_code != 0:
        return outcome.fail_all(f"exit code {exit_code}")
    data = stdout.read_bytes()
    outcome.digest = hashlib.sha256(data).hexdigest()
    lines = data.decode().splitlines()
    if not lines or lines[0] != "model (all servers): ok":
        return outcome.fail_all(f"unexpected first line {lines[:1]}")
    actions = [ACTION_LINE.match(line) for line in lines[1:]]
    if len(actions) != TABLE1_ACTIONS or not all(actions):
        return outcome.fail_all(f"expected {TABLE1_ACTIONS} action lines, got {lines[1:]}")
    for expected_index, match in enumerate(actions):
        index, samples, t_mean = int(match[1]), int(match[2]), float(match[3])
        if index != expected_index or samples != VALIDATE_SAMPLES:
            outcome.failed += 1
            outcome.problems.append(f"action line {match[0]!r}")
            continue
        outcome.frames += samples
        # slots covered by the sampled frames; t_hat is their mean length
        outcome.slots += round(t_mean * samples)
    return outcome


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="grid",
            why="the paper's V sweep on Table 1 with the default solver: engine loop, "
            "enumeration and sampler",
            cells=GRID_CELLS,
            config=grid_config,
            args=run_args,
            check=lambda code, out, stdout: check_run_outputs(
                code, out, GRID_CELLS, GRID_SLOTS, table1_optimum(), trajectories=False
            ),
        ),
        Workload(
            name="checked",
            why="one long checked cell on a wider custom instance: Dinkelbach, the "
            "certificate, the per-slot invariants and the trajectory CSV",
            cells=1,
            config=checked_config,
            args=run_args,
            check=lambda code, out, stdout: check_run_outputs(
                code, out, 1, CHECKED_SLOTS, None, trajectories=True
            ),
        ),
        Workload(
            name="validate",
            why="declaration check of the Table-1 samplers: sampler and validate_model "
            "only, no engine, decision or LP",
            cells=TABLE1_ACTIONS,
            config=validate_config,
            args=validate_args,
            check=lambda code, out, stdout: check_validate_outputs(code, stdout),
        ),
    )
}


# ---------------------------------------------------------------------------
# running one command


@dataclass
class Rep:
    traced: bool
    exit_code: int
    wall_s: float
    cpu_s: float
    setup_s: float | None
    peak_rss_mb: float
    outcome: Outcome
    spans: dict | None = None
    # reference seconds per measured second, from the calibration loops
    # run just before and just after the command
    scale: float = 1.0


def tree_rss_kb(pid: int) -> int:
    """Resident memory of a process and all of its descendants."""
    total = 0
    todo = [pid]
    while todo:
        p = todo.pop()
        try:
            with open(f"/proc/{p}/statm") as fh:
                total += int(fh.read().split()[1]) * PAGE_KB
            for task in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{task}/children") as fh:
                    todo.extend(int(c) for c in fh.read().split())
        except (FileNotFoundError, ProcessLookupError):
            continue
    return total


class RssPoller(threading.Thread):
    """Samples a process tree's resident memory until stopped.

    Kills the process if it is still running at `kill_at`, so that every
    invocation ends within its time limit.
    """

    def __init__(self, proc: subprocess.Popen, kill_at: float):
        super().__init__(daemon=True)
        self.proc = proc
        self.kill_at = kill_at
        self.peak_kb = 0
        self.killed = False
        self.stop = threading.Event()

    def run(self) -> None:
        while not self.stop.wait(POLL_S):
            self.peak_kb = max(self.peak_kb, tree_rss_kb(self.proc.pid))
            if monotonic() > self.kill_at and not self.killed:
                self.killed = True
                self.proc.kill()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env.setdefault(var, "1")
    # the same string hashes in every process, so dict and set layouts repeat
    env["PYTHONHASHSEED"] = "0"
    return env


def run_command(
    workload: Workload, config: Path, rep_dir: Path, traced: bool, kill_at: float
) -> Rep:
    rep_dir.mkdir(parents=True)
    out = rep_dir / "out"
    record = rep_dir / "record.json"
    stdout = rep_dir / "stdout.txt"
    argv = [sys.executable, str(CHILD), str(record), "1" if traced else "0", "--"]
    argv += workload.args(config, out)
    with open(stdout, "wb") as so, open(rep_dir / "stderr.txt", "wb") as se:
        spawned = monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=so, stderr=se)
        poller = RssPoller(proc, kill_at)
        poller.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # interrupted (SIGTERM, Ctrl-C): leave no command running
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            exited = monotonic()
            poller.stop.set()
            poller.join()
    proc.returncode = os.waitstatus_to_exitcode(status)

    first_call = None
    if record.exists():
        first_call = json.loads(record.read_text())["first_call"]
    exit_code = proc.returncode if not poller.killed else -9
    outcome = workload.check(exit_code, out, stdout)
    if poller.killed:
        outcome.problems.append(f"killed after {HARD_LIMIT_S:g} s")
    spans = None
    if traced and exit_code == 0:
        spans = load_spans(record.with_suffix(".npz"))
    return Rep(
        traced=traced,
        exit_code=exit_code,
        wall_s=exited - spawned,
        cpu_s=usage.ru_utime + usage.ru_stime,
        setup_s=None if first_call is None else first_call - spawned,
        peak_rss_mb=max(poller.peak_kb, usage.ru_maxrss) / 1024.0,
        outcome=outcome,
        spans=spans,
    )


def load_spans(path: Path) -> dict:
    import numpy as np

    spans: dict[str, dict] = {}
    with np.load(path) as data:
        for key in data.files:
            kind, name = key.split(":", 1)
            spans.setdefault(name, {})[kind] = data[key]
    return spans


# ---------------------------------------------------------------------------
# metrics


def median_or_zero(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def end_to_end(reps: list[Rep]) -> dict[str, tuple[float, str]]:
    timed = [r for r in reps if r.outcome.failed == 0 and r.setup_s is not None]
    work_s = [(r.wall_s - r.setup_s) * r.scale for r in timed]
    return {
        "setup_s": (median_or_zero(r.setup_s * r.scale for r in timed), "s"),
        "wall_s": (median_or_zero(r.wall_s * r.scale for r in timed), "s"),
        "slots_per_s": (median_or_zero(r.outcome.slots / w for r, w in zip(timed, work_s)), "1/s"),
        "frames_per_s": (
            median_or_zero(r.outcome.frames / w for r, w in zip(timed, work_s)),
            "1/s",
        ),
        "peak_rss_mb": (median_or_zero(r.peak_rss_mb for r in timed), "MiB"),
    }


# direct callees of the engine's `run`; with its self time they make up its busy time
RUN_CHILDREN = (
    "controller.decide",
    "controller.certificate",
    "core.sample_frame",
    "simulation.frame_stats_add",
    "simulation.external_sample",
)


def layer_metrics(spans: dict, outcome: Outcome, scale: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced command, times in reference seconds."""
    import numpy as np

    def ns(name):
        return spans[name]["ns"] if name in spans else np.zeros(0, dtype=np.int64)

    def busy(name):
        return float(ns(name).sum()) * scale / 1e9

    def self_s(name):
        child = int(spans[name]["child_ns"]) if name in spans else 0
        return (float(ns(name).sum()) - child) * scale / 1e9

    def calls(name):
        return float(ns(name).size)

    def us(name, q):
        durations = ns(name)
        return float(np.percentile(durations, q)) * scale / 1e3 if durations.size else 0.0

    certificate = spans.get("controller.certificate", {})
    # validate reports sampled frames and their slots, but simulates none
    simulated = calls("simulation.run") > 0
    engine_self = self_s("simulation.run")
    return {
        "controller.decide_calls": (calls("controller.decide"), "count"),
        "controller.decide_busy_s": (busy("controller.decide"), "s"),
        "controller.decide_us_p50": (us("controller.decide", 50), "us"),
        "controller.decide_us_p99": (us("controller.decide", 99), "us"),
        "controller.certificate_calls": (calls("controller.certificate"), "count"),
        "controller.certificate_busy_s": (busy("controller.certificate"), "s"),
        "controller.certificate_us_p50": (us("controller.certificate", 50), "us"),
        "controller.certificate_failed": (float(certificate.get("false", 0)), "count"),
        "scheduling.sample_calls": (calls("scheduling.sample"), "count"),
        "scheduling.sample_busy_s": (busy("scheduling.sample"), "s"),
        "scheduling.sample_us_p50": (us("scheduling.sample", 50), "us"),
        "scheduling.sample_us_p99": (us("scheduling.sample", 99), "us"),
        "core.sample_frame_busy_s": (busy("core.sample_frame"), "s"),
        "core.frame_outcome_calls": (calls("core.frame_outcome"), "count"),
        "core.frame_outcome_busy_s": (busy("core.frame_outcome"), "s"),
        "core.validate_self_s": (self_s("core.validate_model"), "s"),
        "simulation.run_busy_s": (busy("simulation.run"), "s"),
        "simulation.engine_self_s": (engine_self, "s"),
        "simulation.engine_self_us_per_slot": (
            engine_self / outcome.slots * 1e6 if simulated else 0.0,
            "us",
        ),
        "simulation.frames": (float(outcome.frames) if simulated else 0.0, "count"),
        "simulation.frame_stats_add_busy_s": (busy("simulation.frame_stats_add"), "s"),
        "simulation.external_sample_s": (busy("simulation.external_sample"), "s"),
        "cli.run_experiment_s": (busy("cli.run_experiment"), "s"),
        "cli.self_s": (self_s("cli.run_experiment"), "s"),
        "config.parse_s": (busy("config.parse"), "s"),
        "scheduling.build_instance_s": (busy("scheduling.build_instance"), "s"),
        "benchmark.solve_lp_s": (busy("benchmark.solve_lp"), "s"),
        "simplex.solve_s": (busy("simplex.solve"), "s"),
    }


def run_identity_residual_ns(spans: dict) -> int:
    """Busy time of `run` not covered by its self time and its callees' spans.

    0 as long as every wrapped call made inside `run` is one of RUN_CHILDREN.
    """
    if "simulation.run" not in spans:
        return 0
    children = sum(int(spans[name]["ns"].sum()) for name in RUN_CHILDREN if name in spans)
    return int(spans["simulation.run"]["child_ns"]) - children


def per_layer(reps: list[Rep]) -> dict[str, tuple[float, str]]:
    traced = [r for r in reps if r.spans is not None]
    per_rep = [layer_metrics(r.spans, r.outcome, r.scale) for r in traced]
    names = layer_metrics({}, Outcome(0), 1.0)
    metrics = {
        name: (median_or_zero(m[name][0] for m in per_rep), unit)
        for name, (_, unit) in names.items()
    }
    untraced_wall = median_or_zero(
        r.wall_s * r.scale for r in reps if not r.traced and r.outcome.failed == 0
    )
    traced_wall = median_or_zero(r.wall_s * r.scale for r in traced)
    overhead = traced_wall / untraced_wall - 1 if traced_wall and untraced_wall else 0.0
    metrics["trace.overhead_frac"] = (overhead, "fraction")
    # simulated statistics: identical in every run of one seed, 0 for validate
    first = reps[0].outcome
    metrics["lp_gap"] = (first.lp_gap or 0.0, "energy/slot")
    metrics["avg_backlog"] = (first.avg_backlog or 0.0, "jobs")
    return metrics


# ---------------------------------------------------------------------------
# the invocation


def environment(loadavg: tuple[float, float, float]) -> dict:
    try:
        # the ceiling keeps git from looking for a repository above the checkout
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    import numpy

    env = child_env()
    return {
        "git_commit": commit,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas_thread_env": {var: env.get(var) for var in BLAS_THREAD_VARS},
        "loadavg_at_start": loadavg,
    }


def enough_runs(reps: list[Rep], kinds: tuple[bool, ...]) -> bool:
    return all(sum(r.traced == kind for r in reps) >= MIN_REPS for kind in kinds)


def measure(
    workload: Workload, seed: int, seconds: int, kinds: tuple[bool, ...], work: Path
) -> list[Rep]:
    """Run the workload's command, alternating over `kinds` (traced or not)."""
    config = work / "experiment.cfg"
    config.write_text(workload.config(seed))
    kill_at = monotonic() + HARD_LIMIT_S
    # compile the package and pull numpy into the page cache before timing; a
    # failure here shows again, and is reported, in the measured runs
    warm_up = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import renewalopt.cli"
    subprocess.run([sys.executable, "-c", warm_up], cwd=ROOT, env=child_env(), timeout=60)
    deadline = monotonic() + seconds
    reps: list[Rep] = []
    calibration = [calibration_loop()]
    while True:
        traced = kinds[len(reps) % len(kinds)]
        rep = run_command(workload, config, work / f"rep{len(reps)}", traced, kill_at)
        calibration.append(calibration_loop())
        rep.scale = CALIBRATION_REF_S / statistics.fmean(calibration[-2:])
        reps.append(rep)
        now = monotonic()
        if (now >= deadline and enough_runs(reps, kinds)) or now >= kill_at:
            return reps


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not PROGRAM.is_file():
        print(f"no renewalopt sources at {PROGRAM.parent}", file=sys.stderr)
        return 2

    # turn SIGTERM into SystemExit, so the running command is stopped and the
    # work directory removed on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = WORKLOADS[args.workload]
    loadavg = os.getloadavg()
    work = HERE / "work" / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    kinds = (False, True) if args.trace else (False,)
    try:
        reps = measure(workload, args.seed, args.seconds, kinds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r.outcome.cells for r in reps)
    failed = sum(r.outcome.failed for r in reps)
    digests = sorted({r.outcome.digest for r in reps if r.outcome.digest})
    problems = [f"run {i}: {p}" for i, r in enumerate(reps) for p in r.outcome.problems]
    if len(digests) > 1:
        problems.append(f"outputs differ between runs of one seed: {digests}")
    if not enough_runs(reps, kinds):
        problems.append(f"fewer than {MIN_REPS} runs finished within {HARD_LIMIT_S:g} s")
    correct = failed == 0 and not problems

    metrics = per_layer(reps) if args.trace else end_to_end(reps)
    env = environment(loadavg)
    result = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "trace": args.trace,
        "output_sha256": digests[0] if len(digests) == 1 else digests,
        "lp_gap": reps[0].outcome.lp_gap,
        "avg_backlog": reps[0].outcome.avg_backlog,
        "simulated_slots": reps[0].outcome.slots,
        "frames": reps[0].outcome.frames,
        "environment": env,
        "problems": problems,
        "runs": [
            {
                "traced": r.traced,
                "exit_code": r.exit_code,
                "wall_s": r.wall_s,
                "cpu_s": r.cpu_s,
                "scale": r.scale,
                "setup_s": r.setup_s,
                "peak_rss_mb": r.peak_rss_mb,
                "cells": r.outcome.cells,
                "failed": r.outcome.failed,
                "run_identity_residual_ns": (
                    None if r.spans is None else run_identity_residual_ns(r.spans)
                ),
            }
            for r in reps
        ],
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    record = results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(result, indent=1) + "\n")

    for problem in problems:
        print(f"problem: {problem}")
    print(f"workload {workload.name} seed {args.seed}: {len(reps)} runs")
    print(f"output sha256: {result['output_sha256']}")
    print(f"environment: {json.dumps(env)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    summary = {"correct": correct, "attempted": attempted, "failed": failed}
    print(json.dumps({**summary, "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
