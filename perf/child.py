"""Run one `renewalopt` command in this process and record when its work began.

    python3 perf/child.py RECORD TRACE -- <renewalopt arguments>

Imports `renewalopt.cli` from the checkout's `src/`, notes the monotonic
clock at the first call into the simulation engine (`run`) or into
`validate_model`, runs `renewalopt.cli.main` with the given arguments, and
writes that time to RECORD (JSON) before exiting with the command's exit
code.

With TRACE = 1 the public functions of each layer are wrapped from outside,
at the names their callers look up at call time, and every call's duration
is kept in memory.  They are written to RECORD's sibling `.npz` after the
command returns, and the original functions are restored.  Nothing under
`src/` is changed.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# exit code for "the checkout's renewalopt could not be imported"; the CLI
# itself uses 0-3
EXIT_NO_PROGRAM = 90


def monotonic() -> float:
    """Seconds on CLOCK_MONOTONIC, which the parent process reads too."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class FirstCall:
    """Records the clock at the first call of any function it wraps."""

    def __init__(self):
        self.at: float | None = None
        self._restore: list = []

    def wrap(self, owner, attr: str) -> None:
        original = vars(owner)[attr]

        def marked(*args, **kwargs):
            if self.at is None:
                self.at = monotonic()
            return original(*args, **kwargs)

        setattr(owner, attr, marked)
        self._restore.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


class Spans:
    """Outside wrappers that time each call and charge it to its caller.

    A span's self time is its duration minus the durations of the wrapped
    calls made directly inside it.  Calls are nested on one thread, so a
    stack of open spans is enough to find the caller.
    """

    def __init__(self):
        self.durations: dict[str, list[int]] = {}
        self.child_ns: dict[str, int] = {}
        self.false_results: dict[str, int] = {}
        self._stack: list[list[int]] = []
        self._restore: list = []

    def wrap(self, owner, attr: str, name: str, count_false: bool = False) -> None:
        original = vars(owner)[attr]
        durations = self.durations.setdefault(name, [])
        self.child_ns.setdefault(name, 0)
        self.false_results.setdefault(name, 0)
        stack = self._stack
        child_ns = self.child_ns
        false_results = self.false_results
        clock = time.perf_counter_ns

        def timed(*args, **kwargs):
            open_span = [0]
            stack.append(open_span)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                durations.append(elapsed)
                child_ns[name] += open_span[0]
                if stack:
                    stack[-1][0] += elapsed
            if count_false and result is False:
                false_results[name] += 1
            return result

        setattr(owner, attr, timed)
        self._restore.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def save(self, path: Path) -> None:
        import numpy as np

        arrays = {}
        for name, durations in self.durations.items():
            arrays[f"ns:{name}"] = np.asarray(durations, dtype=np.int64)
            arrays[f"child_ns:{name}"] = np.asarray(self.child_ns[name], dtype=np.int64)
            arrays[f"false:{name}"] = np.asarray(self.false_results[name], dtype=np.int64)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)


def install_spans(spans: Spans) -> None:
    """Wrap each layer at the name its caller resolves when it calls."""
    from renewalopt import benchmark, cli, core, scheduling, simulation

    # both solvers are one layer, the per-frame decision
    spans.wrap(simulation, "solve_enumerate", "controller.decide")
    spans.wrap(simulation, "solve_bisection", "controller.decide")
    spans.wrap(simulation, "ratio_bound_holds", "controller.certificate", count_false=True)
    spans.wrap(simulation, "sample_frame", "core.sample_frame")
    spans.wrap(scheduling.ServiceIdleSampler, "sample", "scheduling.sample")
    spans.wrap(core.FrameOutcome, "__post_init__", "core.frame_outcome")
    spans.wrap(simulation.FrameStats, "add", "simulation.frame_stats_add")
    spans.wrap(simulation.ExternalProcess, "sample_matrix", "simulation.external_sample")
    spans.wrap(cli, "run", "simulation.run")
    spans.wrap(cli, "run_experiment", "cli.run_experiment")
    spans.wrap(cli, "parse_config", "config.parse")
    spans.wrap(cli, "build_instance", "scheduling.build_instance")
    spans.wrap(cli, "solve_lp", "benchmark.solve_lp")
    spans.wrap(benchmark, "simplex_solve", "simplex.solve")
    spans.wrap(cli, "validate_model", "core.validate_model")


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--" or argv[1] not in ("0", "1"):
        print("usage: child.py RECORD TRACE -- <renewalopt arguments>", file=sys.stderr)
        return 2
    record_path = Path(argv[0])
    traced = argv[1] == "1"
    command = argv[3:]

    sys.path.insert(0, str(SRC))
    try:
        import renewalopt.cli as cli
    except ImportError as exc:
        print(f"cannot import renewalopt from {SRC}: {exc}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    if Path(cli.__file__).resolve().parent != SRC / "renewalopt":
        print(f"renewalopt came from {cli.__file__}, not {SRC}", file=sys.stderr)
        return EXIT_NO_PROGRAM

    first = FirstCall()
    first.wrap(cli, "run")
    first.wrap(cli, "validate_model")
    spans = Spans() if traced else None
    if spans is not None:
        install_spans(spans)
    try:
        code = cli.main(command)
    finally:
        if spans is not None:
            spans.restore()
        first.restore()
    if spans is not None:
        spans.save(record_path.with_suffix(".npz"))
    record_path.write_text(json.dumps({"first_call": first.at}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
