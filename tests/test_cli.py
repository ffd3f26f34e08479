import csv
import hashlib

import numpy as np
import pytest

from renewalopt import cli
from renewalopt.cli import main, run_experiment
from renewalopt.config import parse_config
from renewalopt.simulation import QueueTrajectory


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


BASE = "instance = table1\nv = 1 10\nseeds = 1 2\nslots = 400\n"


def test_run_writes_summary_and_lp(tmp_path):
    cfg = write_config(tmp_path, BASE + f"out = {tmp_path / 'res'}\n")
    assert main(["run", cfg]) == 0
    rows = read_csv(tmp_path / "res" / "summary.csv")
    header, body = rows[0], rows[1:]
    assert header[:5] == ["policy", "v", "seed", "slots", "avg_penalty"]
    assert header[-3:] == ["frames_total", "lp_objective", "gap"]
    assert "avg_metric_1" in header and "final_queue_3" in header
    assert len(body) == 4  # two V values times two seeds
    assert [r[1] for r in body] == ["1", "1", "10", "10"]
    assert [r[2] for r in body] == ["1", "2", "1", "2"]
    assert all(r[0] == "dpp_ratio" and r[3] == "400" for r in body)
    # gap column equals avg_penalty - lp_objective at 9 significant digits
    for r in body:
        assert float(r[-1]) == pytest.approx(float(r[4]) - float(r[-2]), abs=1e-6)

    lp_rows = read_csv(tmp_path / "res" / "lp.csv")
    assert lp_rows[0] == ["record", "system", "index", "value"]
    assert lp_rows[1][0] == "status" and lp_rows[1][3] == "optimal"
    assert lp_rows[2][0] == "objective"
    records = {r[0] for r in lp_rows[1:]}
    assert {"weight", "achieved", "dual", "reference_f", "reference_g",
            "policy_weight"} <= records


def test_reruns_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, BASE + f"out = {tmp_path / 'res'}\n")
    assert main(["run", cfg]) == 0
    first = (tmp_path / "res" / "summary.csv").read_bytes()
    first_lp = (tmp_path / "res" / "lp.csv").read_bytes()
    assert main(["run", cfg]) == 0
    assert (tmp_path / "res" / "summary.csv").read_bytes() == first
    assert (tmp_path / "res" / "lp.csv").read_bytes() == first_lp


def test_out_slots_and_seed_overrides(tmp_path):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "elsewhere"
    assert main(["run", cfg, "--out", str(out), "--slots", "200", "--seed", "7"]) == 0
    body = read_csv(out / "summary.csv")[1:]
    assert len(body) == 2  # the seed list collapses to the single override
    assert all(r[2] == "7" and r[3] == "200" for r in body)


def test_trajectory_files(tmp_path):
    out = tmp_path / "res"
    cfg = write_config(
        tmp_path,
        "instance = table1\nv = 10\nseeds = 3\nslots = 300\n"
        f"trajectories = on\nout = {out}\n",
    )
    assert main(["run", cfg]) == 0
    rows = read_csv(out / "trajectory_10_3.csv")
    assert rows[0] == ["t", "q_1", "q_2", "q_3"]
    assert rows[1][0] == "0"
    assert rows[-1][0] == "300"
    assert all(float(x) >= 0 for row in rows[1:] for x in row[1:])


def test_check_flag_clean_run(tmp_path):
    out = tmp_path / "res"
    cfg = write_config(
        tmp_path,
        f"instance = table1\nv = 20\nseeds = 1\nslots = 500\nout = {out}\n",
    )
    assert main(["run", cfg, "--check"]) == 0


def test_stationary_policy_run(tmp_path):
    out = tmp_path / "res"
    cfg = write_config(
        tmp_path,
        "instance = table1\npolicy = stationary\nseeds = 1 2\nslots = 400\n"
        f"out = {out}\n",
    )
    assert main(["run", cfg]) == 0
    body = read_csv(out / "summary.csv")[1:]
    assert len(body) == 2
    assert all(r[0] == "stationary" and r[1] == "" for r in body)


def test_lp_subcommand(tmp_path, capsys):
    out = tmp_path / "res"
    cfg = write_config(tmp_path, f"instance = table1\nslots = 10\nout = {out}\n")
    assert main(["lp", cfg]) == 0
    captured = capsys.readouterr().out
    assert "optimal" in captured
    assert "16.1394433" in captured
    assert (out / "lp.csv").exists()
    assert not (out / "summary.csv").exists()


def test_validate_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path, "instance = table1\nslots = 10\n")
    assert main(["validate", cfg, "--samples", "4000"]) == 0
    captured = capsys.readouterr().out
    assert "action" in captured
    assert "ok" in captured


def test_config_error_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, "instance = table1\nslots = 10\nspeed = 9\n")
    assert main(["run", cfg]) == 1
    err = capsys.readouterr().err
    assert "line 3" in err and "speed" in err


def test_negative_seeds_and_bad_overrides_exit_1(tmp_path, capsys):
    cfg = write_config(tmp_path, "instance = table1\nslots = 10\nseeds = -3\n")
    assert main(["run", cfg]) == 1
    assert "line 3: seeds" in capsys.readouterr().err
    cfg = write_config(tmp_path, "instance = table1\nslots = 10\nseeds = 1 1\n", name="twice.cfg")
    assert main(["run", cfg]) == 1
    assert "line 3: seeds: a seed repeats" in capsys.readouterr().err
    cfg = write_config(tmp_path, BASE, name="base.cfg")
    assert main(["run", cfg, "--seed", "-1"]) == 1
    assert "seed: must be >= 0" in capsys.readouterr().err
    assert main(["run", cfg, "--slots", "0"]) == 1
    assert "slots: must be >= 1" in capsys.readouterr().err
    assert main(["validate", cfg, "--samples", "0"]) == 1
    assert "samples: must be >= 1" in capsys.readouterr().err


def test_empty_out_exits_1_and_writes_nothing(tmp_path, capsys, monkeypatch):
    # an empty out = or --out would name the working directory
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    cfg = write_config(tmp_path, "instance = table1\nslots = 10\nout =\n")
    assert main(["run", cfg]) == 1
    assert "line 3: out: empty path" in capsys.readouterr().err
    cfg = write_config(tmp_path, "instance = table1\nslots = 10\n", name="flag.cfg")
    for command in ("run", "lp"):
        assert main([command, cfg, "--out", ""]) == 1
        assert "out: empty path" in capsys.readouterr().err
    assert list(work.iterdir()) == []


def test_trajectory_rows_are_fmt_of_each_value(tmp_path):
    # one value per %g notation and sign case, written as _fmt writes a float
    values = [0.0, 1e-5, 123456789012.0, 1.5, 1e300, -0.0, -1e-5, -1.5]
    queues = np.array([values[:4], values[4:]])
    trajectory = QueueTrajectory(np.array([0, 7]), queues)
    path = tmp_path / "trajectory.csv"
    cli._write_trajectory(path, trajectory)
    expected = "t,q_1,q_2,q_3,q_4\r\n" + "".join(
        ",".join([str(t)] + [format(float(x), ".9g") for x in row]) + "\r\n"
        for t, row in ((0, values[:4]), (7, values[4:]))
    )
    assert path.read_bytes() == expected.encode()
    assert "1.23456789e+11" in expected and "1e+300" in expected and "-0," in expected


def test_oversized_horizon_exits_1_before_any_cell(tmp_path, capsys, monkeypatch):
    # a Table-1 trace holds 8 * (1 + 3 * 3) bytes per slot plus 8 * (5 + 3)
    # per frame for each of 5 systems, estimated at ceil(slots / 7.5) frames
    # (7.5 is the shortest class's t_hat), and the y fold copies each frame's
    # start and rate, 16 bytes; one system's drawn blocks and actions, 8 * (4 + 3)
    # bytes a frame, wait beside the columns, and each of the 5 * 3 (system,
    # action) streams holds a pending block of 64 frames at 8 * (24 + 3) bytes;
    # with the memory budget one byte short of that the run must stop
    # before its first cell
    def no_cell(*args, **kwargs):
        raise AssertionError("a cell started")

    pending = 216 * 64 * 3
    need = 80 * 200_000 + 80 * 5 * 26_667 + 56 * 26_667 + 5 * pending
    monkeypatch.setattr(cli, "_memory_budget", lambda: need - 1)
    monkeypatch.setattr(cli, "run", no_cell)
    cfg = write_config(tmp_path, BASE + f"out = {tmp_path / 'res'}\n")
    assert main(["run", cfg, "--slots", "200000"]) == 1
    err = capsys.readouterr().err
    assert "slots: 200000 slots need a 27.1 MiB trace per cell" in err
    assert not (tmp_path / "res").exists()
    # with 200 servers the frame logs outweigh the series: a budget that
    # holds the series alone must stop the run too
    many = write_config(
        tmp_path,
        f"instance = table1\nservers = 200\nslots = 200000\nout = {tmp_path / 'res'}\n",
        name="many.cfg",
    )
    monkeypatch.setattr(cli, "_memory_budget", lambda: 80 * 200_000)
    assert main(["run", many]) == 1
    assert "slots: 200000 slots need a 431.5 MiB trace per cell" in capsys.readouterr().err
    assert not (tmp_path / "res").exists()
    # at exactly the budget the grid runs
    monkeypatch.undo()
    monkeypatch.setattr(cli, "_memory_budget", lambda: 80 * 400 + 80 * 5 * 54 + 56 * 54 + 5 * pending)
    assert main(["run", cfg]) == 0


def test_oversized_validate_exits_1_before_any_sample(tmp_path, capsys, monkeypatch):
    # validate's block columns and temporaries take 8 * (16 + 3) bytes per
    # Table-1 sample and action; with the budget one byte short of that it
    # must stop before sampling
    def no_sample(*args, **kwargs):
        raise AssertionError("sampling started")

    monkeypatch.setattr(cli, "_memory_budget", lambda: 152 * 100_000 - 1)
    monkeypatch.setattr(cli, "validate_model", no_sample)
    cfg = write_config(tmp_path, "instance = table1\nslots = 10\n")
    assert main(["validate", cfg, "--samples", "100000"]) == 1
    err = capsys.readouterr().err
    assert "samples: 100000 samples need a 14.5 MiB sample table per action" in err
    # at exactly the budget it samples
    monkeypatch.undo()
    monkeypatch.setattr(cli, "_memory_budget", lambda: 152 * 1000)
    assert main(["validate", cfg, "--samples", "1000"]) == 0
    assert "action 0: samples=1000 " in capsys.readouterr().out


def test_oversized_server_count_exits_1_before_building(tmp_path, capsys, monkeypatch):
    # 10**12 servers: the benchmark LP's dense tableau alone, (N + L + 1) rows
    # by (L + 1) * N + 2L + 1 columns of doubles, cannot fit; run and lp stop
    # before the instance is built, naming servers
    def no_build(*args, **kwargs):
        raise AssertionError("the instance was built")

    monkeypatch.setattr(cli, "build_instance", no_build)
    text = f"instance = table1\nservers = {10**12}\nslots = 1000\nout = {tmp_path / 'res'}\n"
    cfg = write_config(tmp_path, text)
    for command in ("run", "lp"):
        assert main([command, cfg]) == 1
        assert "servers: 1000000000000 servers need a " in capsys.readouterr().err
    assert not (tmp_path / "res").exists()
    # validate samples one server's model, which is every server's
    monkeypatch.undo()
    assert main(["validate", cfg, "--samples", "200"]) == 0
    assert capsys.readouterr().out.startswith("model (all servers): ok")


def test_memory_error_says_what_ran_out(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli, "build_instance", exhausted)
    assert main(["run", write_config(tmp_path, BASE)]) == 2
    assert capsys.readouterr().err == "error: out of memory\n"


CLASS_BLOCK = (
    "[class]\narrival_rate = 1.0\nservice_mean = 3.0\njobs_support = 4 8\n"
    "energy = 6.0\nidle_mean = 2.0\n"
)


@pytest.mark.parametrize(
    "key, bad, largest",
    [
        # numpy's Generator.poisson rejects a larger mean ("lam value too large")
        ("arrival_rate", "1e300", "9.22337200648477e+18"),
        # z_max = float(jobs_high) would round down to 2**53, below a count drawn
        ("jobs_support", "9007199254740991 9007199254740993", "9007199254740990 9007199254740992"),
        # a geometric phase of mean m stays below 45 m, so frame lengths stay int64
        ("service_mean", "9007199254740994", "9007199254740992"),
    ],
)
def test_class_values_past_the_sampler_limits_exit_1(tmp_path, capsys, key, bad, largest):
    # the config is refused on its [class] line, and the largest value
    # accepted runs clean under --check
    old = next(ln for ln in CLASS_BLOCK.splitlines() if ln.startswith(key))
    base = "instance = custom\nservers = 2\nidle_power = 1.0\nv = 5\nslots = 300\n"
    cfg = write_config(tmp_path, base + CLASS_BLOCK.replace(old, f"{key} = {bad}"))
    assert main(["run", cfg, "--check", "--out", str(tmp_path / "bad")]) == 1
    assert "line 7: class 1: " in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()
    cfg = write_config(tmp_path, base + CLASS_BLOCK.replace(old, f"{key} = {largest}"))
    assert main(["run", cfg, "--check", "--out", str(tmp_path / "ok")]) == 0


def test_widest_job_count_support_runs_checked_and_validates(tmp_path, capsys):
    # the job count is one 64-bit draw: a support of 2**53 - 1 values, past
    # the 2**32 - 1 a 32-bit draw covers, runs clean under --check and its
    # samples agree with the declared triple
    old = next(ln for ln in CLASS_BLOCK.splitlines() if ln.startswith("jobs_support"))
    base = "instance = custom\nservers = 2\nidle_power = 1.0\nv = 5\nslots = 300\n"
    widest = CLASS_BLOCK.replace(old, "jobs_support = 1 9007199254740991")
    cfg = write_config(tmp_path, base + widest)
    assert main(["run", cfg, "--check", "--out", str(tmp_path / "res")]) == 0
    assert main(["validate", cfg, "--samples", "2000"]) == 0
    assert capsys.readouterr().out.startswith("model (all servers): ok\n")


def test_overflowing_penalties_exit_1_before_any_cell(tmp_path, capsys, monkeypatch):
    # with energy 1e308, V * y_hat (the decision's penalty term) and
    # N * y_max * slots (the largest horizon penalty total) overflow, so the
    # run would decide on inf and write inf averages: it stops before its
    # first cell, naming the key
    def no_cell(*args, **kwargs):
        raise AssertionError("a cell started")

    monkeypatch.setattr(cli, "run", no_cell)
    base = "instance = custom\nservers = 2\nidle_power = 1.0\nslots = 300\n"
    huge = CLASS_BLOCK.replace("energy = 6.0", "energy = 1e308")
    for policy, message in (
        ("v = 5\n", "v: V * y_hat = 5.0 * 1e+308 overflows"),
        ("policy = stationary\n", "slots: the largest penalty total N * y_max * slots overflows"),
    ):
        cfg = write_config(tmp_path, base + policy + huge)
        assert main(["run", cfg, "--check", "--out", str(tmp_path / "res")]) == 1
        assert message in capsys.readouterr().err
    assert not (tmp_path / "res").exists()
    # at energy 1e305 both stay finite and the run is clean
    monkeypatch.undo()
    cfg = write_config(tmp_path, base + "v = 5\n" + huge.replace("1e308", "1e305"))
    assert main(["run", cfg, "--check", "--out", str(tmp_path / "res")]) == 0
    assert all(np.isfinite(float(x)) for x in read_csv(tmp_path / "res" / "summary.csv")[1][1:])


def test_memory_budget_is_physical_memory():
    budget = cli._memory_budget()
    assert isinstance(budget, int) and budget > 2**20


def test_missing_config_exit_code(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.cfg")]) == 1
    assert "nope.cfg" in capsys.readouterr().err


def test_infeasible_benchmark_leaves_gap_blank(tmp_path, capsys):
    # two servers cannot cover the preset's nine jobs per slot
    out = tmp_path / "res"
    cfg = write_config(
        tmp_path,
        f"instance = table1\nservers = 2\nv = 10\nseeds = 1\nslots = 200\nout = {out}\n",
    )
    assert main(["run", cfg]) == 0
    body = read_csv(out / "summary.csv")[1:]
    assert body[0][-2] == "" and body[0][-1] == ""
    lp_rows = read_csv(out / "lp.csv")
    assert lp_rows[1] == ["status", "", "", "infeasible"]
    # stationary weights cannot be derived from an infeasible benchmark: a
    # config error on the weights key, before anything is written
    cfg2 = write_config(
        tmp_path,
        "instance = table1\nservers = 2\npolicy = stationary\nseeds = 1\n"
        f"slots = 200\nout = {tmp_path / 'stat'}\n",
        name="stat.cfg",
    )
    assert main(["run", cfg2]) == 1
    assert "weights: lp needs an optimal benchmark, and this instance's is infeasible" in (
        capsys.readouterr().err
    )
    assert not (tmp_path / "stat").exists()


def test_custom_instance_run(tmp_path):
    out = tmp_path / "res"
    cfg = write_config(
        tmp_path,
        "instance = custom\nservers = 2\nidle_power = 1.0\nv = 5\nseeds = 1\n"
        f"slots = 300\nout = {out}\n"
        "[class]\narrival_rate = 1.0\nservice_mean = 3.0\njobs_support = 4 8\n"
        "energy = 6.0\nidle_mean = 2.0\n",
    )
    assert main(["run", cfg]) == 0
    body = read_csv(out / "summary.csv")[1:]
    assert len(body) == 1
    assert float(body[0][4]) > 0  # energy rate is positive


# SHA-256 of summary.csv for FINGERPRINT_CONFIG; any change to the engine, a
# solver, the sampler or the number formatting that moves a single byte of
# the output changes it, so an edit meant to keep outputs fixed must keep it
SUMMARY_FINGERPRINT = "4a5dd5467c92cfcb32c557e9cb42ec0f8a37deb6cedce15ae8f6fe0d4c4b4565"
# and of its lp.csv, which pins the LP's weights and duals to 9 digits
LP_FINGERPRINT = "af74782fcf99bf23b3c42b28e3237c9979938ff69b7e79a564a25d82f4d824a0"
FINGERPRINT_CONFIG = "instance = table1\nv = 10 100\nseeds = 1\nslots = 2000\n"


def test_summary_fingerprint(tmp_path):
    cfg = parse_config(FINGERPRINT_CONFIG)
    assert run_experiment(cfg, out_dir=str(tmp_path)) == 0
    for name, expected in (("summary.csv", SUMMARY_FINGERPRINT), ("lp.csv", LP_FINGERPRINT)):
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest == expected, name


# SHA-256 of the stdout of `validate --samples 4000` on Table 1; pins every
# printed estimate and declaration, and the single "model (all servers)" block
VALIDATE_FINGERPRINT = "0d938c555ad0961c6bbc9eea5d9c09afc82e9c7dde6b06c0da552af44f036ebf"


def test_validate_fingerprint(tmp_path, capsys):
    cfg = write_config(tmp_path, "instance = table1\nslots = 10\n")
    assert main(["validate", cfg, "--samples", "4000"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == VALIDATE_FINGERPRINT


# the wider instance with Dinkelbach and the per-frame certificate on: 12
# servers, 6 classes, so 6 actions over 6 metrics; the only fingerprint of
# solve_bisection and ratio_bound_holds beyond Table 1's 3 x 3
CHECKED_CONFIG = (
    "instance = custom\nservers = 12\nidle_power = 2.0\npolicy = dpp_ratio\n"
    "solver = bisection\nv = 100\nslots = 8000\nseeds = 1\n"
    "trajectories = on\ncheck = on\n"
    + "".join(
        f"[class]\narrival_rate = {a}\nservice_mean = {s}\njobs_support = {lo} {hi}\n"
        f"energy = {e}\nidle_mean = {i}\n"
        for a, s, lo, hi, e, i in (
            (3.0, 2.0, 4, 10, 9, 1.5),
            (2.5, 2.5, 6, 12, 11, 2.0),
            (2.0, 1.8, 3, 9, 7, 1.4),
            (3.5, 3.0, 8, 16, 14, 1.6),
            (1.5, 2.2, 5, 11, 8, 1.8),
            (2.5, 1.6, 2, 8, 6, 1.3),
        )
    )
)
CHECKED_SUMMARY_FINGERPRINT = "7cb6a3c65b401ac75e1c588a260ed1fa625bae6b901bf9c6141e38bd5a47b3d4"
CHECKED_TRAJECTORY_FINGERPRINT = "da5cd4b8c5ebed32fda595ae3105bbc029d71f793c0f3d72f547c7de726136ae"
CHECKED_LP_FINGERPRINT = "506c0549191fb8e12786784bbce82715a4282981e3105bec69e80545eaa87ed5"


def test_checked_bisection_fingerprint(tmp_path):
    cfg = write_config(tmp_path, CHECKED_CONFIG)
    assert main(["run", cfg, "--out", str(tmp_path / "res")]) == 0
    for name, expected in (
        ("summary.csv", CHECKED_SUMMARY_FINGERPRINT),
        ("trajectory_100_1.csv", CHECKED_TRAJECTORY_FINGERPRINT),
        ("lp.csv", CHECKED_LP_FINGERPRINT),
    ):
        digest = hashlib.sha256((tmp_path / "res" / name).read_bytes()).hexdigest()
        assert digest == expected, name
