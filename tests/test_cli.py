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
    # a Table-1 trace holds 8 * (1 + 3 * 3) bytes per slot plus 24 per frame
    # for each of 5 systems, estimated at ceil(slots / 7.5) frames (7.5 is
    # the shortest class's t_hat); with the memory budget one byte short of
    # that the run must stop before its first cell
    def no_cell(*args, **kwargs):
        raise AssertionError("a cell started")

    need = 80 * 200_000 + 24 * 5 * 26_667
    monkeypatch.setattr(cli, "_memory_budget", lambda: need - 1)
    monkeypatch.setattr(cli, "run", no_cell)
    cfg = write_config(tmp_path, BASE + f"out = {tmp_path / 'res'}\n")
    assert main(["run", cfg, "--slots", "200000"]) == 1
    err = capsys.readouterr().err
    assert "slots: 200000 slots need a 18.3 MiB trace per cell" in err
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
    assert "slots: 200000 slots need a 137.3 MiB trace per cell" in capsys.readouterr().err
    assert not (tmp_path / "res").exists()
    # at exactly the budget the grid runs
    monkeypatch.undo()
    monkeypatch.setattr(cli, "_memory_budget", lambda: 80 * 400 + 24 * 5 * 54)
    assert main(["run", cfg]) == 0


def test_oversized_validate_exits_1_before_any_sample(tmp_path, capsys, monkeypatch):
    # validate's columns take 8 * (2 + 3) bytes per Table-1 sample and action;
    # with the budget one byte short of that it must stop before sampling
    def no_sample(*args, **kwargs):
        raise AssertionError("sampling started")

    monkeypatch.setattr(cli, "_memory_budget", lambda: 40 * 100_000 - 1)
    monkeypatch.setattr(cli, "validate_model", no_sample)
    cfg = write_config(tmp_path, "instance = table1\nslots = 10\n")
    assert main(["validate", cfg, "--samples", "100000"]) == 1
    err = capsys.readouterr().err
    assert "samples: 100000 samples need a 3.8 MiB sample table per action" in err
    # at exactly the budget it samples
    monkeypatch.undo()
    monkeypatch.setattr(cli, "_memory_budget", lambda: 40 * 1000)
    assert main(["validate", cfg, "--samples", "1000"]) == 0
    assert "action 0: samples=1000 " in capsys.readouterr().out


def test_memory_budget_is_physical_memory():
    budget = cli._memory_budget()
    assert isinstance(budget, int) and budget > 2**20


def test_missing_config_exit_code(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.cfg")]) == 1
    assert "nope.cfg" in capsys.readouterr().err


def test_infeasible_benchmark_leaves_gap_blank(tmp_path):
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
    # stationary weights cannot be derived from an infeasible benchmark
    cfg2 = write_config(
        tmp_path,
        "instance = table1\nservers = 2\npolicy = stationary\nseeds = 1\n"
        f"slots = 200\nout = {out}\n",
        name="stat.cfg",
    )
    assert main(["run", cfg2]) == 2


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
SUMMARY_FINGERPRINT = "df29c21084c3ff9e266926104a009544a7f5c7a574e77cf6c187bb5662796f48"
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
VALIDATE_FINGERPRINT = "2107e4481917405595620af0ab938db12225efb16dc35630182c80d2827ee049"


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
CHECKED_SUMMARY_FINGERPRINT = "608ce2feec641b743bbc4b572d1e46cab4670b594442b78386d30d855362b27f"
CHECKED_TRAJECTORY_FINGERPRINT = "f964537970e78dae44266165fd41d87ac826904869f5410d921aacb0f0f6a882"
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
