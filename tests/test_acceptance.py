"""End-to-end acceptance checks, one test per shipped guarantee.

The energy instance used throughout is the five-server, three-class preset;
its benchmark optimum e* has a closed form (tight service constraints for
classes 2 and 3 plus full server allocation) that the tests recompute
independently of the LP code.
"""

import csv
import functools
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from renewalopt import TABLE1, build_instance, solve_lp
from renewalopt.benchmark import (
    StationaryLP,
    extract_reference_point,
    stationary_policy_weights,
)
from renewalopt.cli import main
from renewalopt.controller import ratio_objectives, solve_bisection, solve_enumerate
from renewalopt.distributions import GeometricLength, constant_rate_model
from renewalopt.simulation import (
    DppRatioPolicy,
    RandomizedStationaryPolicy,
    SamplePath,
    check_trace,
    drift_diagnostic,
    frame_stats,
    run,
)

from conftest import brute_force_oracle, drift_bound, drift_excess

SWEEP_V = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)
SWEEP_SEEDS = (1, 2, 3)
SWEEP_SLOTS = 200_000
LAMBDA = np.array([2.0, 3.0, 4.0])


def closed_form_optimum():
    # collapsed weights: serve classes 2 and 3 exactly at their arrival
    # rates, spend the remaining server time on class 1
    f = np.array([23.5 / 8.0, 32.9 / (4.6 + 4.3), 24.1 / 7.5])
    g = np.array([15.0 / 8.0, 21.0 / (4.6 + 4.3), 17.0 / 7.5])
    w2 = 3.0 / g[1]
    w3 = 4.0 / g[2]
    w1 = 5.0 - w2 - w3
    return f[0] * w1 + f[1] * w2 + f[2] * w3


@pytest.fixture(scope="module")
def env():
    models, external, lp = build_instance(TABLE1)
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    estar = closed_form_optimum()
    assert sol.objective == pytest.approx(estar, abs=1e-9)
    return {
        "models": models,
        "external": external,
        "lp": lp,
        "sol": sol,
        "estar": estar,
    }


@pytest.fixture(scope="module")
def sweep(env):
    """One simulation per (V, seed); criteria 1-3 share it.

    The cells of a seed replay one sample path, as `renewalopt run` does.
    Only the averages the criteria read are kept, not the traces.
    """
    out = {v: [] for v in SWEEP_V}
    for seed in SWEEP_SEEDS:
        path = SamplePath(env["models"], env["external"], SWEEP_SLOTS, seed)
        for v in SWEEP_V:
            trace = run(
                env["models"], env["external"], DppRatioPolicy(v), SWEEP_SLOTS, seed, path=path
            )
            out[v].append(
                SimpleNamespace(
                    avg_penalty=trace.avg_penalty,
                    avg_metrics=trace.avg_metrics,
                    avg_queues=trace.avg_queues,
                )
            )
    return out


def seed_mean(runs, field):
    return np.mean([getattr(m, field) for m in runs], axis=0)


def criterion(num, label):
    """Guarantee one printed [acceptance] line per criterion.

    Each test body ends by printing its PASS line with measured values;
    this wrapper prints the matching FAIL line when an assertion raises.
    """

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {num} ({label}): FAIL")
                raise

        return wrapper

    return deco


@criterion(1, "energy sweep decreasing toward e*")
def test_criterion_01_energy_decreases_toward_benchmark(env, sweep):
    energy = {v: float(seed_mean(sweep[v], "avg_penalty")) for v in SWEEP_V}
    for lo, hi in zip(SWEEP_V, SWEEP_V[1:]):
        # monotone in V up to a 1% noise allowance
        assert energy[hi] <= energy[lo] * 1.01, (lo, hi, energy)
    rel = abs(energy[SWEEP_V[-1]] - env["estar"]) / env["estar"]
    assert rel <= 0.05, (energy[SWEEP_V[-1]], env["estar"], rel)
    print(
        f"[acceptance] criterion 1 (energy sweep decreasing, "
        f"V={SWEEP_V[-1]:g} within {rel:.3%} of e*): PASS"
    )


@criterion(2, "service rates meet demand")
def test_criterion_02_service_rates_meet_demand(sweep):
    served = -seed_mean(sweep[SWEEP_V[-1]], "avg_metrics")
    assert np.all(served >= LAMBDA - 0.05), served
    print(
        f"[acceptance] criterion 2 (service rates {np.round(served, 3)} "
        f">= arrival rates - 0.05): PASS"
    )


@criterion(3, "queues grow with V")
def test_criterion_03_queue_growth_with_v(sweep):
    q_small = seed_mean(sweep[10.0], "avg_queues")
    q_large = seed_mean(sweep[100.0], "avg_queues")
    grew = q_large > q_small
    # the queue backlog pays for the energy savings on binding classes
    assert grew.sum() >= 2, (q_small, q_large)
    print(
        f"[acceptance] criterion 3 (avg queues grew with V on "
        f"{int(grew.sum())}/3 classes): PASS"
    )


@criterion(4, "gap and violation scale with eps")
def test_criterion_04_epsilon_scaling(env):
    seeds = range(1, 11)
    stats = {}
    for eps in (0.2, 0.1):
        v = 1.0 / eps
        slots = int(np.ceil(10.0 / eps**2))
        gaps, viols = [], []
        for seed in seeds:
            trace = run(
                env["models"], env["external"], DppRatioPolicy(v), slots, seed
            )
            gaps.append(trace.avg_penalty - env["estar"])
            served = -trace.avg_metrics
            viols.append(float(np.max(np.maximum(LAMBDA - served, 0.0))))
        stats[eps] = {
            "gap": float(np.mean(gaps)),
            "gap_se": float(np.std(gaps, ddof=1) / np.sqrt(len(gaps))),
            "viol": float(np.mean(viols)),
            "viol_se": float(np.std(viols, ddof=1) / np.sqrt(len(viols))),
        }
        assert stats[eps]["gap"] <= 5 * eps, (eps, stats[eps])
        assert stats[eps]["viol"] <= 5 * eps, (eps, stats[eps])
    # halving epsilon should roughly halve both deviations (within noise)
    for key in ("gap", "viol"):
        fine, coarse = stats[0.1], stats[0.2]
        bound = 0.5 * max(coarse[key], 0.0) + 3 * fine[f"{key}_se"]
        assert max(fine[key], 0.0) <= bound, (key, stats)
    print(
        f"[acceptance] criterion 4 (gap/violation <= 5*eps and halve with eps: "
        f"gap {stats[0.2]['gap']:.3f} -> {stats[0.1]['gap']:.3f}, "
        f"viol {stats[0.2]['viol']:.3f} -> {stats[0.1]['viol']:.3f}): PASS"
    )


@criterion(5, "checked CLI run stays clean")
def test_criterion_05_checked_cli_run(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"instance = table1\nv = 20\nseeds = 1\nslots = 10000\nout = {tmp_path / 'res'}\n"
    )
    assert main(["run", str(cfg), "--check"]) == 0
    with open(tmp_path / "res" / "summary.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2 and rows[1][3] == "10000"
    print(
        "[acceptance] criterion 5 (10000-slot --check run: every frame "
        "decision certified minimal, no bound violations): PASS"
    )


@criterion(6, "exact queue lower bound")
def test_criterion_06_queue_lower_bound_exact(env):
    trace = run(env["models"], env["external"], DppRatioPolicy(20.0), 10_000, seed=12)
    check_trace(trace)
    cum = np.cumsum(trace.metrics - trace.external, axis=0)
    held = trace.queues[1:] >= cum
    assert held.all()
    print(
        "[acceptance] criterion 6 (Q[t] >= cumulative net input at every "
        "slot, exact comparison): PASS"
    )


def exact_ratios(model, q, v):
    """(V y_hat + <q, z_hat>) / t_hat of every action in exact rationals."""
    q = [Fraction(x) for x in q]
    return [
        (Fraction(v) * Fraction(y) + sum(Fraction(z_l) * q_l for z_l, q_l in zip(z, q)))
        / Fraction(t)
        for y, z, t in zip(model.y_hats.tolist(), model.z_hats.tolist(), model.t_hats.tolist())
    ]


def exact_ratio_minimum(model, q, v):
    """min over actions of (V y_hat + <q, z_hat>) / t_hat in exact rationals."""
    return min(exact_ratios(model, q, v))


@criterion(7, "solvers match the exact minimum")
def test_criterion_07_solvers_agree():
    # each solver's returned action is judged by its own exact ratio, so a
    # solver (or kernel) that picks a worse action cannot pass
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        n_metrics = int(rng.integers(1, 5))
        model = constant_rate_model(
            rng.uniform(-5, 5, n),
            rng.uniform(-5, 5, (n, n_metrics)),
            [GeometricLength(x) for x in rng.uniform(1, 10, n)],
        )
        q = rng.uniform(0, 10, n_metrics)
        v = float(rng.uniform(0, 100))
        ratios = exact_ratios(model, q, v)
        exact = exact_ratio_minimum(model, q, v)
        objectives = ratio_objectives(model, q, v)
        for solve in (solve_enumerate, solve_bisection):
            worst = max(worst, float(ratios[solve(objectives)] - exact))
        assert worst <= 1e-8, worst
    print(
        f"[acceptance] criterion 7 (1000 random subproblems, the exact ratio of "
        f"the action enumeration and Dinkelbach return within 1e-8 of the exact "
        f"rational minimum over actions, worst {worst:.2e}): PASS"
    )


@criterion(8, "grid oracle matches the simplex")
def test_criterion_08_oracle_matches_simplex():
    rng = np.random.default_rng(88)
    grid = 500
    feasible = infeasible = 0
    worst_gap = 0.0
    for _ in range(50):
        n_act = int(rng.integers(2, 4))
        n_met = int(rng.integers(1, 3))
        f = rng.uniform(0, 1, n_act)
        g = rng.uniform(-1, 1, (n_act, n_met))
        if rng.uniform() < 0.6:
            mix = rng.dirichlet(np.ones(n_act))
            d = g.T @ mix + rng.uniform(0.05, 0.3, n_met)
        else:
            d = g.min(axis=0) - rng.uniform(0.05, 0.2, n_met)
        lp = StationaryLP((f,), (g,), d, (np.ones(n_act),))
        sol = solve_lp(lp)
        oracle = brute_force_oracle(lp, grid=grid)
        assert sol.status == oracle.status
        if sol.status == "optimal":
            feasible += 1
            gap = oracle.objective - sol.objective
            assert -1e-9 <= gap <= 2.0 / grid, gap
            worst_gap = max(worst_gap, gap)
        else:
            infeasible += 1
    assert feasible > 0 and infeasible > 0
    print(
        f"[acceptance] criterion 8 ({feasible} feasible + {infeasible} "
        f"infeasible instances, max gap {worst_gap:.2e} <= {2.0 / grid}): PASS"
    )


@criterion(9, "stationary run matches the LP reference point")
def test_criterion_09_stationary_policy_matches_predictions(env):
    # the stationary weights realize the LP's time fractions, so each system's
    # frame ratios estimate its LP reference point (f_bar, g_bar); measured
    # against that point, not against the weights' own renewal-reward ratios,
    # a wrong theta -> p inversion in stationary_policy_weights fails here
    policy = RandomizedStationaryPolicy(stationary_policy_weights(env["sol"]))
    trace = run(env["models"], env["external"], policy, SWEEP_SLOTS, seed=3)
    reference = extract_reference_point(env["sol"])
    systems = frame_stats(trace)
    for n, (s, ref) in enumerate(zip(systems, reference)):
        se_f, se_g = s.f_se(), s.g_se()
        if se_f == 0:
            assert s.empirical_f == ref.f_hat
        else:
            assert abs(s.empirical_f - ref.f_hat) <= 4 * se_f, (n, s.empirical_f, ref)
        for l in range(3):
            if se_g[l] == 0:
                # zero-weight classes are exactly zero in both views
                assert s.empirical_g[l] == ref.g_hat[l]
            else:
                assert abs(s.empirical_g[l] - ref.g_hat[l]) <= 4 * se_g[l], (n, l)
    agg_err_f = sum(s.empirical_f - ref.f_hat for s, ref in zip(systems, reference))
    agg_se_f = np.sqrt(sum(s.f_se() ** 2 for s in systems))
    assert abs(agg_err_f) <= 4 * agg_se_f
    agg_err_g = sum(s.empirical_g - ref.g_hat for s, ref in zip(systems, reference))
    agg_se_g = np.sqrt(sum(s.g_se() ** 2 for s in systems))
    assert np.all(np.abs(agg_err_g) <= 4 * agg_se_g)
    print(
        "[acceptance] criterion 9 (stationary policy empirical rates within "
        "4 SE of the LP reference point, all systems): PASS"
    )


@criterion(10, "drift bound holds")
def test_criterion_10_drift_bound_holds(env):
    reference = extract_reference_point(env["sol"])
    policy = DppRatioPolicy(10.0)
    trace = run(env["models"], env["external"], policy, 100_000, seed=5)
    drift = drift_diagnostic(trace, reference)
    assert min(sums.shape[0] for sums in drift) > 5000
    c0 = drift_bound(env["models"], max(c.cap for c in env["external"].coords))
    excess_mean, excess_se = drift_excess(drift, c0)
    assert np.all(excess_mean <= 3 * excess_se), (excess_mean, excess_se)
    print(
        f"[acceptance] criterion 10 (per-frame drift sums stay below "
        f"c0={c0:.4g} within 3 SE on all systems): PASS"
    )
