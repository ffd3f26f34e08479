import itertools
from pathlib import Path

import pytest

from renewalopt import config
from renewalopt.config import DEFAULT_V_SWEEP, ConfigError, parse_config


MINIMAL = "instance = table1\nslots = 1000\n"


def errors_of(text):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    return exc.value.errors


def test_minimal_table1_config():
    cfg = parse_config(MINIMAL)
    assert cfg.instance.n_servers == 5
    assert cfg.instance.n_classes == 3
    assert cfg.slots == 1000
    assert cfg.policy == "dpp_ratio"
    assert cfg.solver == "enumerate"
    assert cfg.v_list == DEFAULT_V_SWEEP
    assert cfg.seeds == (1,)
    assert cfg.out == "results"
    assert cfg.trajectories is False
    assert cfg.check is False
    assert cfg.weights == "lp"


def test_comments_blank_lines_and_lists():
    cfg = parse_config(
        """
        # experiment sweep
        instance = table1   # preset
        v = 1, 10, 100
        seeds = 1 2 3
        slots = 500
        trajectories = on
        check = on
        out = runs/demo
        """
    )
    assert cfg.v_list == (1.0, 10.0, 100.0)
    assert cfg.seeds == (1, 2, 3)
    assert cfg.trajectories is True
    assert cfg.check is True
    assert cfg.out == "runs/demo"


def test_table1_server_override():
    cfg = parse_config("instance = table1\nservers = 2\nslots = 10\n")
    assert cfg.instance.n_servers == 2
    assert cfg.instance.classes == parse_config(MINIMAL).instance.classes


def test_nonpositive_v_rejected():
    errs = errors_of("instance = table1\nslots = 10\nv = 5 0 1\n")
    assert any(key == "v" and "positive" in reason for _, key, reason in errs)
    assert any(ln == 3 for ln, _, _ in errs)
    for bad in ("inf", "nan", "-inf"):
        errs = errors_of(f"instance = table1\nslots = 10\nv = 5 {bad} 1\n")
        assert errs == [(3, "v", f"not a finite number: {bad!r}")]


def test_negative_seed_rejected_with_line_number():
    errs = errors_of("instance = table1\nslots = 10\nseeds = 1 -3\n")
    assert (3, "seeds", "seeds must be >= 0") in errs
    assert parse_config("instance = table1\nslots = 10\nseeds = 0\n").seeds == (0,)


def test_repeated_cells_rejected_with_line_number():
    # each (v, seed) cell writes trajectory_<format(v, "g")>_<seed>.csv: V
    # entries that print alike, or a repeated seed, would overwrite a cell
    errs = errors_of(
        "instance = table1\nslots = 10\nv = 1.0000001 1.0000002\nseeds = 1 1\n"
        "trajectories = on\n"
    )
    assert errs == [
        (3, "v", 'two entries are one cell: format(v, "g") prints them alike'),
        (4, "seeds", "a seed repeats"),
    ]
    assert errors_of("instance = table1\nslots = 10\nv = 5, 20, 5.0\n") == [
        (3, "v", 'two entries are one cell: format(v, "g") prints them alike')
    ]
    # distinct values stay distinct cells, even seeds that format(seed, "g") prints alike
    cfg = parse_config("instance = table1\nslots = 10\nv = 1.5 15\nseeds = 12345678 12345679\n")
    assert cfg.v_list == (1.5, 15.0)
    assert cfg.seeds == (12345678, 12345679)


def test_unknown_and_duplicate_keys_carry_line_numbers():
    errs = errors_of("instance = table1\nslots = 10\nslots = 20\nspeed = 9\n")
    assert (3, "slots", "duplicate key") in errs
    assert any(ln == 4 and key == "speed" and "unknown" in reason for ln, key, reason in errs)


def test_missing_required_keys():
    errs = errors_of("v = 1\n")
    missing = {key for _, key, reason in errs if "required" in reason}
    assert {"instance", "slots"} <= missing


def test_malformed_lines_and_sections():
    errs = errors_of("instance = table1\nslots ten\n[cluster]\n")
    assert any("key = value" in reason for _, _, reason in errs)
    assert any("unknown section" in reason for _, _, reason in errs)


def test_all_errors_collected_at_once():
    errs = errors_of("instance = plan9\nslots = 0\nv = -1\ncheck = maybe\n")
    assert len(errs) >= 4


def test_table1_rejects_custom_only_keys():
    errs = errors_of("instance = table1\nslots = 10\nidle_power = 4\n")
    assert any(key == "idle_power" for _, key, _ in errs)
    errs = errors_of(
        "instance = table1\nslots = 10\n[class]\narrival_rate = 1\n"
        "service_mean = 2\njobs_support = 2 4\nenergy = 1\nidle_mean = 1\n"
    )
    assert any("does not take" in reason for _, _, reason in errs)


CUSTOM = """
instance = custom
servers = 3
idle_power = 2.0
slots = 100

[class]
arrival_rate = 1.5
service_mean = 4.0
jobs_support = 6 10
energy = 12.0
idle_mean = 2.0

[class]
arrival_rate = 0.5
service_mean = 3.0
jobs_support = 3, 5
energy = 7.0
idle_mean = 1.5
idle_power = 0.5
"""


def test_custom_instance_roundtrip():
    cfg = parse_config(CUSTOM)
    inst = cfg.instance
    assert inst.n_servers == 3
    assert inst.n_classes == 2
    c0, c1 = inst.classes
    assert (c0.arrival_rate, c0.service_mean) == (1.5, 4.0)
    assert (c0.jobs_low, c0.jobs_high) == (6, 10)
    assert c0.idle_power == 2.0  # inherits the top-level default
    assert c1.idle_power == 0.5  # per-class override
    assert c1.service_mean + c1.idle_mean == 4.5


def test_custom_requires_servers_power_and_classes():
    errs = errors_of("instance = custom\nslots = 10\n")
    keys = {key for _, key, _ in errs}
    assert {"servers", "idle_power", "instance"} <= keys


def test_custom_class_validation_propagates():
    bad = CUSTOM.replace("jobs_support = 6 10", "jobs_support = 6 9")
    errs = errors_of(bad)
    assert any("midpoint" in reason for _, _, reason in errs)
    bad = CUSTOM.replace("jobs_support = 6 10", "jobs_support = 6 8 10")
    errs = errors_of(bad)
    assert any("two integers" in reason for _, _, reason in errs)
    bad = CUSTOM.replace("arrival_rate = 1.5\n", "")
    errs = errors_of(bad)
    assert any(key == "arrival_rate" and "required" in reason for _, key, reason in errs)
    # the job count is one 64-bit draw: any support up to 2**53 is accepted
    parse_config(CUSTOM.replace("jobs_support = 6 10", f"jobs_support = 6 {4 + 2**32}"))
    parse_config(CUSTOM.replace("jobs_support = 6 10", f"jobs_support = 6 {6 + 2**32}"))
    parse_config(CUSTOM.replace("jobs_support = 6 10", f"jobs_support = 2 {2**53}"))
    class_line = CUSTOM.splitlines().index("arrival_rate = 1.5") + 1
    for old, new, reason in (
        ("jobs_support = 6 10", f"jobs_support = 2 {2**53 + 2}", "jobs_high must be <= 2**53"),
        ("service_mean = 4.0", f"service_mean = {2**53 + 2}",
         "phase means must be <= 2**53 slots"),
        ("idle_mean = 2.0", "idle_mean = 2.0\nidle_power = 1e291", (
            "the largest frame energy, energy + idle_power * 2**59, overflows"
        )),
    ):
        assert errors_of(CUSTOM.replace(old, new)) == [(class_line, "class 1", reason)]
    for line, key in (
        ("energy = nan", "energy"),
        ("arrival_rate = inf", "arrival_rate"),
        ("service_mean = inf", "service_mean"),
    ):
        old = next(ln for ln in CUSTOM.splitlines() if ln.startswith(f"{key} = "))
        errs = errors_of(CUSTOM.replace(old, line, 1))
        assert [key_ for _, key_, _ in errs] == [key]
        assert "not a finite number" in errs[0][2]
        assert errs[0][0] == CUSTOM.splitlines().index(old) + 1


def test_stationary_weights_parsing():
    base = "instance = table1\nslots = 10\npolicy = stationary\n"
    assert parse_config(base).weights == "lp"
    cfg = parse_config(base + "weights = 0.2 0.3 0.5\n")
    assert cfg.weights == (0.2, 0.3, 0.5)
    errs = errors_of(base + "weights = 0.5 0.5\n")
    assert any("3 entries" in reason for _, _, reason in errs)
    errs = errors_of(base + "weights = 0.9 0.2 -0.1\n")
    assert any("nonnegative" in reason for _, _, reason in errs)
    errs = errors_of(base + "weights = 0.2 0.2 0.2\n")
    assert any("sum to 1" in reason for _, _, reason in errs)


def test_weights_rejected_under_dpp_ratio():
    # the controller picks its own actions: a weights line would be dropped unread
    for text in (
        "instance = table1\nslots = 10\nseeds = 1\nweights = 0.2 0.3 0.5\n",
        "instance = table1\npolicy = dpp_ratio\nslots = 10\nweights = lp\n",
    ):
        errs = errors_of(text)
        assert errs == [(4, "weights", "only valid with policy = stationary")]


def test_dpp_ratio_keys_rejected_under_stationary():
    # the stationary policy draws from its weights: v and solver lines would
    # be dropped unread, and the summary would show an empty v column
    text = "instance = table1\npolicy = stationary\nslots = 10\nv = 10 20\nsolver = bisection\n"
    reason = "only valid with policy = dpp_ratio"
    assert errors_of(text) == [(4, "v", reason), (5, "solver", reason)]
    # a malformed value is reported once, as itself
    assert errors_of(text.replace("v = 10 20", "v = -1")) == [
        (4, "v", "V must be positive"),
        (5, "solver", reason),
    ]


def test_error_message_is_readable():
    try:
        parse_config("instance = table1\nslots = 10\nspeed = 9\n")
    except ConfigError as exc:
        assert "line 3" in str(exc)
        assert "speed" in str(exc)
    else:
        raise AssertionError("expected ConfigError")


def test_malformed_custom_servers_or_idle_power_reported_once():
    # "required for instance = custom" is for an absent key, not a bad value
    for old, new in (
        ("servers = 3", "servers = x"),
        ("servers = 3", "servers = 0"),
        ("idle_power = 2.0", "idle_power = -inf"),
    ):
        errs = errors_of(CUSTOM.replace(old, new, 1))
        key = old.split()[0]
        assert len(errs) == 1, errs
        assert errs[0][:2] == (CUSTOM.splitlines().index(old) + 1, key)


def test_negative_idle_power_reported_on_its_line():
    text = CUSTOM.lstrip("\n").replace("idle_power = 0.5\n", "")
    errs = errors_of(text.replace("idle_power = 2.0", "idle_power = -1.0"))
    assert errs == [(3, "idle_power", "must be >= 0")]
    errs = errors_of(CUSTOM.replace("idle_power = 0.5", "idle_power = -0.5"))
    ln = CUSTOM.splitlines().index("idle_power = 0.5") + 1
    assert errs == [(ln, "idle_power", "must be >= 0")]


def test_class_checked_as_a_whole_once_its_values_parse():
    # class 1 inherits the bad top-level idle_power, so its phase-mean rule
    # (ServerClassParams) is not applied until that value parses
    bad_mean = CUSTOM.replace("service_mean = 4.0", "service_mean = 0")
    lines = CUSTOM.splitlines()
    errs = errors_of(bad_mean.replace("idle_power = 2.0", "idle_power = -1"))
    assert errs == [(lines.index("idle_power = 2.0") + 1, "idle_power", "must be >= 0")]
    errs = errors_of(bad_mean)
    class_line = lines.index("arrival_rate = 1.5") + 1
    assert errs == [(class_line, "class 1", "phase means must be >= 1 slot")]


def documented_keys(heading):
    lines = config.__doc__.split(heading, 1)[1].splitlines()[1:]
    return [line.split()[0] for line in itertools.takewhile(str.strip, lines)]


def test_docstring_lists_exactly_the_parsed_keys():
    assert documented_keys("Top-level keys:") == list(config._TOP_TABLE)
    assert documented_keys("[class] keys:") == list(config._CLASS_TABLE)


def test_readme_example_configs_parse():
    # the config blocks under the README's "## CLI", cut out as the API
    # surface test cuts out the quickstart: a key renamed or removed in the
    # parser but not in the README fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = readme.split("## CLI")[1].split("### Outputs")[0].split("```")[1::2]
    usage, *examples = blocks
    assert usage.strip().startswith("renewalopt run") and len(examples) == 2
    table1, custom = (parse_config(text) for text in examples)
    assert table1.instance.n_servers == 5 and table1.slots == 200_000
    assert custom.instance.n_servers == 3 and custom.instance.n_classes == 1
