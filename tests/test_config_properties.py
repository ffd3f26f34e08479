"""Every config the CLI accepts runs clean under --check; bad text is a ConfigError.

Custom instances are drawn with values at the edges the sampler and the
external process can take: arrival rates at both ends of (0, numpy's Poisson
limit), job-count supports of any width up to 2**53, phase means from 1 and
energies, idle powers and V up to the double maximum, and 1-50 servers
under both policies and both solvers.  Each config either fails with a
ConfigError (exit 1) or runs a few hundred checked slots to exit 0; no other
exit code is allowed.
"""

import contextlib
import io
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from renewalopt import config
from renewalopt.cli import main
from renewalopt.config import ConfigError, parse_config

# the largest arrival rate numpy's Poisson draw takes, then the first it refuses
_POISSON_EDGE = ("9.22337200648477e+18", "9.223372006484771e+18")

_rates = st.one_of(
    st.floats(0.01, 12.0).map(repr),
    st.sampled_from(["5e-324", "1e-300", "1e17", _POISSON_EDGE[0], _POISSON_EDGE[1], "1e300"]),
)
# past the largest accepted value (2**53 for a phase mean, about 3e290 for an
# idle power) a value is refused, so most draws stay below it
_DOUBLE_MAX = 1.7976931348623157e308
_means = st.one_of(
    st.just(1.0), st.floats(1.0, 12.0), st.floats(1.0, 2.0**53), st.floats(1.0, _DOUBLE_MAX)
).map(repr)
_vs = st.floats(0.0, 1e308, exclude_min=True).map(repr)
_energies = st.one_of(
    st.floats(0.0, 50.0), st.floats(0.0, 1e290), st.floats(0.0, _DOUBLE_MAX)
).map(repr)


@st.composite
def _supports(draw):
    """(low, high) of any width up to 2**53, near 2**53, or small.

    Mostly with an integer midpoint, as the parser requires; high is at
    most 2**53 unless the draw steps past.
    """
    kind = draw(st.sampled_from(["wide", "huge", "small"]))
    if kind == "wide":
        low = draw(st.integers(1, 9))
        high = low + 2 * draw(st.integers(0, 2**52 - 5))
    elif kind == "huge":
        high = 2**53 + 2 * draw(st.integers(-2, 1))
        low = high - 2 * draw(st.integers(0, 3))
    else:
        low = draw(st.integers(1, 20))
        high = low + 2 * draw(st.integers(0, 6))
    return f"{low} {high + draw(st.sampled_from([0, 0, 0, 0, 1]))}"


_class_block = st.builds(
    "[class]\narrival_rate = {}\nservice_mean = {}\njobs_support = {}\n"
    "energy = {}\nidle_mean = {}\n{}".format,
    _rates,
    _means,
    _supports(),
    _energies,
    _means,
    st.one_of(st.just(""), _energies.map("idle_power = {}\n".format)),
)


@st.composite
def _custom_configs(draw):
    n_classes = draw(st.integers(1, 4))
    lines = [
        "instance = custom",
        f"servers = {draw(st.integers(1, 50))}",
        f"idle_power = {draw(st.floats(0.0, 10.0))!r}",
        f"slots = {draw(st.integers(50, 300))}",
        "seeds = 3",
    ]
    if draw(st.booleans()):
        lines += [
            "policy = dpp_ratio",
            f"solver = {draw(st.sampled_from(['enumerate', 'bisection']))}",
            f"v = {draw(st.sampled_from(['0.5', '10', '1000']) | _vs)}",
        ]
    else:
        lines.append("policy = stationary")
        if draw(st.booleans()):
            weights = [1.0] + [0.0] * (n_classes - 1)
            lines.append("weights = " + " ".join(map(repr, draw(st.permutations(weights)))))
    blocks = draw(st.lists(_class_block, min_size=n_classes, max_size=n_classes))
    return "\n".join(lines) + "\n" + "".join(blocks)


@given(_custom_configs())
@settings(max_examples=80, deadline=None, database=None)
def test_accepted_configs_run_clean_under_check(text):
    try:
        parse_config(text)
    except ConfigError as exc:
        assert all(key or line for line, key, _ in exc.errors), exc
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/exp.cfg"
        with open(path, "w") as fh:
            fh.write(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["run", path, "--check", "--out", f"{tmp}/res"])
    # a config found bad only once the instance is built names its key
    assert code == 0 or (code == 1 and err.getvalue().startswith("invalid config:")), (
        code,
        err.getvalue(),
    )


_KEYS = sorted(set(config._TOP_TABLE) | set(config._CLASS_TABLE))
_values = st.one_of(
    st.text(max_size=12),
    st.integers(-(2**70), 2**70).map(str),
    st.floats().map(repr),
    st.lists(st.floats(allow_nan=False).map(repr), max_size=4).map(" ".join),
    st.sampled_from(["table1", "custom", "lp", "on", "stationary", "bisection", "1e400", ""]),
)
_lines = st.one_of(
    st.text(max_size=30),
    st.sampled_from(["[class]", "[other]", "=", "# comment"]),
    st.tuples(st.sampled_from(_KEYS), _values).map(" = ".join),
)


@given(st.lists(_lines, max_size=24))
@settings(max_examples=300, deadline=None, database=None)
def test_random_config_text_raises_only_config_errors(lines):
    try:
        parse_config("\n".join(lines))
    except ConfigError:
        pass
