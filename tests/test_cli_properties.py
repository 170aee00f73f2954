"""Property tests of the CLI's exit-code contract over arbitrary key=value input.

Every input ends in exactly one of three exits: 0, 2 (configuration error) or
3 (guard error), and a nonzero exit prints one machine-readable stderr line.
Values are drawn from arbitrary floats, ints and words plus the extremes that
have broken the contract before: subnormals, +-1e308, nan, inf and integers
beyond 64 bits.  grid_n stays within 256-4096, so no example allocates much.
"""

import contextlib
import io
import tempfile
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from nested_mzi_lab import PRESET_NAMES, ConfigError, Dove, OutputPort
from nested_mzi_lab.cli import COMMANDS, ENGINES, RunConfig, _KEY_TYPES, main, parse_config

SPECIAL_FLOATS = [
    "5e-324", "1e-320", "2.2e-308", "1e-300", "0.0", "-0.0",
    "1e300", "1e308", "-1e308", "1.7976931348623157e308", "nan", "inf", "-inf",
]
HUGE_INTS = [str(2**63), str(2**64), str(10**20), str(-(2**63) - 1), str(10**400)]
WORDS = [
    *COMMANDS, *ENGINES, *PRESET_NAMES, *(d.value for d in Dove), *(p.value for p in OutputPort),
    "", "x", "1e", "0x10", "1_000",
]
FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats().map(repr))
INTS = st.one_of(st.integers(-(10**6), 10**6).map(str), st.sampled_from(HUGE_INTS))
ANY = st.one_of(FLOATS, INTS, st.sampled_from(WORDS))
#: Keys drawn at random; command and out are set by each test.
KEYS = sorted(set(_KEY_TYPES) - {"command", "out"})
RUN_COMMANDS = ("centroid", "before-F", "weak-values")


def values_for(key: str) -> st.SearchStrategy[str]:
    """Any token, weighted toward the key's own kind; grid_n stays within 256-4096."""
    if key == "grid_n":
        return st.integers(256, 4096).map(str)
    own = {float: FLOATS, int: INTS}.get(_KEY_TYPES[key], st.sampled_from(WORDS))
    return st.one_of(own, ANY)


@st.composite
def overrides(draw, max_keys=4):
    """A few distinct keys, each with a drawn value token."""
    keys = draw(st.lists(st.sampled_from(KEYS), min_size=1, max_size=max_keys, unique=True))
    return [f"{key}={draw(values_for(key))}" for key in keys]


@settings(max_examples=300, deadline=None)
@given(
    command=st.sampled_from(COMMANDS),
    preset=st.none() | st.sampled_from(PRESET_NAMES),
    pairs=overrides(max_keys=6),
)
def test_known_keys_parse_or_raise_config_error(command, preset, pairs):
    text = " ".join([f"command={command}", *([f"preset={preset}"] if preset else []), *pairs])
    try:
        config = parse_config(text)
    except ConfigError:
        return
    assert isinstance(config, RunConfig)


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(RUN_COMMANDS),
    preset=st.sampled_from(PRESET_NAMES),
    pairs=overrides(max_keys=3),
)
def test_main_exits_0_2_or_3_with_one_error_line(command, preset, pairs):
    args = [command, "--preset", preset]
    for pair in pairs:
        args += ["--set", pair]
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(stderr):
        # A warning (numpy's overflow notes) would be a second stderr line
        # outside pytest; as an error it turns into exit 1 here.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([*args, "--out", out])
    err = stderr.getvalue()
    assert code in (0, 2, 3), err
    if code:
        assert err.startswith(f"error category={'config' if code == 2 else 'guard'}"), err
        assert err.count("\n") == 1, err
    else:
        assert err == ""
