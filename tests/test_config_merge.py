"""Property tests of config/flag merging: a flag beats the config file, which
beats the default, for every key in `cli._DEFAULTS`."""

import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinwreath.cli import _DEFAULTS, _merge_config, build_parser
from spinwreath.suites import ConfigError

SIZE = st.integers(min_value=0, max_value=50)
VALUES = {
    "n": SIZE,
    "degree": SIZE,
    "window": SIZE,
    "format": st.sampled_from(["json", "csv", "pretty"]),
    "gamma": st.sampled_from(["trivial", "cyclic:3", "klein4", "@g.json"]),
    "xi": st.sampled_from(["standard", "mckay", "1,0,-1"]),
}
assert set(VALUES) == set(_DEFAULTS)


def merged(flags: dict, config):
    """Parse `verify heisenberg` with `flags`, merged with `config` written
    to a temporary file (no config file when it is None)."""
    argv = ["verify", "heisenberg"] + [f"--{key}={value}" for key, value in flags.items()]
    path = None
    if config is not None:
        fd, path = tempfile.mkstemp(suffix=".json")
        with os.fdopen(fd, "w") as fh:
            json.dump(config, fh)
        argv += ["--config", path]
    try:
        return _merge_config(build_parser().parse_args(argv))
    finally:
        if path:
            os.unlink(path)


def optional(strategy):
    return st.one_of(st.none(), strategy)


@settings(max_examples=60, deadline=None)
@given(flags=st.fixed_dictionaries({key: optional(s) for key, s in VALUES.items()}),
       config=optional(st.fixed_dictionaries({key: optional(s) for key, s in VALUES.items()})))
def test_flag_beats_config_beats_default(flags, config):
    flags = {key: value for key, value in flags.items() if value is not None}
    if config is not None:
        config = {key: value for key, value in config.items() if value is not None}
    args = merged(flags, config)
    for key, default in _DEFAULTS.items():
        expect = flags.get(key, (config or {}).get(key, default))
        assert getattr(args, key) == expect, key


LEAST = {"n": 0, "degree": 0, "window": 0}


@settings(max_examples=40, deadline=None)
@given(key=st.sampled_from(sorted(LEAST)), data=st.data(), from_config=st.booleans())
def test_negative_sizes_raise(key, data, from_config):
    # sizes below 0, from a flag or the config file
    least = LEAST[key]
    value = data.draw(st.integers(max_value=least - 1))
    with pytest.raises(ConfigError, match=f"--{key} must be at least {least}, got {value}"):
        if from_config:
            merged({}, {key: value})
        else:
            merged({key: value}, None)


# JSON values of another type than the flag's: sizes are int and not bool;
# gamma, xi and format are str, and format is one of the flag's choices
NOT_INT = st.one_of(st.booleans(), st.none(), st.text(max_size=3),
                    st.floats(allow_nan=False), st.lists(st.integers(), max_size=2))
NOT_STR = st.one_of(st.booleans(), st.none(), st.integers(), st.lists(st.integers(), max_size=2))
WRONG = {
    "n": NOT_INT,
    "degree": NOT_INT,
    "window": NOT_INT,
    "format": st.one_of(NOT_STR, st.text(max_size=5).filter(
        lambda s: s not in ("json", "csv", "pretty"))),
    "gamma": NOT_STR,
    "xi": NOT_STR,
}
assert set(WRONG) == set(_DEFAULTS)


@settings(max_examples=60, deadline=None)
@given(key=st.sampled_from(sorted(WRONG)), data=st.data())
def test_wrong_type_from_config_raises(key, data):
    value = data.draw(WRONG[key])
    with pytest.raises(ConfigError, match=f"config value '{key}' must be"):
        merged({}, {key: value})


JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=4),
                        st.lists(st.integers(), max_size=2))


@settings(max_examples=60, deadline=None)
@given(known=st.fixed_dictionaries({key: optional(s) for key, s in VALUES.items()}),
       unknown=st.dictionaries(st.text(min_size=1, max_size=8).filter(
           lambda key: key not in _DEFAULTS), JSON_VALUES, min_size=1, max_size=3))
def test_unknown_keys_raise(known, unknown):
    # however many valid keys come with them, unknown keys are named
    config = {key: value for key, value in known.items() if value is not None}
    config.update(unknown)
    with pytest.raises(ConfigError, match="unknown config key") as info:
        merged({}, config)
    assert all(repr(key) in str(info.value) for key in unknown)
