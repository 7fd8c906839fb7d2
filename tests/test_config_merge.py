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
    "jobs": st.integers(min_value=1, max_value=8),
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


@settings(max_examples=40, deadline=None)
@given(key=st.sampled_from(["n", "degree", "window"]),
       value=st.integers(max_value=-1), from_config=st.booleans())
def test_negative_sizes_raise(key, value, from_config):
    with pytest.raises(ConfigError, match=f"--{key} must be at least 0"):
        if from_config:
            merged({}, {key: value})
        else:
            merged({key: value}, None)
