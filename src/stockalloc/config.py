"""Config files, and the one loader that turns a section of one into a dataclass.

`load_section` builds `ForestParams`, `WeightConfig`, `TwoClassScenario` or
`RunConfig` from a section: an unknown key is an error, and each value is
converted by its field's annotated type (`_convert`). Whether a value is
in range is decided once, by the `__post_init__` of the dataclass that
holds it, with the predicates below.
"""

import dataclasses
import json
import math
import numbers
import typing

from .errors import ConfigError
from .ingest import read_text


def is_int(value, low):
    """Whether `value` is an integer (a bool is not) and at least `low`."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= low


def is_real(value):
    """Whether `value` is a finite real number (a bool is not)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def check(obj, name, ok, requirement):
    """Raise ConfigError "<name> must be <requirement>, got <value>" unless `ok`."""
    if not ok:
        raise ConfigError(f"{name} must be {requirement}, got {getattr(obj, name)!r}")


def load_config_file(path):
    """Read a config file: a JSON object, or `key = value` lines, whose values
    stay strings until `load_section` converts them. Bytes that are not
    UTF-8, bad JSON, JSON that is not an object and a line without `=` are
    ConfigErrors naming the file."""
    text = read_text(path, ConfigError)
    if text.lstrip().startswith(("{", "[")):
        try:
            config = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}, line {exc.lineno}: {exc.msg}") from exc
        if not isinstance(config, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        return config
    config = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: bad config line {line!r}, expected key = value")
        key, value = line.split("=", 1)
        config[key.strip()] = value.strip()
    return config


def _int(value):
    """An integer string or integral float as an int; anything else as it is."""
    if isinstance(value, str) or (isinstance(value, float) and value.is_integer()):
        return int(value)
    return value


_CONVERT = {int: _int, float: float, str: str, tuple: tuple}


def _convert(value, annotation):
    """`value` as the annotated type. None stays None where the type allows
    it; `int | str` takes an int if `_int` converts, else a str; a dataclass
    takes a nested section."""
    kinds = typing.get_args(annotation) or (annotation,)
    if value is None and type(None) in kinds:
        return None
    *first, last = [kind for kind in kinds if kind is not type(None)]
    for kind in first:
        try:
            return _CONVERT[kind](value)
        except (TypeError, ValueError):
            pass
    if dataclasses.is_dataclass(last):
        return _build(last, value, {})
    return _CONVERT.get(last, lambda v: v)(value)


def _build(cls, section, given):
    if not isinstance(section, dict):
        raise ConfigError(f"expected an object, got {section!r}")
    types = {f.name: f.type for f in dataclasses.fields(cls) if f.name not in given}
    unknown = sorted(set(section) - set(types))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown}, expected some of {sorted(types)}")
    values = dict(given)
    for key, value in section.items():
        try:
            values[key] = _convert(value, types[key])
        except (TypeError, ValueError, OverflowError) as exc:  # a ConfigError is a ValueError
            raise ConfigError(f"{key}: {exc}") from exc
    return cls(**values)


def load_section(cls, section, name, **given):
    """The dataclass `cls` built from config section `section` (a dict).

    Fields in `given` come from the caller as they are, and the section
    may not set them. Any error, from converting a value or from `cls`
    itself, is a ConfigError "<name>: [<key>: ]<message>"."""
    try:
        return _build(cls, section, given)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc
