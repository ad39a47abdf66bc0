"""The one exception type for bad input, the input file reader, and the config field check.

A ConfigError names a fault in what the user gave: a config file or field, a
CLI argument, or a model file that cannot be read or does not fit the
config. The CLI maps it to exit 1; any other exception is a runtime failure.
"""

import dataclasses


class ConfigError(ValueError):
    pass


def read_text(path) -> str:
    """The UTF-8 text of an input file; a file that cannot be read is a ConfigError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, unreadable, not UTF-8
        raise ConfigError(f"{path}: cannot read ({getattr(exc, 'strerror', None) or exc})") from None


_ACCEPTED = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "str": ((str,), "a string"),
}


def check_scalar_fields(obj):
    """Check each int, float and str field of a frozen dataclass against its annotation.

    An int field takes an integer, a float field an integer or a float, a str
    field a string; a bool is none of these. A float field is stored as a
    float and -0.0 as 0.0, so equal configs are written, and hashed, alike.
    The annotations are read as strings: the config modules postpone them.
    """
    for f in dataclasses.fields(obj):
        if f.type not in _ACCEPTED:
            continue  # a config section, checked by its own class
        value = getattr(obj, f.name)
        types, what = _ACCEPTED[f.type]
        if isinstance(value, bool) or not isinstance(value, types):
            raise ConfigError(f"{f.name} must be {what}, not {value!r}")
        if f.type == "float":
            try:
                object.__setattr__(obj, f.name, float(value) + 0.0)  # -0.0 + 0.0 is 0.0
            except OverflowError:
                raise ConfigError(f"{f.name} is too large for a float") from None
