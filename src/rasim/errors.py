"""The one exception type for bad input.

A ConfigError names a fault in what the user gave: a config file or field, a
CLI argument, or a model file that cannot be read or does not fit the
config. The CLI maps it to exit 1; any other exception is a runtime failure.
"""


class ConfigError(ValueError):
    pass
