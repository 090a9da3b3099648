"""One exception class per CLI exit code.

ConfigError (exit 3) is a setting or a config object outside its documented
range, DataError (exit 4) an input or output file that cannot be read,
written or parsed, or whose contents break the stage's preconditions, and
NumericError (exit 5) a NaN or Inf escaping a numeric operation. Usage
problems exit 2 (argparse); anything else is an unexpected failure (exit 1).
Each message names the bad file or setting.
"""


class PipelineError(Exception):
    exit_code = 1


class ConfigError(PipelineError):
    exit_code = 3


class DataError(PipelineError):
    exit_code = 4


class NumericError(PipelineError):
    exit_code = 5
