"""The error contract: one exception class per CLI exit code."""

import importlib
import inspect
import pkgutil

import ehrpipe
from ehrpipe import errors
from ehrpipe.errors import ConfigError, DataError, NumericError, PipelineError


def test_errors_defines_one_class_per_exit_code():
    classes = {name: obj.exit_code for name, obj in vars(errors).items()
               if inspect.isclass(obj)}
    assert classes == {"PipelineError": 1, "ConfigError": 3, "DataError": 4,
                       "NumericError": 5}


def test_no_module_defines_another_pipeline_error():
    for module in pkgutil.iter_modules(ehrpipe.__path__):
        importlib.import_module(f"ehrpipe.{module.name}")
    found, pending = set(), [PipelineError]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub.__module__.split(".")[0] == "ehrpipe":
                found.add(sub)
                pending.append(sub)
    assert found == {ConfigError, DataError, NumericError}
