"""Exception hierarchy shared by all pipeline stages.

Each family maps to a distinct CLI exit code: usage problems exit 2
(argparse), configuration problems 3, data/schema problems 4 and numeric
faults 5. Anything else is an unexpected failure (exit 1).
"""


class PipelineError(Exception):
    exit_code = 1


class ConfigError(PipelineError):
    exit_code = 3


class DataError(PipelineError):
    exit_code = 4


class NumericError(PipelineError):
    exit_code = 5


# --- fhir_etl -------------------------------------------------------------

class UnmappedTable(DataError):
    """The table has no FHIR resource type (callout, transfers, drgcodes)."""


class SchemaMismatch(DataError):
    """CSV header is missing a required column for the declared table."""


class MalformedRow(DataError):
    """A data row's arity differs from the header's."""


class IoFailure(DataError):
    """File could not be read or written (missing, truncated, permission)."""


class MalformedJson(DataError):
    """Collection file is not valid JSON or not an array of flat objects."""


class UnknownResourceType(DataError):
    """A record carries a resource_type outside the supported set."""


# --- synth ----------------------------------------------------------------

class InvalidConfig(ConfigError):
    """A configuration object violates its documented invariants."""


# --- chart preprocessing --------------------------------------------------

class EmptyType(DataError):
    """A catalog observation type has no contributing cells in the fit set."""


class CatalogMismatch(DataError):
    """Tensor and statistics were built over different type catalogs."""


# --- labels ---------------------------------------------------------------

class DuplicateIcdCode(DataError):
    """An ICD code appears with two different CCS categories."""


class MalformedCrosswalk(DataError):
    """Crosswalk file yields no parseable code/category rows."""


# --- split ----------------------------------------------------------------

class InvalidSpec(ConfigError):
    """Split ratios/inputs violate the splitting preconditions."""


# --- tensor kernel --------------------------------------------------------

class ShapeMismatch(DataError):
    """Operand shapes are incompatible for the requested operation."""


class NonFiniteValue(NumericError):
    """A NaN or Inf escaped a numeric operation."""


class EmptyPartition(DataError):
    """A required train/validation partition has no samples."""


# --- notes ----------------------------------------------------------------

class UnknownAdmission(DataError):
    """A note references an admission with no known admit/discharge times."""


class EmptyChunkSet(DataError):
    """Aggregation requires at least one scored chunk."""


# --- metrics --------------------------------------------------------------

class DegenerateLabels(DataError):
    """Metric undefined for single-class input."""
