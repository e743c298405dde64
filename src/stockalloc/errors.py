"""Exception hierarchy; every error carries a short category used by the CLI."""


class StockAllocError(Exception):
    """Base class for errors raised by this package."""

    category = "internal"


class SchemaError(StockAllocError):
    """Input data does not match the declared schema."""

    category = "schema"


class EmptyInputError(StockAllocError):
    """An input that must contain data is empty."""

    category = "data"


class NotFoundError(StockAllocError):
    """A requested key (period, column, facility) is absent."""

    category = "data"


class ShapeError(StockAllocError):
    """Array dimensions do not line up."""

    category = "shape"


class DegenerateWeightsError(StockAllocError):
    """All row weights are zero, nothing can be trained."""

    category = "data"


class ConfigError(StockAllocError, ValueError):
    """Invalid or incomplete configuration; a bad value, so also a ValueError."""

    category = "config"


class IterationLimitError(StockAllocError):
    """An iterative solver exceeded its pivot budget; signals a solver defect."""

    category = "solver"
