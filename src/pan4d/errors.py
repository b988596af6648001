"""Exception hierarchy shared by all pan4d modules.

`cli.main` maps these onto exit codes: ValidationError -> 1, FormatError
and OSError -> 2, InvariantError and any other Pan4DError -> 3. It catches
no other exception: one raised from outside this hierarchy ends the command
with its traceback.
"""


class Pan4DError(Exception):
    """Base class for all pan4d errors."""


class ValidationError(Pan4DError):
    """Bad configuration or arguments that violate a documented precondition."""


class FormatError(Pan4DError):
    """A file on disk does not conform to its declared binary/text format."""


class InvariantError(Pan4DError):
    """An internal invariant was violated; indicates a bug, not bad input."""
