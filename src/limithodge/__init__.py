"""Exact asymptotic invariants of degenerating Hodge structures on the
punctured bidisc, plus a numerical weighted dbar solver.

Subpackages
-----------
exactla      exact linear algebra over the Gaussian rationals
weightfilt   monodromy weight filtrations, cones, relative filtrations
datum        the monodromy datum of the local model and the built-in corpus
sl2rep       commuting sl2-pair representations and isotypic decomposition
hodgestruct  (mixed) Hodge structures, polarizations, Deligne bigradings
growth       Hodge-norm growth classes, Higgs-field classes and ordering changes
l2verdict    the square-integrability classifier, without exact algebra
l2complex    the finite L2 Dolbeault models and their cohomology
dbarspec     dbar errors, metric and grid specs, corner rule, Hormander region and
             config parsing, without numpy
dbar         weighted dbar solver on the punctured bidisc (numerical)
cli          batch command-line front door

Errors
------
Every error class of the library subclasses ``LimithodgeError`` through
``PreconditionViolated`` or ``InternalInvariantFailure`` (or, for
``dbarspec.ExcludedExponent``, directly) and keeps its builtin base, such
as ``ValueError``.  ``code`` is the exit code the command line gives it and
``kind`` the name it reports on standard error.
"""

__version__ = "0.1.0"


class LimithodgeError(Exception):
    """An error with a fixed exit code ``code`` and report name ``kind``."""

    code: int
    kind: str


class PreconditionViolated(LimithodgeError):
    """Well-formed input that violates a mathematical precondition."""

    code = 3
    kind = "precondition-violated"


class InternalInvariantFailure(LimithodgeError):
    """A certified invariant failed: a defect, never the input's fault."""

    code = 5
    kind = "internal-invariant-failure"


def _integer(key: str, value: object) -> int:
    """A JSON integer field: an int that is not a bool; a float or a string is rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value
