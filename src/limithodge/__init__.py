"""Exact asymptotic invariants of degenerating Hodge structures on the
punctured bidisc, plus a numerical weighted dbar solver.

Subpackages
-----------
exactla      exact linear algebra over the Gaussian rationals
weightfilt   monodromy weight filtrations, cones, relative filtrations
sl2rep       commuting sl2-pair representations and isotypic decomposition
hodgestruct  (mixed) Hodge structures, polarizations, Deligne bigradings
growth       Hodge-norm growth classes and adapted frames
l2verdict    the square-integrability classifier, without exact algebra
l2complex    the finite L2 Dolbeault models and their cohomology
dbarspec     dbar errors, metric and grid specs, corner rule, Hormander region and
             config parsing, without numpy
dbar         weighted dbar solver on the punctured bidisc (numerical)
cli          batch command-line front door
"""

__version__ = "0.1.0"
