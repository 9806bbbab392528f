"""Exception types shared across the package."""


class FoilFemError(Exception):
    """Base class for all package-specific errors."""


class SingularMatrixError(FoilFemError):
    """A factorization hit a pivot below tolerance or a non-SPD block."""


class InconsistentRhsError(FoilFemError):
    """Right-hand side has mass outside the solvable support."""


class SizeGuardError(FoilFemError):
    """A dense diagnostic was requested above its size limit."""


class IndefiniteDifferenceError(FoilFemError):
    """Conductance-matrix difference has a significantly negative eigenvalue."""


class NonpositiveInductanceError(FoilFemError):
    """Extracted inductance is not positive; an assumption is violated."""


class SingularConductanceError(FoilFemError):
    """Conductance matrix is numerically singular; Schur reduction impossible."""


class DegenerateGeometryError(FoilFemError):
    """A geometry region collapsed to zero extent."""


class EmptyWindingError(FoilFemError):
    """No mesh elements carry the winding region tag."""


class ParseError(FoilFemError):
    """Malformed text input (mesh file, netlist, config)."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


class ValidationError(FoilFemError):
    """Structurally valid input violating a semantic invariant.

    ``key`` names the offending configuration key and ``line`` its line in the
    config file, when known.
    """

    def __init__(self, message, key=None, line=None):
        self.message = message
        self.key = key
        self.line = line
        super().__init__(message + (f" (line {line})" if line is not None else ""))


class UnclassifiedElementError(FoilFemError):
    """A field element lacks an inductance-/resistance-like classification."""


class InconsistentInitialStateError(FoilFemError):
    """Zero start violates the algebraic equations at the initial time."""


class SingularSystemAtStepError(FoilFemError):
    """The implicit Euler iteration matrix could not be factorized."""
