"""Exception types shared across the package."""


class LinearcatError(Exception):
    pass


class ParseError(LinearcatError):
    """Raised on malformed word or term text; carries the failing offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (offset {position})")
        self.position = position


class BoundaryMismatch(LinearcatError):
    """Composition of terms or morphisms whose boundaries do not meet."""


class NonInvertibleGenerator(LinearcatError):
    """Inversion requested for a generator the current mode does not invert."""

    def __init__(self, kind: str, mode: str):
        super().__init__(f"generator {kind!r} has no inverse in {mode} mode")
        self.kind = kind
        self.mode = mode


class ArityMismatch(LinearcatError):
    """Object or morphism tuple length does not match the word's length."""


class IntegrityError(LinearcatError):
    """A uniqueness guarantee of the model was violated (two witnesses)."""


class LineariserRequired(LinearcatError):
    """Central-morphism addition needs an invertible transformer."""


class NotCentralMorphism(LinearcatError, ValueError):
    """Central addition was given a morphism whose central matrix has no
    realizer."""


class NotInvertibleInModel(LinearcatError):
    """A component has no two-sided inverse in the model."""


class ModelFileError(LinearcatError):
    """Malformed model description file."""
