class FlexconnError(Exception):
    """Base class for all library errors."""


class InputError(FlexconnError, ValueError):
    """Malformed input: bad vertex ids, unknown edge ids, parse failures."""


class InfeasibleInstanceError(FlexconnError):
    """The instance admits no feasible solution (even taking all edges)."""


class InvariantViolation(FlexconnError, RuntimeError):
    """An internal invariant that should hold by construction failed."""


def require(condition: bool, message: str) -> None:
    """Check an internal invariant; raise unconditionally (independent of -O)."""
    if not condition:
        raise InvariantViolation(message)


def require_positive_k(k) -> None:
    """k must be an int >= 1.  The type test also refuses True (bool is an
    int subclass), 2.5 and "2"."""
    if type(k) is not int or k < 1:
        raise InputError(f"k must be a positive integer (got {k!r})")
