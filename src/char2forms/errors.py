"""The error root shared by every module of the package."""


class Char2FormsError(Exception):
    """Base of every error the library raises on purpose."""


class FieldError(Char2FormsError):
    pass


class DescriptorMismatch(FieldError):
    """Operands belong to different fields."""


class CheckFailed(Char2FormsError):
    """An internal verification of a computed claim did not hold."""


def require(cond, msg: str) -> None:
    """Raise CheckFailed(msg) unless cond holds; unlike `assert`, it runs under -O."""
    if not cond:
        raise CheckFailed(msg)
