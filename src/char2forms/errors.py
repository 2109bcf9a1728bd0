"""The error root shared by every module of the package."""


class Char2FormsError(Exception):
    """Base of every error the library raises on purpose."""


class CheckFailed(Char2FormsError):
    """An internal verification of a computed claim did not hold."""
