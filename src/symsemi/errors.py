"""The two error families that the command line maps to exit codes.

Every input error of the engine derives from ``InputError`` (exit 2, one
``error:`` line); every failed mathematical assertion derives from
``CheckFailure`` (exit 1, one ``assertion failure:`` line).  Any other
``ValueError`` or ``RuntimeError`` is a broken internal invariant (exit 1).
The module imports nothing, so the command line can name both families
without loading the engine.
"""


class InputError(ValueError):
    """The input is invalid: a malformed file, an unknown name, a model
    that violates its own laws, or an out-of-range option."""


class CheckFailure(RuntimeError):
    """A property the engine asserts of a valid input does not hold."""
