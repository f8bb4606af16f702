"""File reading: rational tokens, JSON objects and matrix row files.

Rational values are decimal strings "p" or "p/q" with q > 0 (plain JSON
integers are also accepted).  A matrix row file, what ``oscillator``
reads, holds a square matrix as lines of whitespace-separated rationals.
The model loaders of ``modelio`` and the census loader of ``census`` read
their files through this module too.
"""

import json
import re
from fractions import Fraction
from pathlib import Path

from .errors import InputError


class FormatError(InputError):
    """An input file does not match its schema."""


def _is_int(value) -> bool:
    """A JSON integer; JSON true/false load as bool, an int subclass."""
    return isinstance(value, int) and not isinstance(value, bool)


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _echo(value) -> str:
    """repr(value), or past 40 characters the first 40 and the length."""
    text = value if isinstance(value, str) else repr(value)
    return repr(value) if len(text) <= 40 else \
        f"{text[:40]!r}… ({len(text)} characters)"


def parse_rational(value) -> Fraction:
    """Rational from a file token: int, "p", or "p/q" with q > 0, p and q
    ASCII integers (``_INTEGER``: int() alone also takes underscores and
    non-ASCII digits) with whitespace allowed around either."""
    if _is_int(value):
        return Fraction(value)
    if not isinstance(value, str):
        raise FormatError(f"expected a rational string, got {_echo(value)}")
    num, sep, den = value.partition("/")
    num, den = num.strip(), den.strip() if sep else "1"
    why = 'want "p" or "p/q" with q > 0'
    if _INTEGER.fullmatch(num) and _INTEGER.fullmatch(den):
        try:
            if int(den) > 0:
                return Fraction(int(num), int(den))
        except ValueError:
            # int() refuses more digits than sys.get_int_max_str_digits().
            why = "too many digits"
    raise FormatError(f"bad rational {_echo(value)}: {why}")


def format_rational(x) -> str:
    frac = Fraction(x)
    if frac.denominator == 1:
        return str(frac.numerator)
    return f"{frac.numerator}/{frac.denominator}"


def _located_rational(value, where: str) -> Fraction:
    """``parse_rational`` with ``where`` (file and field) before its
    message."""
    try:
        return parse_rational(value)
    except FormatError as exc:
        raise FormatError(f"{where}: {exc}") from None


def _read_text(spec: str) -> str:
    """The text of the file ``spec``, which must be UTF-8."""
    try:
        return Path(spec).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{spec}: not UTF-8 text ({exc})") from None


def _read_object(spec: str) -> dict:
    """The JSON object in the file ``spec``."""
    text = _read_text(spec)
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # RecursionError: nested too deep; ValueError: an int too long.
        raise FormatError(f"{spec}: not valid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise FormatError(f"{spec}: top level must be an object")
    return data


def load_matrix_rows(spec: str) -> list[list[Fraction]]:
    """Square matrix from a text file of whitespace-separated rationals.

    Blank lines and lines starting with ``#`` are skipped.
    """
    rows = []
    for lineno, line in enumerate(_read_text(spec).splitlines(), 1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        rows.append([_located_rational(tok, f"{spec}:{lineno}")
                     for tok in text.split()])
    if not rows:
        raise FormatError(f"{spec}: no matrix rows found")
    width = len(rows[0])
    if any(len(r) != width for r in rows) or len(rows) != width:
        raise FormatError(f"{spec}: matrix must be square")
    return rows
