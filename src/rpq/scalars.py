"""Scalar values in two modes: exact rationals and tolerance-checked floats.

Exact values are `fractions.Fraction`; approximate values are `float`.
Plain ints are neutral constants that combine with either mode.  Nothing in
this package silently mixes the two: callers use :func:`check_uniform_mode`
at boundaries where user-supplied values enter a computation.

Sums are exact in both modes: a float is the dyadic rational it is
(`integer_ratios`), values are brought to integers over one denominator
(`over_lcm`), and the mode decides only how the result is built
(`ratio`): one Fraction, or one float rounded once.
"""

from __future__ import annotations

import math
import re
import sys
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, List, Tuple, Union

from .errors import ModeMixError, ValidationError

Scalar = Union[Fraction, float, int]

DEFAULT_TOL = 1e-10

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_scalar(text: str) -> Scalar:
    """Parse "a/b" or integer strings to Fraction; decimal strings to float.

    Decimal notation deliberately lands in approximate mode, so "1/2" and
    "0.5" are not interchangeable inputs.
    """
    text = text.strip()
    if _RATIONAL_RE.match(text):
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValidationError(f"zero denominator in rational {text!r}") from None
        except ValueError:  # past the interpreter's limit on the digits of an int read from text
            raise ValidationError(f"rational {text[:20]}... is too long: an integer may have at most "
                                  f"{sys.get_int_max_str_digits()} digits") from None
    try:
        return float(text)
    except ValueError:
        raise ValidationError(f"not a rational or decimal number: {text!r}") from None


def check_uniform_mode(values: Iterable[Scalar], where: str) -> None:
    """Raise ModeMixError if both Fractions and floats appear in `values`."""
    saw_exact = saw_float = False
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (Fraction, float, int)):
            raise ValidationError(f"{where}: non-numeric value {v!r}")
        if isinstance(v, float):
            saw_float = True
        elif isinstance(v, Fraction):
            saw_exact = True
    if saw_exact and saw_float:
        raise ModeMixError(f"{where}: exact and approximate values mixed")


def integer_ratios(values: Iterable) -> List[Tuple[int, int]]:
    """Each of `values`, a rational, an int or a float (each an exact dyadic
    rational, `float.as_integer_ratio`), as a (numerator, denominator) pair
    of ints; a pair passes as it is.  A float with no ratio (inf or nan)
    raises OverflowError."""
    try:
        return [v if type(v) is tuple else v.as_integer_ratio() for v in values]
    except ValueError as exc:  # nan; inf raises OverflowError itself
        raise OverflowError(str(exc)) from None


def over_lcm(values: Iterable) -> Tuple[List[int], int]:
    """Each of `values` (`integer_ratios`) as an integer numerator over the
    lcm of their denominators, and that lcm."""
    pairs = integer_ratios(values)
    denominator = math.lcm(*{d for _, d in pairs})
    return [n * (denominator // d) for n, d in pairs], denominator


def ratio(numerator: int, denominator: int, exact: bool) -> Scalar:
    """numerator / denominator as one Fraction, or as the float it rounds to
    (once, correctly, half to even; OverflowError beyond the float range)."""
    return Fraction(numerator, denominator) if exact else numerator / denominator


def scalars_close(a: Scalar, b: Scalar, exact: bool, tol: float = DEFAULT_TOL) -> bool:
    if exact:
        return a == b
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


def scalar_str(value: Scalar) -> str:
    """Deterministic string form: "4/7" style for rationals, repr for floats.
    `Decimal` writes an int's digits past the interpreter's limit on int-to-str
    conversion, which guards parsing, not output."""
    if isinstance(value, float):
        return repr(value)
    value = Fraction(value)
    text = str(Decimal(value.numerator))
    return text if value.denominator == 1 else f"{text}/{Decimal(value.denominator)}"
