"""Shared exception types and the one input-validation boundary.

Every public argument is checked by :func:`_index` (integer indices n, l, m),
:func:`_real` (real parameters) or :func:`_instance` (the enum choices and
the validated records): a bool, nan, ±inf, a non-number or an integer
beyond the range of a double raises DomainError in the first two, and in
the third anything but a member of the enum, its value string included, or
anything but the record, a plain tuple or a look-alike of the same fields
included.  Callers keep their own range tests; the limits that several
modules share are defined here once.

A record that validates its fields is a named tuple whose ``__new__`` runs
the checks and then builds the tuple with ``tuple.__new__``; its ``_make``
is :func:`_validated_make`, so that ``_replace`` and ``copy.replace`` run
them too.
"""

import math
import numbers
import operator
import sys


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DivergenceError(DomainError):
    """The requested quantity is a divergent integral (e.g. the Lorentz
    trial function has no finite ⟨r²⟩ at l = 0)."""


class ConvergenceError(RuntimeError):
    """Numerical refinement did not reach its tolerance.

    Carries the best available estimate so callers can still inspect it.
    """

    def __init__(self, message, best_estimate=None, error_estimate=None,
                 evaluations=0):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate
        self.evaluations = evaluations


_DOUBLE_MAX = int(sys.float_info.max)
_MAX_TERMS = 10_000_000  # largest n of a loop or sweep over n terms
_MAX_GRID_POINTS = 100_000  # largest grid a CLI flag may request, one row per point


def _index(n, name: str, lo: int = 0, hi: int = _DOUBLE_MAX) -> int:
    """n as an int; DomainError unless n is an integer or an integral float
    (never a bool, nan or inf) with lo <= n <= hi, where hi defaults to the
    largest double: the library computes with n as a double."""
    if type(n) is int:  # the common case, spared the generic checks
        k = n
    elif isinstance(n, float):
        k = int(n) if n.is_integer() else None
    elif isinstance(n, bool):
        k = None
    else:
        try:
            k = operator.index(n)
        except TypeError:
            k = None
    if k is None or k < lo or k > hi:
        if hi == _DOUBLE_MAX:
            limits = f">= {lo} within the range of a double"
        else:  # a limit such as 2**511 - 1 is shown in four digits
            limits = f"in [{lo}, {hi if hi < 10**16 else format(hi, '.4g')}]"
        raise DomainError(f"{name} requires an integer {limits}, got {_shown(n)}")
    return k


def _shown(n) -> str:
    """repr(n), or for an int of more than 40 digits its sign and digit
    count: Python refuses to print an int of more than 4300 digits."""
    if not isinstance(n, int) or abs(n) < 10 ** 40:
        return repr(n)
    d = int(math.log10(abs(n))) + 1  # exact up to one either way
    d += (abs(n) >= 10 ** d) - (abs(n) < 10 ** (d - 1))
    return f"{'a negative' if n < 0 else 'an'} int of {d} digits"


def _real(x, name: str) -> float:
    """x as a finite float; DomainError for a bool, a non-number, nan, ±inf,
    or an integer too large for a double."""
    # float and int are tested before the Real ABC, whose check alone is ~0.7 µs
    if isinstance(x, (float, int, numbers.Real)) and not isinstance(x, bool):
        try:
            v = float(x)
        except OverflowError:  # an int maybe too long even to print
            raise DomainError(f"{name} is an int too large for a double") from None
        if math.isfinite(v):
            return v
    raise DomainError(f"{name} must be a finite real number, got {x!r}")


def _instance(x, kind: type, name: str):
    """x itself; DomainError unless x is an instance of ``kind``: a member of
    an enum (its value, say the string "coulomb", is not) or a validated
    record (a plain tuple, the record's unvalidated base class or another
    named tuple of the same fields is not, since none of them was checked)."""
    if isinstance(x, kind):
        return x
    what = f"{kind.__name__} member" if hasattr(kind, "__members__") else kind.__name__
    raise DomainError(f"{name} must be a {what}, got {x!r}")


def _validated_make(cls, iterable):
    """cls(*iterable): the ``_make`` of a validating named-tuple record.  The
    stock one builds the tuple directly and skips the record's ``__new__``,
    and ``_replace`` (and through it ``copy.replace``) calls ``_make``."""
    return cls(*iterable)
