"""Wallis partial products and the gamma-ratio series they sum.

Three intertwined objects:

* the Wallis partial product  P_n = prod_{j<=n} (2j)²/((2j-1)(2j+1)),
  increasing to π/2;
* the sequence  a_n = [Γ(n)/Γ(n+1/2)]²/(n+1/2)  whose scaled form
  n²·a_n equals (2/π)·P_n exactly and increases to 1;
* the two-parameter generalization
  b_n = Γ(n+m)Γ(n+k)/(Γ(n+m+1/2)Γ(n+k+3/2)), which telescopes the same
  way and has the closed infinite sum
  (4/(2(k-m)+1))·[1 - Γ(m+1)Γ(k+1)/(Γ(m+1/2)Γ(k+3/2))].

Partial sums come in two deliberately independent flavours: the exact
telescoped formula (s_n = 4n²a_n - 3a_1 and its b-analogue) and plain
term-by-term compensated summation, so each path can certify the other.

P_n is evaluated as exp(Σ log1p(1/(4j²-1))) with exact (fsum) accumulation:
a naively rounded running product drifts by ~n·ulp, which at n = 1e6 is
larger than the gap separating P_n from its π/2·(1 - 1/(4n+2)) envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .gamma_kit import _log_gamma_ratio

__all__ = [
    "PartialSum",
    "GeneralizedParams",
    "wallis_partial_product",
    "a_seq",
    "scaled_a",
    "sum_a_recurrence",
    "sum_a_direct",
    "b_seq",
    "sum_b_partial",
    "sum_b_closed",
]

_A1 = 8.0 / (3.0 * math.pi)  # a_1, the first series term


@dataclass(frozen=True)
class PartialSum:
    """A finite series value together with its limit and tail bound.

    When ``closed_form_limit`` is present, |closed_form_limit - value| is
    bounded by ``tail_bound`` (here the tail bound is the exact remainder
    taken from the telescoped partial-sum formula).
    """

    n_terms: int
    value: float
    closed_form_limit: float | None
    tail_bound: float


@dataclass(frozen=True)
class GeneralizedParams:
    """Shifts (m, k) of the generalized sequence b_n.

    Requires m > -1 and k > -1 (all gamma arguments positive from n = 1)
    and k - m != -1/2 (finite prefactor in the closed forms).
    """

    m: float
    k: float

    def __post_init__(self):
        if not self.m > -1.0:
            raise DomainError(f"m must exceed -1 (gamma pole at n = 1), got m = {self.m}")
        if not self.k > -1.0:
            raise DomainError(f"k must exceed -1 (gamma pole at n = 1), got k = {self.k}")
        if 2.0 * (self.k - self.m) + 1.0 == 0.0:
            raise DomainError(
                f"k - m = -1/2 makes the closed-form prefactor singular (m = {self.m}, k = {self.k})"
            )


def _check_positive_index(n, name: str) -> int:
    if n != int(n) or n < 1:
        raise DomainError(f"{name} requires a positive integer, got {n}")
    return int(n)


def wallis_partial_product(n: int) -> float:
    """P_n = prod_{j=1..n} (2j)²/((2j-1)(2j+1)); increasing, always < π/2."""
    n = _check_positive_index(n, "wallis_partial_product")
    j = np.arange(1, n + 1, dtype=np.float64)
    terms = np.log1p(1.0 / (4.0 * j * j - 1.0))
    return math.exp(math.fsum(terms.tolist()))


def a_seq(n: int) -> float:
    """a_n = [Γ(n)/Γ(n+1/2)]²/(n+1/2); positive and strictly decreasing."""
    n = _check_positive_index(n, "a_seq")
    return math.exp(2.0 * _log_gamma_ratio(n, 0.0, 0.5) - math.log(n + 0.5))


def scaled_a(n: int) -> float:
    """n²·a_n = [Γ(n+1)/Γ(n+1/2)]²/(n+1/2); increases strictly to 1.

    Equals (2/π)·wallis_partial_product(n) exactly.
    """
    n = _check_positive_index(n, "scaled_a")
    return math.exp(2.0 * _log_gamma_ratio(n, 1.0, 0.5) - math.log(n + 0.5))


def sum_a_recurrence(n: int) -> PartialSum:
    """s_n = Σ_{i<=n} a_i via the telescoped formula s_n = 4n²a_n - 3a_1.

    The tail bound 4·(1 - n²a_n) is the exact remainder to the limit
    4 - 8/π.
    """
    n = _check_positive_index(n, "sum_a_recurrence")
    sa = scaled_a(n)
    return PartialSum(
        n_terms=n,
        value=4.0 * sa - 3.0 * _A1,
        closed_form_limit=4.0 - 8.0 / math.pi,
        tail_bound=4.0 * (1.0 - sa),
    )


def sum_a_direct(n: int) -> float:
    """Σ_{i<=n} a_i by compensated term-by-term summation (oracle path)."""
    n = _check_positive_index(n, "sum_a_direct")
    return math.fsum(a_seq(i) for i in range(1, n + 1))


def b_seq(p: GeneralizedParams, n: int) -> float:
    """b_n = Γ(n+m)Γ(n+k)/(Γ(n+m+1/2)Γ(n+k+3/2)) > 0."""
    n = _check_positive_index(n, "b_seq")
    # the real shifts m, k take the kernel's x slot, so the exact offsets
    # n, n+1/2, n+3/2 keep n+m+1/2 and n+k+3/2 exact through its two-sums
    return math.exp(_log_gamma_ratio(p.m, n, n + 0.5) + _log_gamma_ratio(p.k, n, n + 1.5))


def _prefactor(p: GeneralizedParams) -> float:
    return 4.0 / (2.0 * (p.k - p.m) + 1.0)


def _b_limit_term(p: GeneralizedParams) -> float:
    """Γ(m+1)Γ(k+1)/(Γ(m+1/2)Γ(k+3/2)), the b_1 contribution after the
    4(m+1)(k+1) - 2(k-m) - 1 = 4(m+1/2)(k+3/2) simplification.

    For m <= -1/2, where Γ(m+1/2) is negative or infinite, Γ(m+1)/Γ(m+1/2)
    is taken as (m+1/2)·Γ(m+1)/Γ(m+3/2): it keeps the sign and is 0 at -1/2.
    """
    lk = _log_gamma_ratio(p.k, 1.0, 1.5)
    if p.m > -0.5:
        return math.exp(_log_gamma_ratio(p.m, 1.0, 0.5) + lk)
    return (p.m + 0.5) * math.exp(_log_gamma_ratio(p.m, 1.0, 1.5) + lk)


def sum_b_partial(p: GeneralizedParams, n: int) -> PartialSum:
    """Σ_{i<=n} b_i via the telescoped closed formula.

    With C = 4/(2(k-m)+1) and g = Γ(m+1)Γ(k+1)/(Γ(m+1/2)Γ(k+3/2)):
    partial = C·((n+m)(n+k)·b_n - g) and limit = C·(1 - g).  The exact
    remainder C·(1 - (n+m)(n+k)·b_n) equals limit - partial and is
    reported as the tail bound through that difference, so the bound
    dominates the observed residual even at the last ulp.
    """
    n = _check_positive_index(n, "sum_b_partial")
    c = _prefactor(p)
    q = (n + p.m) * (n + p.k) * b_seq(p, n)
    g = _b_limit_term(p)
    value = c * (q - g)
    limit = c * (1.0 - g)
    return PartialSum(
        n_terms=n,
        value=value,
        closed_form_limit=limit,
        tail_bound=limit - value,
    )


def sum_b_closed(p: GeneralizedParams) -> float:
    """Σ_{n>=1} b_n = (4/(2(k-m)+1))·[1 - Γ(m+1)Γ(k+1)/(Γ(m+1/2)Γ(k+3/2))]."""
    return _prefactor(p) * (1.0 - _b_limit_term(p))
