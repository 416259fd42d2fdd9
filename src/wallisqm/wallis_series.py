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
The log1p terms are numpy passes over chunks of j, and numpy is imported
there, on the first product, rather than with the module.  A chunk's exact
sum is extracted in a few vector passes (:func:`_exact_parts`, after Rump,
Ogita and Oishi), so the product creates no Python float per term: at
n = 1e6 it is about 6 times faster than listing the terms for fsum.

Direct sums over a whole grid of n (the products and the oracle sums) come
from one sweep, :func:`_prefix_fsums`: each term is computed once, at most
``_SWEEP_CHUNK`` terms are held at a time, and the exact running total is
carried between grid points and chunks as a short float expansion (two
floats for the Wallis log terms), so every value is bit-identical to one
fsum over its own n terms while the cost is O(max n) instead of O(Σn) and
the memory O(chunk) instead of O(n).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import _MAX_TERMS, DomainError, _index, _instance, _real, _validated_make
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
_A_MAX_N = 2**511 - 1  # largest n with a_n >= 2^-1022, the smallest normal double
_B_MAX_N = 2**52 - 2  # largest n with n + 1/2 and n + 3/2 exact doubles


class PartialSum(NamedTuple):
    """A finite series value together with its limit and tail bound.

    ``closed_form_limit`` is always set, by both constructors
    (sum_a_recurrence and sum_b_partial), and |closed_form_limit - value|
    is bounded by ``tail_bound`` (here the tail bound is the exact
    remainder taken from the telescoped partial-sum formula).
    """

    n_terms: int
    value: float
    closed_form_limit: float
    tail_bound: float


class _GeneralizedParams(NamedTuple):
    m: float
    k: float


class GeneralizedParams(_GeneralizedParams):
    """Shifts (m, k) of the generalized sequence b_n.

    Requires finite m > -1 and k > -1 (all gamma arguments positive and
    finite from n = 1) and k - m != -1/2 (finite prefactor in the closed
    forms).
    """

    __slots__ = ()

    def __new__(cls, m: float, k: float):
        if not _real(m, "m") > -1.0:
            raise DomainError(f"m must exceed -1 (gamma pole at n = 1), got m = {m}")
        if not _real(k, "k") > -1.0:
            raise DomainError(f"k must exceed -1 (gamma pole at n = 1), got k = {k}")
        if 2.0 * (k - m) + 1.0 == 0.0:
            raise DomainError(
                f"k - m = -1/2 makes the closed-form prefactor singular (m = {m}, k = {k})"
            )
        return tuple.__new__(cls, (m, k))

    _make = classmethod(_validated_make)


_SWEEP_CHUNK = 1 << 14  # terms a sweep holds at once, 128 KB as float64
_EXTRACT_MIN = 640  # shortest array piece that _exact_parts sums: the measured cross-over


def _exact_expansion(parts: list[float]) -> list[float]:
    """Floats [hi, lo, ...] whose exact sum is that of ``parts``, with
    hi = fsum(parts): each next float is the rounded remainder, until the
    remainder is 0.  A nan or infinite hi is carried alone, as fsum would
    carry it.  Appends to ``parts``."""
    out = [math.fsum(parts)]
    while math.isfinite(out[-1]):
        parts.append(-out[-1])
        rest = math.fsum(parts)
        if rest == 0.0:
            break
        out.append(rest)
    return out


def _exact_parts(a) -> list[float]:
    """A few floats whose exact sum is the exact sum of the float64 array
    ``a``, by error-free extraction (Rump, Ogita and Oishi, "Accurate
    floating-point summation, part I", SIAM J. Sci. Comput. 31(1), 2008).

    With M = ceil(log2(len(a) + 2)) and sigma = 2^(M + e), where 2^e exceeds
    max|a|, each pass splits a into q = (sigma + a) - sigma and the exact
    remainder a - q.  Every q is a multiple of 2^-53·sigma and every partial
    sum of q stays below sigma, so q.sum() is exact in any order, numpy's
    pairwise order included.  The passes repeat until the remainder is 0:
    about 53 - M bits each, at most 3 on a chunk of the Wallis log terms.

    Requires max|a| < 2^(1022 - M), so that sigma + a cannot overflow; for
    any other array, nan and inf included, the elements themselves are
    returned.  Overwrites ``a``.
    """
    import numpy as np

    m = (len(a) + 1).bit_length()  # ceil(log2(len(a) + 2))
    buf = np.empty_like(a)
    mx = float(np.abs(a, out=buf).max())
    if not mx < math.ldexp(1.0, 1022 - m):  # nor is nan
        return a.tolist()
    parts = []
    while mx != 0.0:
        sigma = math.ldexp(1.0, m + math.frexp(mx)[1])
        np.add(a, sigma, out=buf)
        buf -= sigma
        a -= buf
        parts.append(float(buf.sum()))
        mx = float(np.abs(a, out=buf).max())
    return parts


def _prefix_fsums(chunk_terms, ns: list[int]) -> list[float]:
    """math.fsum of terms 1..n for every n of the sorted grid ``ns`` of
    positive integers; ``chunk_terms(lo, hi)`` returns terms lo..hi-1 as a
    list or as a float64 numpy array.

    The terms up to the largest n are computed once, at most _SWEEP_CHUNK at
    a time.  Between grid points and chunks the exact running total is
    carried as an _exact_expansion, never rounded, so each value is
    bit-identical to one fsum over its own terms.  A piece of an array of
    at least _EXTRACT_MIN terms is reduced to a few floats by _exact_parts,
    with no Python float per term; a shorter one, where the kernel's fixed
    cost of a dozen numpy calls would dominate, is listed.
    """
    sums: list[float] = []
    carry: list[float] = []  # exact total of terms 1..done
    done = 0
    last = ns[-1] if ns else 0
    chunk, pos = [], 0  # computed terms; chunk[pos] is term done+1
    for n in ns:
        while done < n:
            if pos == len(chunk):
                chunk, pos = chunk_terms(done + 1, min(last, done + _SWEEP_CHUNK) + 1), 0
            take = min(n - done, len(chunk) - pos)
            part = chunk[pos:pos + take]  # a copy of a list, a view of an array
            if not isinstance(chunk, list):
                part = _exact_parts(part) if take >= _EXTRACT_MIN else part.tolist()
            pos += take
            done += take
            part += carry  # fsum is exact, so the order of its terms does not matter
            carry = _exact_expansion(part)
        sums.append(carry[0])
    return sums


def _wallis_log_terms(lo: int, hi: int):
    """log1p(1/(4j²-1)) for j = lo..hi-1, the logs of the Wallis factors, as
    a float64 numpy array."""
    import numpy as np  # only the Wallis product pays numpy's import

    j = np.arange(lo, hi, dtype=np.float64)
    return np.log1p(1.0 / (4.0 * j * j - 1.0))


def wallis_partial_product(n: int) -> float:
    """P_n = prod_{j=1..n} (2j)²/((2j-1)(2j+1)); increasing, always < π/2.

    Sweeps n terms, so n is limited to 10⁷; DomainError beyond.
    """
    n = _index(n, "wallis_partial_product", lo=1, hi=_MAX_TERMS)
    return math.exp(_prefix_fsums(_wallis_log_terms, [n])[0])


def a_seq(n: int) -> float:
    """a_n = [Γ(n)/Γ(n+1/2)]²/(n+1/2); positive and strictly decreasing.

    a_n ≈ 1/n² is a normal double, at least 2⁻¹⁰²², up to n = 2⁵¹¹ - 1
    (about 6.7e153); DomainError beyond, where it would lose bits and
    then round to 0.
    """
    return _a_term(float(_index(n, "a_seq", lo=1, hi=_A_MAX_N)))


def _a_term(n: float) -> float:
    # a_n for a validated index; float n spares the kernel int/float mixed
    # arithmetic, and rounds exactly as an int operand would
    return math.exp(2.0 * _log_gamma_ratio(n, 0.0, 0.5) - math.log(n + 0.5))


def scaled_a(n: int) -> float:
    """n²·a_n = [Γ(n+1)/Γ(n+1/2)]²/(n+1/2); increases strictly to 1.

    Equals (2/π)·wallis_partial_product(n) exactly.
    """
    n = float(_index(n, "scaled_a", lo=1))
    return math.exp(2.0 * _log_gamma_ratio(n, 1.0, 0.5) - math.log(n + 0.5))


def sum_a_recurrence(n: int) -> PartialSum:
    """s_n = Σ_{i<=n} a_i via the telescoped formula s_n = 4n²a_n - 3a_1.

    The tail bound 4·(1 - n²a_n) is the exact remainder to the limit
    4 - 8/π.
    """
    n = _index(n, "sum_a_recurrence", lo=1)
    sa = scaled_a(n)
    return PartialSum(
        n_terms=n,
        value=4.0 * sa - 3.0 * _A1,
        closed_form_limit=4.0 - 8.0 / math.pi,
        tail_bound=4.0 * (1.0 - sa),
    )


def sum_a_direct(n: int) -> float:
    """Σ_{i<=n} a_i by compensated term-by-term summation (oracle path).

    Sweeps n terms, so n is limited to 10⁷; DomainError beyond.
    """
    n = _index(n, "sum_a_direct", lo=1, hi=_MAX_TERMS)
    return _prefix_fsums(_a_terms, [n])[0]


def _a_terms(lo: int, hi: int) -> list[float]:
    # the sweep's callers have bounded the indices, to 10⁷
    return [_a_term(n) for n in map(float, range(lo, hi))]


def b_seq(p: GeneralizedParams, n: int) -> float:
    """b_n = Γ(n+m)Γ(n+k)/(Γ(n+m+1/2)Γ(n+k+3/2)) > 0.

    n is limited to 2⁵² - 2, the largest n for which the offsets n + 1/2
    and n + 3/2 are exact doubles; DomainError beyond, where they would be
    rounded before the exact-offset kernel sees them.
    """
    if not isinstance(p, GeneralizedParams):  # inline on this hot path
        _instance(p, GeneralizedParams, "b_seq params")
    n = float(_index(n, "b_seq", lo=1, hi=_B_MAX_N))
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
    dominates the observed residual even at the last ulp.  n is limited to
    2⁵² - 2, as in :func:`b_seq`.
    """
    _instance(p, GeneralizedParams, "sum_b_partial params")
    n = _index(n, "sum_b_partial", lo=1, hi=_B_MAX_N)
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
    _instance(p, GeneralizedParams, "sum_b_closed params")
    return _prefactor(p) * (1.0 - _b_limit_term(p))
