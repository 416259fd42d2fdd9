import math
import tracemalloc
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wallisqm import wallis_series as ws
from wallisqm.errors import DomainError
from wallisqm.verify import _wallis_products
from wallisqm.wallis_series import (GeneralizedParams, a_seq, b_seq, scaled_a,
                                    sum_a_direct, sum_a_recurrence,
                                    sum_b_closed, sum_b_partial,
                                    wallis_partial_product)

PI = math.pi
A1 = 8.0 / (3.0 * PI)
A2 = 32.0 / (45.0 * PI)       # via Gamma(2.5) = (3/4)sqrt(pi) by the recurrence
S2 = 152.0 / (45.0 * PI)      # a_1 + a_2, also 16 a_2 - 3 a_1
LIMIT_A = 4.0 - 8.0 / PI


class TestWallisPartialProduct:
    def test_first_values(self):
        assert wallis_partial_product(1) == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert wallis_partial_product(2) == pytest.approx(64.0 / 45.0, rel=1e-15)

    def test_large_n_envelope(self):
        n = 10**5
        p = wallis_partial_product(n)
        assert PI / 2.0 * (1.0 - 1.0 / (4.0 * n + 2.0)) < p < PI / 2.0

    def test_strictly_increasing_below_half_pi(self):
        prev = 0.0
        for p in _wallis_products()[:500]:
            assert prev < p < PI / 2.0
            prev = p

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            wallis_partial_product(0)


class TestASequence:
    def test_a1(self):
        assert a_seq(1) == pytest.approx(A1, rel=1e-14)

    def test_a2(self):
        assert a_seq(2) == pytest.approx(A2, rel=1e-14)

    def test_ratio_a2_a1(self):
        # consecutive-term ratio 4(n-1)^2/(4n^2-1) at n = 2
        assert a_seq(2) / a_seq(1) == pytest.approx(4.0 / 15.0, rel=1e-13)

    def test_strictly_decreasing(self):
        vals = [a_seq(n) for n in range(1, 500)]
        assert all(x > y for x, y in zip(vals, vals[1:]))

    @given(st.integers(min_value=2, max_value=10_000))
    @settings(max_examples=200, deadline=None)
    def test_telescoping_recurrence(self, n):
        # 4n^2 a_n = 4(n-1)^2 a_{n-1} + a_n
        lhs = 4.0 * n * n * a_seq(n)
        rhs = 4.0 * (n - 1.0) ** 2 * a_seq(n - 1) + a_seq(n)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestScaledA:
    def test_values(self):
        assert scaled_a(1) == pytest.approx(A1, rel=1e-14)
        assert scaled_a(2) == pytest.approx(128.0 / (45.0 * PI), rel=1e-14)

    def test_equals_scaled_product_up_to_1e4(self):
        worst = 0.0
        for n, p in enumerate(_wallis_products()[:10_000], 1):
            worst = max(worst, abs(scaled_a(n) - 2.0 / PI * p) / (2.0 / PI * p))
        assert worst <= 1e-13

    def test_strictly_increasing_below_one(self):
        vals = [scaled_a(n) for n in range(1, 500)]
        assert all(x < y for x, y in zip(vals, vals[1:]))
        assert all(v < 1.0 for v in vals)

    @pytest.mark.parametrize("n", [1, 7, 100, 10**4, 10**6])
    def test_kazarinoff_gap(self, n):
        gap = 1.0 - scaled_a(n)
        assert 0.0 < gap < 1.0 / (4.0 * n + 2.0)


class TestSumA:
    def test_n1_is_a1(self):
        ps = sum_a_recurrence(1)
        assert ps.value == pytest.approx(A1, rel=1e-13)

    def test_n2_hand_value(self):
        assert sum_a_recurrence(2).value == pytest.approx(S2, rel=1e-13)
        assert sum_a_direct(2) == pytest.approx(S2, rel=1e-14)

    def test_limit_field(self):
        assert sum_a_recurrence(5).closed_form_limit == pytest.approx(LIMIT_A, rel=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 10, 100, 1000, 10_000])
    def test_paths_agree(self, n):
        rec = sum_a_recurrence(n).value
        direct = sum_a_direct(n)
        assert rec == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 3, 50, 2000, 10**5])
    def test_tail_bound_is_exact_remainder(self, n):
        ps = sum_a_recurrence(n)
        assert ps.tail_bound == pytest.approx(4.0 * (1.0 - scaled_a(n)), rel=1e-13)
        assert abs(ps.closed_form_limit - ps.value) <= ps.tail_bound

    def test_convergence_to_limit(self):
        n = 10_000
        ps = sum_a_recurrence(n)
        assert abs(ps.closed_form_limit - ps.value) <= 4.0 / (4.0 * n + 2.0)


class TestGeneralizedParams:
    @pytest.mark.parametrize("m,k", [(-1.0, 0.0), (0.0, -1.0), (-2.0, 3.0)])
    def test_pole_rejected(self, m, k):
        with pytest.raises(DomainError):
            GeneralizedParams(m, k)

    @pytest.mark.parametrize("m,k", [(math.inf, 0.0), (0.0, math.inf), (math.nan, 0.0),
                                     (0.0, math.nan)])
    def test_non_finite_rejected(self, m, k):
        with pytest.raises(DomainError):
            GeneralizedParams(m, k)

    @pytest.mark.parametrize("m,k", [(0.5, 0.0), (1.0, 0.5)])
    def test_singular_prefactor_rejected(self, m, k):
        with pytest.raises(DomainError):
            GeneralizedParams(m, k)


class TestBSequence:
    @pytest.mark.parametrize("n", [1, 2, 17, 400])
    def test_reduces_to_a(self, n):
        p = GeneralizedParams(0.0, 0.0)
        assert b_seq(p, n) == pytest.approx(a_seq(n), rel=1e-13)

    def test_hand_values(self):
        assert b_seq(GeneralizedParams(1.0, 1.0), 1) == pytest.approx(A2, rel=1e-14)
        assert b_seq(GeneralizedParams(0.5, 0.5), 1) == pytest.approx(PI / 8.0, rel=1e-14)

    @given(
        st.floats(min_value=-0.9, max_value=3.0),
        st.floats(min_value=-0.9, max_value=3.0),
        st.integers(min_value=2, max_value=500),
    )
    @settings(max_examples=200, deadline=None)
    def test_consecutive_ratio(self, m, k, n):
        if 2.0 * (k - m) + 1.0 == 0.0:
            return
        p = GeneralizedParams(m, k)
        expected = (n + m - 1.0) * (n + k - 1.0) / (
            (n + m) * (n + k) + 0.5 * (m - k) - 0.25)
        assert b_seq(p, n) / b_seq(p, n - 1) == pytest.approx(expected, rel=1e-12)


class TestSumB:
    def test_reduces_to_a_sums(self):
        p = GeneralizedParams(0.0, 0.0)
        assert sum_b_partial(p, 1).value == pytest.approx(A1, rel=1e-13)
        assert sum_b_partial(p, 2).value == pytest.approx(S2, rel=1e-13)
        assert sum_b_closed(p) == pytest.approx(LIMIT_A, rel=1e-14)

    def test_closed_hand_values(self):
        assert sum_b_closed(GeneralizedParams(0.5, 0.5)) == pytest.approx(
            4.0 - PI, rel=1e-13)
        assert sum_b_closed(GeneralizedParams(1.0, 0.0)) == pytest.approx(
            16.0 / PI - 4.0, rel=1e-13)

    def test_partial_matches_direct(self):
        p = GeneralizedParams(1.0, 2.0)
        direct = math.fsum(b_seq(p, i) for i in range(1, 51))
        assert sum_b_partial(p, 50).value == pytest.approx(direct, rel=1e-10)

    @pytest.mark.parametrize("m,k", [(-0.4, 0.0), (0.0, -0.4), (2.3, 1.0), (0.5, 2.3)])
    def test_tail_bound_dominates_residual(self, m, k):
        p = GeneralizedParams(m, k)
        part = sum_b_partial(p, 500)
        residual = sum_b_closed(p) - part.value
        assert 0.0 < residual <= part.tail_bound

    @pytest.mark.parametrize("m", [-0.9, -0.7, -0.55, -0.5])
    @pytest.mark.parametrize("k", [0.0, 1.0])
    def test_negative_gamma_below_half(self, m, k):
        # Γ(m+1/2) < 0 for m in (-1, -1/2) and infinite at m = -1/2
        p = GeneralizedParams(m, k)
        direct = math.fsum(b_seq(p, i) for i in range(1, 201))
        assert sum_b_partial(p, 200).value == pytest.approx(direct, rel=1e-12)
        with mp.workdps(50):
            M, K = mp.mpf(m), mp.mpf(k)
            g = mp.rgamma(M + 0.5) * mp.gamma(M + 1) * mp.gamma(K + 1) / mp.gamma(K + 1.5)
            closed = 4 / (2 * (K - M) + 1) * (1 - g)
            assert sum_b_closed(p) == pytest.approx(float(closed), rel=1e-13)

    @pytest.mark.parametrize("m,k", [(0.0, 0.0), (-0.4, 1.0), (1.0, 0.0)])
    def test_remainder_decays_like_1_over_n(self, m, k):
        p = GeneralizedParams(m, k)
        closed = sum_b_closed(p)
        scaled = [abs(closed - sum_b_partial(p, n).value) * n for n in (100, 400, 1600)]
        assert max(scaled) < 4.0 * max(scaled[0], 1e-30) + 1.0  # bounded, no growth
        assert scaled[2] <= scaled[0] * 1.5


def _bits(values):
    return [v.hex() for v in values]


class TestPrefixSweep:
    @pytest.mark.parametrize("as_array", [False, True])
    @given(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=40),
           st.lists(st.integers(0, 10**6), min_size=1, max_size=12),
           st.integers(1, 6))
    @example([1.0, 1e-100, -1.0, 1e100, 1e-300, -1e100], [1, 2, 3, 3, 6], 1)
    @example([0.1] * 30, [1, 30], 4)
    @example([-0.0, -0.0, 5e-324], [1, 1, 2, 3], 2)
    @example([1.0, math.nan, 2.0], [0, 1, 2], 1)  # a nan total must not loop forever
    @example([1.0, math.inf, 2.0], [0, 1, 2], 1)
    @example([-math.inf, 1.0, 0.5], [0, 1, 2], 2)
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_fsum_of_each_prefix(self, as_array, terms, picks, chunk):
        # random sorted grids with repeated points and gaps of several chunks;
        # array chunks, as _wallis_log_terms returns, go through _exact_parts
        # from 2 terms a piece and are listed below that
        grid = sorted(1 + p % len(terms) for p in picks)
        calls = []

        def chunk_terms(lo, hi):
            calls.append((lo, hi))
            part = terms[lo - 1:hi - 1]
            return np.array(part, dtype=np.float64) if as_array else part

        with mock.patch.object(ws, "_SWEEP_CHUNK", chunk), \
                mock.patch.object(ws, "_EXTRACT_MIN", 2):
            got = ws._prefix_fsums(chunk_terms, grid)
        assert _bits(got) == _bits(math.fsum(terms[:n]) for n in grid)
        # each term computed once, at most one chunk at a time
        assert [lo for lo, _ in calls] == [1] + [hi for _, hi in calls[:-1]]
        assert calls[-1][1] == grid[-1] + 1
        assert all(hi - lo <= chunk for lo, hi in calls)

    def test_opposite_infinities_raise_like_fsum(self):
        terms = [math.inf, 1.0, -math.inf]
        with pytest.raises(ValueError):
            math.fsum(terms)
        with pytest.raises(ValueError):
            ws._prefix_fsums(lambda lo, hi: terms[lo - 1:hi - 1], [1, 3])

    def test_wallis_carry_is_two_floats(self):
        terms = ws._wallis_log_terms(1, 10**5 + 1).tolist()
        assert len(ws._exact_expansion(terms[:4321])) == 2

    def test_product_across_chunks_matches_one_chunk(self):
        one_chunk = wallis_partial_product(5000)
        with mock.patch.object(ws, "_SWEEP_CHUNK", 777):
            assert wallis_partial_product(5000) == one_chunk
            assert sum_a_direct(3000) == math.fsum(a_seq(i) for i in range(1, 3001))

    def test_wallis_sweep_memory_is_bounded_by_the_chunk(self):
        # one chunk of terms and the kernel's buffer, never a list of n floats
        wallis_partial_product(10)  # numpy imported outside the trace
        tracemalloc.start()
        try:
            wallis_partial_product(10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_list_sweep_memory_is_bounded_by_the_chunk(self):
        # three list chunks and a piece: one chunk and its slice at a time,
        # never the 49 157 terms at once (about 1.6 MB more)
        n = 3 * ws._SWEEP_CHUNK + 5
        sum_a_direct(10)
        tracemalloc.start()
        try:
            sum_a_direct(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20


def _fsum_bits(terms):
    """math.fsum(terms) as hex, or the type of the error it raises."""
    try:
        return math.fsum(terms).hex()
    except (ValueError, OverflowError) as exc:
        return type(exc)


def _assert_same_sum(parts, terms):
    """fsum(parts) is fsum(terms) bit for bit and, for finite terms, the two
    exact sums are equal: fsum of their difference is exactly 0."""
    assert _fsum_bits(parts) == _fsum_bits(terms)
    if all(map(math.isfinite, terms)):
        assert math.fsum(parts + [-t for t in terms]) == 0.0


def _extract_limit(length):
    """The largest magnitude _exact_parts sums: below 2^(1022 - M)."""
    return math.nextafter(math.ldexp(1.0, 1022 - (length + 1).bit_length()), 0.0)


class TestExactParts:
    @given(st.lists(st.one_of(st.floats(-_extract_limit(40), _extract_limit(40)),
                              st.floats(-1e-300, 1e-300), st.just(0.0)),
                    min_size=1, max_size=40))
    @example([_extract_limit(40)] * 40)
    @example([math.ldexp(1.0, 1020), 1.0])  # at 2^(1022 - M): listed, not extracted
    @example([5e-324, -5e-324, 1e-310, 1.0])
    @example([1.0, math.nan])
    @example([math.inf, 1.0, -math.inf])
    @settings(max_examples=300, deadline=None)
    def test_fsum_of_parts_is_fsum_of_terms(self, terms):
        _assert_same_sum(ws._exact_parts(np.array(terms, dtype=np.float64)), terms)

    @given(st.integers(1, 4000), st.integers(0, 2**32 - 1),
           st.integers(-1074, 1010), st.integers(0, 2100), st.floats(0.0, 0.5),
           st.sampled_from([(-1.0, 1.0), (0.0, 1.0), (-1.0, 0.0)]))
    @settings(max_examples=100, deadline=None)
    def test_long_arrays_of_mixed_signs_and_exponents(self, length, seed, top, span,
                                                      zeros, signs):
        # exponents from `top` down `span` binades, subnormals and the
        # precondition's edge included, with a share of exact zeros; terms of
        # one sign make the extracted sums largest against sigma
        rng = np.random.default_rng(seed)
        top = min(top, 1022 - (length + 1).bit_length())
        exps = rng.integers(max(top - span, -1074), top, endpoint=True, size=length)
        a = np.ldexp(rng.uniform(*signs, length), exps)
        a[rng.random(length) < zeros] = 0.0
        terms = a.tolist()
        parts = ws._exact_parts(a)
        _assert_same_sum(parts, terms)
        assert len(parts) <= 60

    def test_arrays_longer_than_a_chunk(self):
        rng = np.random.default_rng(12)
        n = 2**16 - 2  # several chunks long; n + 2 = 2^M exactly, the longest for M = 16
        arrays = [
            ws._wallis_log_terms(1, 200_002),
            np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(-1074, 990, size=n)),
            rng.uniform(0.5, 1.0, n),
            -rng.uniform(0.5, 1.0, n),  # sigma + a below sigma: the finer grid
            np.ldexp(-rng.uniform(0.5, 1.0, n), 1021 - (n + 1).bit_length()),
            np.full(n, _extract_limit(n)),
            np.full(n, -_extract_limit(n)),
        ]
        for a in arrays:
            terms = a.tolist()
            _assert_same_sum(ws._exact_parts(a), terms)

    def test_wallis_terms_take_a_few_passes(self):
        terms = ws._wallis_log_terms(1, ws._SWEEP_CHUNK + 1)
        assert len(ws._exact_parts(terms)) <= 3
