"""GF(q) polynomial families: agreement, sizes, selection conditions."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InvalidParameterError
from repro.families import PolynomialFamily, select_family


class TestPolynomialFamily:
    def test_size(self):
        fam = PolynomialFamily(q=5, degree=2)
        assert fam.size == 125
        assert fam.num_pairs == 25
        assert fam.agreement == 2

    def test_modulus_must_be_prime(self):
        with pytest.raises(InvalidParameterError):
            PolynomialFamily(q=6, degree=1)

    def test_negative_degree(self):
        with pytest.raises(InvalidParameterError):
            PolynomialFamily(q=5, degree=-1)

    def test_evaluate_constant_polynomials(self):
        fam = PolynomialFamily(q=7, degree=0)
        for x in range(7):
            for alpha in range(7):
                assert fam.evaluate(x, alpha) == x

    def test_evaluate_linear(self):
        # x = c1*q + c0 encodes c0 + c1*alpha
        fam = PolynomialFamily(q=5, degree=1)
        x = 3 * 5 + 2  # 2 + 3*alpha
        assert fam.evaluate(x, 0) == 2
        assert fam.evaluate(x, 1) == 0  # (2+3) mod 5
        assert fam.evaluate(x, 4) == (2 + 12) % 5

    def test_evaluate_bounds_checked(self):
        fam = PolynomialFamily(q=3, degree=1)
        with pytest.raises(InvalidParameterError):
            fam.evaluate(9, 0)
        with pytest.raises(InvalidParameterError):
            fam.evaluate(0, 3)

    def test_agreement_exhaustive_small(self):
        """Two distinct degree-D polynomials agree on ≤ D points: check all
        pairs over GF(5), degree 2."""
        fam = PolynomialFamily(q=5, degree=2)
        rows = [fam.row(x) for x in range(fam.size)]
        for x, y in itertools.combinations(range(fam.size), 2):
            agreements = sum(1 for a, b in zip(rows[x], rows[y], strict=True) if a == b)
            assert agreements <= 2, (x, y)

    def test_rows_distinct(self):
        fam = PolynomialFamily(q=3, degree=1)
        rows = {fam.row(x) for x in range(fam.size)}
        assert len(rows) == fam.size

    def test_encode_decode_pair(self):
        fam = PolynomialFamily(q=11, degree=1)
        for alpha in (0, 5, 10):
            for beta in (0, 7):
                color = fam.encode_pair(alpha, beta)
                assert 0 <= color < fam.num_pairs
                assert fam.decode_pair(color) == (alpha, beta)


class TestSelectFamily:
    def test_covers_color_space(self):
        fam = select_family(1000, conflict_degree=8, defect_prev=0, defect_new=0)
        assert fam.size >= 1000

    def test_conflict_condition_zero_defect(self):
        """Lemma 5.1 condition with d = d' = 0: q > degree * Δ."""
        for M, delta in [(100, 4), (5000, 10), (10**6, 30)]:
            fam = select_family(M, delta, 0, 0)
            assert fam.q > fam.degree * delta
            assert fam.size >= M

    def test_conflict_condition_with_defect(self):
        for M, delta, d in [(4000, 20, 5), (10**5, 50, 10)]:
            fam = select_family(M, delta, 0, d)
            assert fam.q * (d + 1) > fam.degree * delta
            assert fam.size >= M

    def test_accumulated_defect(self):
        fam = select_family(900, conflict_degree=30, defect_prev=4, defect_new=8)
        # condition: q > degree * (30-4) / (8-4+1)
        assert fam.q > fam.degree * 26 / 5
        assert fam.size >= 900

    def test_defect_budget_cannot_shrink(self):
        with pytest.raises(InvalidParameterError):
            select_family(100, 5, defect_prev=3, defect_new=2)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidParameterError):
            select_family(0, 5, 0, 0)
        with pytest.raises(InvalidParameterError):
            select_family(10, -1, 0, 0)

    def test_defect_shrinks_modulus(self):
        """Allowing defect must not make the family larger."""
        strict = select_family(10**5, 40, 0, 0)
        loose = select_family(10**5, 40, 0, 10)
        assert loose.q <= strict.q

    def test_isolated_vertices(self):
        fam = select_family(50, conflict_degree=0, defect_prev=0, defect_new=0)
        assert fam.size >= 50

    @given(
        M=st.integers(min_value=2, max_value=10**6),
        delta=st.integers(min_value=0, max_value=200),
        d=st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_selection_sound(self, M, delta, d):
        fam = select_family(M, delta, 0, d)
        assert fam.size >= M
        # strict Lemma 5.1 inequality with d' = 0
        assert fam.q * (d + 1) > fam.degree * delta


class TestSelectFamilyMemo:
    """``select_family`` is memoized; the cache changes no answer and
    swallows no error."""

    def test_cached_equals_uncached_over_a_grid(self):
        uncached = select_family.__wrapped__
        grid = itertools.product(
            [1, 2, 7, 50, 10**3, 10**6], [0, 1, 5, 40], [0, 1, 3], [0, 2, 7]
        )
        for M, delta, d_prev, d_new in grid:
            if d_new < d_prev:
                continue
            for _ in range(2):  # the second call is answered from the cache
                assert select_family(M, delta, d_prev, d_new) == uncached(
                    M, delta, d_prev, d_new
                )

    @pytest.mark.parametrize(
        "args", [(0, 5, 0, 0), (10, -1, 0, 0), (100, 5, 3, 2)]
    )
    def test_invalid_parameters_raise_on_every_call(self, args):
        for _ in range(3):
            with pytest.raises(InvalidParameterError):
                select_family(*args)
