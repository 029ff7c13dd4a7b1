import pytest
from hypothesis import given, strategies as st

from shiftperm.bitstate import BitVector, eval_gamma

from checks import check_shift_invariance


def vec(*bits):
    return BitVector.from_bits(bits)


class TestShift:
    def test_examples(self):
        assert vec(1, 0, 0).shift(1) == vec(0, 0, 1)
        assert vec(0, 0, 1, 0, 0, 0).shift(2) == vec(1, 0, 0, 0, 0, 0)

    def test_full_turn_is_identity(self):
        for n in range(1, 9):
            for v in range(1 << n):
                assert BitVector(n, v).shift(n) == BitVector(n, v)

    @given(
        st.integers(1, 24).flatmap(
            lambda n: st.tuples(
                st.just(n), st.integers(0, (1 << n) - 1), st.integers(-50, 50), st.integers(-50, 50)
            )
        )
    )
    def test_shift_composes(self, case):
        n, v, a, b = case
        x = BitVector(n, v)
        assert x.shift(a).shift(b) == x.shift(a + b)
        assert x.shift(0) == x


class TestPointwiseAndAdd:
    def test_examples(self):
        assert vec(1, 1, 0) * vec(1, 0, 0) == vec(1, 0, 0)
        assert vec(1, 0, 1) + vec(1, 1, 0) == vec(0, 1, 1)

    def test_algebra(self):
        for n in (1, 3, 6):
            ones = BitVector.ones(n)
            zeros = BitVector.zeros(n)
            for v in range(1 << n):
                x = BitVector(n, v)
                assert x * ones == x
                assert x * x == x
                assert x + x == zeros
                assert x + zeros == x

    def test_commutative(self):
        for v in range(8):
            for w in range(8):
                x, y = BitVector(3, v), BitVector(3, w)
                assert x * y == y * x
                assert x + y == y + x

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            vec(1, 0) + vec(1, 0, 0)
        with pytest.raises(ValueError):
            vec(1, 0) * vec(1, 0, 0)


class TestEvalGamma:
    def test_gamma0_is_identity(self):
        for v in range(32):
            x = BitVector(5, v)
            assert eval_gamma(0, x) == x

    def test_kills_constants(self):
        for n in range(1, 10):
            for k in range(1, n + 2):
                assert eval_gamma(k, BitVector.zeros(n)) == BitVector.zeros(n)
                assert eval_gamma(k, BitVector.ones(n)) == BitVector.zeros(n)

    def test_hand_example_n6(self):
        assert eval_gamma(1, vec(0, 0, 1, 0, 0, 0)) == vec(1, 0, 0, 0, 0, 0)

    def test_chi_coordinate_rule(self):
        # x_i + x_{i+2}(1 + x_{i+1}) matches gamma(0) + gamma(2)
        for n in (3, 5, 8):
            for v in range(1 << n):
                x = BitVector(n, v)
                expected = BitVector.from_bits(
                    [x[i] ^ (x[i + 2] & (1 ^ x[i + 1])) for i in range(n)]
                )
                assert x + eval_gamma(1, x) == expected

    def test_vanishing_on_odd_dimensions(self):
        for n in (1, 3, 5, 7, 9):
            for k in range((n + 1) // 2, n + 3):
                if 2 * k > n:
                    for v in range(1 << n):
                        assert eval_gamma(k, BitVector(n, v)).bits == 0, (n, k, v)

    def test_periodicity_on_even_dimensions(self):
        # gamma with subscript 2k equals the one with subscript 2k - n once k >= n
        for n in (2, 4, 6, 8):
            for k in range(n, 2 * n + 1):
                for v in range(1 << n):
                    x = BitVector(n, v)
                    assert eval_gamma(k, x) == eval_gamma(k - n // 2, x), (n, k, v)

    def test_reduced_product_form_even(self):
        # for k >= n/2 the product collapses to all odd shifts below n
        for n in (2, 4, 6, 8):
            for k in range(n // 2, 2 * n + 1):
                for v in range(1 << n):
                    x = BitVector(n, v)
                    acc = x.shift((2 * k) % n)
                    for j in range(1, n, 2):
                        acc = acc * x.shift(j).complement()
                    assert eval_gamma(k, x) == acc, (n, k, v)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            eval_gamma(-1, vec(1, 0))


def test_shift_invariance_exhaustive():
    assert check_shift_invariance(max_n=10) > 0


class TestBitVectorType:
    def test_validation(self):
        with pytest.raises(ValueError):
            BitVector(0, 0)
        with pytest.raises(ValueError):
            BitVector(3, 8)
        with pytest.raises(ValueError):
            BitVector.from_bits([0, 2])

    def test_roundtrip_and_str(self):
        x = vec(1, 0, 1, 1)
        assert x.to_bits() == (1, 0, 1, 1)
        assert str(x) == "1011"
        assert x[0] == 1 and x[1] == 0 and x[4] == 1  # cyclic indexing
        assert x.weight == 3

    def test_complement(self):
        assert vec(1, 0, 0).complement() == vec(0, 1, 1)
