import random

import numpy as np
import pytest

from projtoric.gf import GF, FieldError, as_field, field_size, prime_power


def test_prime_power_decomposition():
    assert prime_power(2) == (2, 1)
    assert prime_power(49) == (7, 2)
    assert prime_power(64) == (2, 6)
    for bad in (1, 6, 12, 100):
        with pytest.raises(FieldError):
            prime_power(bad)


def test_size_cap():
    with pytest.raises(FieldError):
        GF(2**17)


def test_field_size_validates_like_gf(monkeypatch):
    assert field_size(GF(9)) == 9
    monkeypatch.setattr(GF, "_build_tables", lambda self: pytest.fail("tables built"))
    assert field_size(65536) == 65536
    for bad in (1, 6, 2**17, 2.0, "4"):
        with pytest.raises(FieldError):
            field_size(bad)


def test_canonical_moduli():
    # first irreducible monic polynomial, ascending coefficients
    assert GF(4).modulus == [1, 1, 1]  # x^2 + x + 1
    assert GF(8).modulus == [1, 1, 0, 1]  # x^3 + x + 1
    assert GF(9).modulus == [1, 0, 1]  # x^2 + 1
    assert GF(3).modulus is None


def test_units_frozen():
    assert GF(2).units == [1]
    assert sorted(GF(3).units) == [1, 2]
    F4 = GF(4)
    units = F4.units
    assert sorted(units) == [1, 2, 3]
    for u in units:
        assert F4.mul(F4.mul(u, u), u) == 1  # cubes of units are 1


def test_arithmetic_frozen_values():
    F7 = GF(7)
    assert F7.mul(3, 5) == 1
    F4 = GF(4)
    assert F4.mul(2, 2) == 3
    assert F4.pow(2, -1) == 3
    assert F4.add(2, 2) == 0  # characteristic 2


def test_pow_conventions():
    F5 = GF(5)
    assert F5.pow(0, 0) == 1
    assert F5.pow(0, 3) == 0
    assert F5.pow(2, -1) == 3
    with pytest.raises(FieldError):
        F5.pow(0, -1)


def test_inverse_and_negation():
    for q in (2, 3, 4, 5, 7, 8, 9, 16):
        F = GF(q)
        for a in range(1, q):
            assert F.mul(a, F.inv(a)) == 1
        for a in range(q):
            assert F.add(a, F.neg(a)) == 0
        with pytest.raises(FieldError):
            F.inv(0)


def test_frobenius_fixes_every_element():
    for q in (2, 3, 4, 8, 9, 16):
        F = GF(q)
        for a in range(q):
            assert F.pow(a, q) == a or a == 0
            acc = 1
            for _ in range(q):
                acc = F.mul(acc, a)
            assert acc == (a if a else 0)


def test_field_axioms_exhaustive_small():
    for q in (2, 3, 4, 5, 8, 9):
        F = GF(q)
        for a in range(q):
            for b in range(q):
                assert F.add(a, b) == F.add(b, a)
                assert F.mul(a, b) == F.mul(b, a)
                for c in range(q):
                    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
                    assert F.add(a, F.add(b, c)) == F.add(F.add(a, b), c)
                    assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)


def test_generator_has_full_order():
    for q in (4, 7, 9, 16, 25):
        F = GF(q)
        g = F.generator
        seen = set()
        x = 1
        for _ in range(q - 1):
            seen.add(x)
            x = F.mul(x, g)
        assert len(seen) == q - 1
        assert x == 1


def test_units_are_generator_powers_in_order():
    F = GF(9)
    units = F.units
    assert units[0] == 1
    for a, b in zip(units, units[1:]):
        assert F.mul(a, F.generator) == b


def test_out_of_range_codes_rejected():
    F = GF(4)
    with pytest.raises(FieldError):
        F.add(4, 0)
    with pytest.raises(FieldError):
        F.mul(-1, 2)


def test_as_field_roundtrip():
    F = as_field(8)
    assert isinstance(F, GF)
    assert F.q == 8
    assert F.p == 2
    assert as_field(F) is F
    with pytest.raises(FieldError):
        as_field(6)


# every prime power up to 256 that is not prime, and primes of every size
ARRAY_EXHAUSTIVE_QS = (
    2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 31, 32, 49, 64, 81, 121, 125,
    127, 128, 169, 243, 251, 256,
)


def assert_array_ops_match(F, a, b):
    sums, prods, negs = F.vadd(a, b), F.vmul(a, b), F.vneg(a)
    for arr in (sums, prods, negs):
        assert arr.dtype == np.uint16
    for x, y, s, m, n in zip(
        a.tolist(), b.tolist(), sums.tolist(), prods.tolist(), negs.tolist()
    ):
        assert (s, m, n) == (F.add(x, y), F.mul(x, y), F.neg(x)), (F, x, y)


def test_array_ops_match_scalar_exhaustively():
    for q in ARRAY_EXHAUSTIVE_QS:
        a, b = np.divmod(np.arange(q * q), q)
        assert_array_ops_match(GF(q), a, b)


def test_array_ops_match_scalar_sampled(gf65536):
    for F in (GF(257), GF(4096), gf65536):
        rng = random.Random(F.q)
        a = [rng.randrange(F.q) for _ in range(3000)] + [0, 0, 1, F.q - 1]
        b = [rng.randrange(F.q) for _ in range(3000)] + [0, 5, 0, F.q - 1]
        # x + (-x) and x + x exercise the zero and doubling rows of the
        # Zech table
        a += a[:200] * 2
        b += [F.neg(x) for x in a[:200]] + a[:200]
        assert_array_ops_match(F, np.array(a), np.array(b))


def test_array_ops_broadcast_and_scalar_arguments():
    F = GF(9)
    col = np.arange(9)[:, None]
    table = F.vmul(col, np.arange(9)[None, :])
    assert table.shape == (9, 9)
    assert F.vmul(3, np.arange(9)).tolist() == [F.mul(3, x) for x in range(9)]
    assert int(F.vadd(4, 5)) == F.add(4, 5)
