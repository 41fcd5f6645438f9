import hashlib
import random

import numpy as np
import pytest

from projtoric import gf
from projtoric.gf import (
    GF,
    FieldError,
    _digits,
    _poly_mulmod,
    _undigits,
    as_field,
    field_size,
    prime_power,
)

from reference import add, mul, neg, power


def test_prime_power_decomposition():
    assert prime_power(2) == (2, 1)
    assert prime_power(49) == (7, 2)
    assert prime_power(64) == (2, 6)
    for bad in (1, 6, 12, 100):
        with pytest.raises(FieldError):
            prime_power(bad)


def test_prime_power_checks_the_type_before_its_memo(monkeypatch):
    # 4.0 hashes as 4 and True as 1, so a memo asked before the checks
    # would answer them with a cached factorisation or a TypeError
    assert prime_power(4) == (2, 2) and prime_power(2) == (2, 1)
    for bad in (4.0, 2.0, True, [4], {4: 1}):
        with pytest.raises(FieldError, match="must be an integer"):
            prime_power(bad)
    # a repeated q is factored once
    monkeypatch.setattr(gf, "_factorize", lambda n: pytest.fail(f"{n} factored again"))
    assert prime_power(4) == (2, 2)
    assert field_size(4) == 4


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


def units(F):
    """The units g^0, ..., g^(q-2) of F, from its exp table."""
    return F.exp_table[:F.q - 1].tolist()


def test_units_frozen():
    assert units(GF(2)) == [1]
    assert sorted(units(GF(3))) == [1, 2]
    F4 = GF(4)
    units4 = units(F4)
    assert sorted(units4) == [1, 2, 3]
    for u in units4:
        assert mul(F4, mul(F4, u, u), u) == 1  # cubes of units are 1


def test_arithmetic_frozen_values():
    F7 = GF(7)
    assert mul(F7, 3, 5) == 1
    F4 = GF(4)
    assert mul(F4, 2, 2) == 3
    assert power(F4, 2, -1) == 3
    assert add(F4, 2, 2) == 0  # characteristic 2


def test_pow_conventions():
    F5 = GF(5)
    assert power(F5, 0, 0) == 1
    assert power(F5, 0, 3) == 0
    assert power(F5, 2, -1) == 3
    with pytest.raises(FieldError):
        power(F5, 0, -1)


def test_inverse_and_negation():
    for q in (2, 3, 4, 5, 7, 8, 9, 16):
        F = GF(q)
        for a in range(1, q):
            assert mul(F, a, F.inv(a)) == 1
        for a in range(q):
            assert add(F, a, neg(F, a)) == 0
        with pytest.raises(FieldError):
            F.inv(0)


def test_frobenius_fixes_every_element():
    for q in (2, 3, 4, 8, 9, 16):
        F = GF(q)
        for a in range(q):
            assert power(F, a, q) == a or a == 0
            acc = 1
            for _ in range(q):
                acc = mul(F, acc, a)
            assert acc == (a if a else 0)


def test_field_axioms_exhaustive_small():
    for q in (2, 3, 4, 5, 8, 9):
        F = GF(q)
        for a in range(q):
            for b in range(q):
                assert add(F, a, b) == add(F, b, a)
                assert mul(F, a, b) == mul(F, b, a)
                for c in range(q):
                    assert mul(F, a, add(F, b, c)) == add(F, mul(F, a, b), mul(F, a, c))
                    assert add(F, a, add(F, b, c)) == add(F, add(F, a, b), c)
                    assert mul(F, a, mul(F, b, c)) == mul(F, mul(F, a, b), c)


def test_generator_has_full_order():
    for q in (4, 7, 9, 16, 25):
        F = GF(q)
        g = F.generator
        seen = set()
        x = 1
        for _ in range(q - 1):
            seen.add(x)
            x = mul(F, x, g)
        assert len(seen) == q - 1
        assert x == 1


def test_units_are_generator_powers_in_order():
    F = GF(9)
    powers = units(F)
    assert powers[0] == 1
    for a, b in zip(powers, powers[1:]):
        assert mul(F, a, F.generator) == b


def test_out_of_range_codes_rejected():
    F = GF(4)
    with pytest.raises(FieldError):
        add(F, 4, 0)
    with pytest.raises(FieldError):
        mul(F, -1, 2)


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
    sums, prods = F.vadd(a, b), F.vmul(a, b)
    for arr in (sums, prods):
        assert arr.dtype == np.uint16
    for x, y, s, m in zip(a.tolist(), b.tolist(), sums.tolist(), prods.tolist()):
        assert (s, m) == (add(F, x, y), mul(F, x, y)), (F, x, y)


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
        b += [neg(F, x) for x in a[:200]] + a[:200]
        assert_array_ops_match(F, np.array(a), np.array(b))


def test_array_ops_broadcast_and_scalar_arguments():
    F = GF(9)
    col = np.arange(9)[:, None]
    table = F.vmul(col, np.arange(9)[None, :])
    assert table.shape == (9, 9)
    assert F.vmul(3, np.arange(9)).tolist() == [mul(F, 3, x) for x in range(9)]
    assert int(F.vadd(4, 5)) == add(F, 4, 5)


def scalar_powers(F, g):
    """g^0 .. g^(q-2) by one scalar _poly_mulmod product per power."""
    p, k, q = F.p, F.k, F.q
    if k == 1:
        mul = lambda a, b: (a * b) % p
    else:
        def mul(a, b):
            return _undigits(
                _poly_mulmod(_digits(a, p, k), _digits(b, p, k), F.modulus, p, k), p
            )
    powers, acc = [], 1
    for _ in range(q - 1):
        powers.append(acc)
        acc = mul(acc, g)
    return powers


def prime_powers(top):
    return [q for q in range(2, top + 1) if len(_prime_factors(q)) == 1]


def _prime_factors(q):
    return {d for d in range(2, q + 1) if q % d == 0 and all(d % e for e in range(2, d))}


def test_tables_match_scalar_construction():
    for q in prime_powers(1024):
        F = GF(q)
        exp = scalar_powers(F, F.generator)
        # the generator is the first element whose powers reach every unit
        assert sorted(exp) == list(range(1, q))
        assert all(len(set(scalar_powers(F, g))) < q - 1 for g in range(1, F.generator))
        log = [0] * q
        for i, a in enumerate(exp):
            log[a] = i
        S = 2 * q
        assert F.log_table.dtype == np.int32 and F.log_table.tolist() == [
            log[a] if a else S for a in range(q)
        ]
        assert F.exp_table.dtype == np.uint16
        assert F.exp_table.tolist() == exp * 2 + [0] * (2 * q + 3)
        # zech_table[d + S] = log(1 + g^d), S when that sum is 0
        zech = [d for d in range(-S, -(q - 2))]
        for d in range(-(q - 2), q - 1):
            one_plus = add(F, 1, exp[d % (q - 1)])
            zech.append(log[one_plus] if one_plus else S)
        zech += [0] * (2 * q + 1 - (q - 1))
        assert F.zech_table.dtype == np.int32 and F.zech_table.tolist() == zech, q


def table_digest(F):
    # the pins also hashed the exp and log lists the field once kept
    # beside its tables: exp_table[:q-1], and log_table with 0 at 0
    exp, log = F.exp_table[:F.q - 1], np.where(np.arange(F.q) == 0, 0, F.log_table)
    h = hashlib.sha256()
    for table in (exp, log, F.log_table, F.exp_table, F.zech_table):
        h.update(np.asarray(table, dtype=np.int64).tobytes())
    return h.hexdigest()


def test_large_tables_pinned(gf65536):
    # digests of the tables the scalar construction built
    assert table_digest(GF(4096)) == (
        "6bf24a0c64a3173a6ad183654e7ecd8c53ddb41fe0f726d2e19f7c384ecc4304"
    )
    assert table_digest(gf65536) == (
        "6ef7046ed70156411dbb42741fc0e85c208f8e39b45f01524411d7e87a4d06f5"
    )


def test_exp_table_is_built_in_blocks(monkeypatch):
    # only g^1 .. g^64 (b = max(sqrt(q - 1), 64)), the k = 12 columns
    # of the block step and the generator search take a scalar product,
    # where a unit-by-unit table takes one for each of the 4095 units
    calls, poly_mulmod = [0], gf._poly_mulmod

    def counted(*args):
        calls[0] += 1
        return poly_mulmod(*args)

    monkeypatch.setattr(gf, "_poly_mulmod", counted)
    F = GF(4096)
    assert table_digest(F) == "6bf24a0c64a3173a6ad183654e7ecd8c53ddb41fe0f726d2e19f7c384ecc4304"
    assert calls[0] < 300


def vaddmatmul_reference(F, c, a, b):
    out = np.broadcast_to(np.asarray(c, dtype=np.uint16), (a.shape[0], b.shape[1]))
    for j in range(a.shape[1]):
        out = F.vadd(out, F.vmul(a[:, j, None], b[None, j]))
    return out


def test_vaddmatmul_matches_vadd_vmul(gf65536):
    rng = np.random.default_rng(4)
    for F in [GF(q) for q in prime_powers(32)] + [GF(257), GF(4096), gf65536]:
        for m, t, w in ((1, 1, 1), (9, 32, 13), (30, 3, 7), (4, 64, 2)):
            a, b, c = (rng.integers(0, F.q, shape) for shape in ((m, t), (t, w), (m, w)))
            got = F.vaddmatmul(c, a, b)
            assert got.dtype == np.uint16
            assert np.array_equal(got, vaddmatmul_reference(F, c, a, b)), (F, m, t, w)
        assert np.array_equal(F.vaddmatmul(0, a, b), vaddmatmul_reference(F, 0, a, b))


def test_vaddmatmul_exact_at_largest_prime():
    # every sum takes its largest value: (p-1) + t (p-1)^2 = t - 1 mod p
    F, p = GF(65521), 65521
    for t in (32, 64):
        a, b = np.full((3, t), p - 1), np.full((t, 4), p - 1)
        got = F.vaddmatmul(np.full((3, 4), p - 1), a, b)
        assert (got == t - 1).all()
        assert np.array_equal(got, vaddmatmul_reference(F, p - 1, a, b))
    # the largest p with k = 2: all digits p - 1 over many terms
    E = GF(251 ** 2)
    a, b = np.full((2, 256), E.q - 1), np.full((256, 3), E.q - 1)
    assert np.array_equal(E.vaddmatmul(E.q - 1, a, b), vaddmatmul_reference(E, E.q - 1, a, b))
    # float32 is exact while the sums stay below 2^24: 255 (p-1)^2 + p
    # is below it at p = 257, 256 (p-1)^2 + p past it
    G = GF(257)
    for t in (255, 256):
        a, b = np.full((3, t), 256), np.full((t, 4), 256)
        assert (G.vaddmatmul(np.full((3, 4), 256), a, b) == t - 1).all()
    # above about 2^21 terms the sums could pass 2^53
    wide = np.broadcast_to(np.uint16(0), (1, 1 << 22))
    with pytest.raises(FieldError, match="not exact"):
        F.vaddmatmul(0, wide, wide.T)


def scalar_vaddmatmul(F, c, a, b):
    """c + a @ b by scalar add and mul, one term at a time."""
    out = np.broadcast_to(c, (a.shape[0], b.shape[1])).tolist()
    for i, row in enumerate(a.tolist()):
        for j, col in enumerate(b.T.tolist()):
            for x, y in zip(row, col):
                out[i][j] = add(F, out[i][j], mul(F, x, y))
    return out


@pytest.mark.parametrize("q,t", [(2, 17), (3, 17), (7, 30), (257, 255), (257, 256), (65521, 3)])
@pytest.mark.parametrize("cap", [gf.CAP, 97])
def test_vaddmatmul_over_a_prime_field_takes_no_shift(q, t, cap, monkeypatch):
    # prime q multiplies the codes themselves; (257, 255) is the last float32
    # case, (257, 256) and 65521 run in float64, and the largest codes give
    # the largest sums
    monkeypatch.setattr(gf, "CAP", cap)
    F, rng = GF(q), np.random.default_rng(q + t)
    float64 = t * (q - 1) ** 2 + q >= 1 << 24
    assert float64 == ((q, t) in ((257, 256), (65521, 3)))
    for m, w in ((3, 40), (40, 3), (1, 2)):
        for a, b in ((rng.integers(0, q, (m, t)), rng.integers(0, q, (t, w))),
                     (np.full((m, t), q - 1), np.full((t, w), q - 1))):
            for c in (0, rng.integers(0, q, w), np.full((m, w), q - 1)):
                got = F.vaddmatmul(c, a, b)
                assert got.tolist() == scalar_vaddmatmul(F, c, a, b), (m, w)


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 256])
@pytest.mark.parametrize("cap", [gf.CAP, 97])
def test_vaddmatmul_expands_either_operand(q, cap, monkeypatch):
    # m <= w expands a, m > w expands b; a cap of 97 float entries
    # splits every product into chunks of terms, rows and columns
    monkeypatch.setattr(gf, "CAP", cap)
    F, rng = GF(q), np.random.default_rng(q)
    for m, t, w in ((3, 17, 40), (40, 17, 3), (21, 9, 21), (1, 70, 2), (6, 0, 5)):
        a, b = rng.integers(0, q, (m, t)), rng.integers(0, q, (t, w))
        for c in (0, rng.integers(0, q, w), rng.integers(0, q, (m, w))):
            got = F.vaddmatmul(c, a, b)
            assert got.tolist() == scalar_vaddmatmul(F, c, a, b), (m, t, w)
