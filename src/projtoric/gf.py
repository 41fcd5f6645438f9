"""Finite field arithmetic for GF(p^k) with table-backed multiplication.

Elements are integer codes in range(q): the code of a polynomial
c_0 + c_1 x + ... + c_{k-1} x^{k-1} over GF(p) is sum(c_i * p**i).
For prime q this collapses to ordinary arithmetic mod p. Extension
fields pick a canonical irreducible modulus so codes mean the same
thing across runs, then precompute exp/log tables for a fixed
generator of the unit group. The same tables, with a Zech-logarithm
table for addition, back the array operations vadd and vmul;
vaddmatmul works on base-p digits instead.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, reduce
from itertools import accumulate
from math import isqrt

import numpy as np


CAP = 1 << 17  # float entries of one temporary of a product chunk


class FieldError(ValueError):
    """Raised for invalid field sizes or arithmetic (e.g. inverse of 0)."""


def _factorize(n):
    fac = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            fac[d] = fac.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        fac[n] = fac.get(n, 0) + 1
    return fac


def prime_power(q):
    """Decompose q as p**k with p prime; raises FieldError otherwise.
    The type and range are checked on every call, before the memo that
    keeps each factorisation: 4.0 and True hash as 4 and 1 do."""
    if not isinstance(q, int) or q < 2:
        raise FieldError(f"field size must be an integer >= 2, got {q!r}")
    return _prime_power(int(q))


@lru_cache(maxsize=1024)
def _prime_power(q):
    fac = _factorize(q)
    if len(fac) != 1:
        raise FieldError(f"{q} is not a prime power")
    (p, k), = fac.items()
    return p, k


def _digits(code, p, k):
    out = []
    for _ in range(k):
        out.append(code % p)
        code //= p
    return out


def _undigits(ds, p):
    code = 0
    for c in reversed(ds):
        code = code * p + c
    return code


def _poly_mulmod(a, b, mod, p, k):
    # a, b, mod as coefficient lists (ascending), deg(mod) == k, monic
    prod = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                prod[i + j] = (prod[i + j] + ca * cb) % p
    for i in range(len(prod) - 1, k - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(k):
                prod[i - k + j] = (prod[i - k + j] - c * mod[j]) % p
    out = prod[:k]
    out += [0] * (k - len(out))
    return out


def _poly_divisible(num, den, p):
    # trial division of polynomials over GF(p), den monic
    num = list(num)
    dn, dd = len(num) - 1, len(den) - 1
    inv_lead = pow(den[-1], p - 2, p) if p > 2 else den[-1]
    for i in range(dn, dd - 1, -1):
        c = (num[i] * inv_lead) % p
        if c:
            for j in range(dd + 1):
                num[i - dd + j] = (num[i - dd + j] - c * den[j]) % p
    return all(c == 0 for c in num[:dd])


def _monic_polys(p, deg):
    for code in range(p**deg, 2 * p**deg):
        ds = _digits(code, p, deg + 1)
        if ds[deg] == 1:
            yield ds


def _is_irreducible(poly, p, k):
    if poly[0] == 0:
        return False
    for deg in range(1, k // 2 + 1):
        for den in _monic_polys(p, deg):
            if _poly_divisible(poly, den, p):
                return False
    return True


def canonical_modulus(p, k):
    """First irreducible monic degree-k polynomial by integer encoding.

    Scanned over codes p**k .. 2*p**k - 1 (the monic window), so the
    result is deterministic. Returned as the ascending coefficient list.
    """
    for poly in _monic_polys(p, k):
        if _is_irreducible(poly, p, k):
            return poly
    raise FieldError(f"no irreducible polynomial found for p={p}, k={k}")


class GF:
    """The finite field with q = p^k elements, q <= 2^16.

    Arithmetic runs off numpy exp/log tables for the canonical
    generator g; exp_table[:q-1] lists the units g^0, g^1, ..., g^{q-2}.
    inv takes and returns one int code; vadd and vmul act elementwise
    on numpy code arrays, with broadcasting, and return uint16 arrays.
    With S = 2q as the log of 0:
    log_table[a] = i for a = g^i; exp_table[i] = g^(i mod q-1) below
    2(q-1) and 0 up to 4q, so x*y = exp_table[log x + log y]; and
    zech_table[d + S] = log(1 + g^d) for |d| <= q-2 (S when that is 0),
    d for d < -(q-2), 0 for d > q-2, so that x + y = x*(1 + y/x) =
    exp_table[log x + zech_table[log y - log x + S]], zeros included
    (Zech logarithms; Huber, IEEE Trans. IT 1990).
    """

    def __init__(self, q):
        self.p, self.k = prime_power(field_size(q))
        self.q = q
        self.modulus = canonical_modulus(self.p, self.k) if self.k > 1 else None
        self._build_tables()

    def _build_tables(self):
        p, k, q, mod = self.p, self.k, self.q, self.modulus
        if k == 1:
            mul = lambda a, b: a * b % p
        else:
            mul = lambda a, b: _undigits(
                _poly_mulmod(_digits(a, p, k), _digits(b, p, k), mod, p, k), p)

        def power(g, e):
            acc = 1
            while e:
                acc, g, e = mul(acc, g) if e & 1 else acc, mul(g, g), e >> 1
            return acc

        # g has order q-1 iff g^((q-1)/r) != 1 for every prime r | q-1
        primes = _factorize(q - 1)
        gen = next(g for g in range(1, q) if all(power(g, (q - 1) // r) != 1 for r in primes))
        # g^0 .. g^(b-1) one by one; past q = 65, further blocks of b
        # are the last one times g^b, a k x k matrix over F_p on digits
        b = min(q - 1, max(isqrt(q - 1), 64))
        exp = list(accumulate([gen] * (b - 1), mul, initial=1))
        if b < q - 1:
            gb = mul(exp[-1], gen)
            step = np.array([_digits(mul(p ** j, gb), p, k) for j in range(k)], np.int64).T
            digits = [np.array([_digits(a, p, k) for a in exp], np.int64).T]
            while len(digits) * b < q - 1:
                digits.append(step @ digits[-1] % p)
            exp = (p ** np.arange(k) @ np.concatenate(digits, axis=1))[:q - 1]
        self.generator = gen

        S = 2 * q
        self.log_table = np.full(q, S, dtype=np.int32)
        self.log_table[exp] = np.arange(q - 1)
        self.exp_table = np.zeros(4 * q + 1, dtype=np.uint16)
        self.exp_table[:2 * (q - 1)] = np.tile(exp, 2)  # two periods of g^i
        d = np.arange(-(q - 2), q - 1)
        a = self.exp_table[d % (q - 1)].astype(np.intp)
        # adding 1 only changes the lowest base-p digit of a code
        one_plus = a - a % p + (a % p + 1) % p
        self.zech_table = np.zeros(4 * q + 1, dtype=np.int32)
        self.zech_table[:S - (q - 2)] = np.arange(-S, -(q - 2))
        self.zech_table[S - (q - 2):S + q - 1] = self.log_table[one_plus]

    def _check(self, a):
        if not (isinstance(a, int) and 0 <= a < self.q):
            raise FieldError(f"{a!r} is not an element code of GF({self.q})")
        return a

    def inv(self, a):
        self._check(a)
        if a == 0:
            raise FieldError("0 has no multiplicative inverse")
        return int(self.exp_table[self.q - 1 - self.log_table[a]])

    def vmul(self, a, b):
        """Elementwise a*b of code arrays."""
        return self.exp_table[self.log_table[a] + self.log_table[b]]

    def vadd(self, a, b):
        """Elementwise a+b of code arrays."""
        la = self.log_table[a]
        return self.exp_table[la + self.zech_table[self.log_table[b] - la + 2 * self.q]]

    def vaddmatmul(self, c, a, b):
        """c + a @ b for code matrices a (m x t), b (t x w) and c (m x w,
        a row or a code). The operand with fewer entries, say a, goes into
        shifted digit planes, digit l of a b being the sum over j of b_j
        times digit l of x^j a (a's digits times the rows of x^s mod the
        modulus), whose product with b's digits, plus c's, is reduced mod
        p. Sums stay below t k (p-1)^2 + p: exact in float32 below 2^24,
        in float64 below 2^53. Chunks of terms, rows and columns keep each
        float temporary within CAP entries. For prime q a code is its own one
        digit, so nothing is shifted or folded."""
        p, k = self.p, self.k
        (m, t), w = a.shape, b.shape[1]
        bound = t * k * (p - 1) ** 2 + p
        if bound >= 1 << 53:
            raise FieldError(f"a product over {t} terms is not exact in float64")
        dt, it = (np.float32, np.int32) if bound < 1 << 24 else (np.float64, np.int64)
        res = np.broadcast_to(np.asarray(c, np.uint16), (m, w)).copy()
        x, y, out = (a, b, res) if m <= w else (b.T, a.T, res.T)  # x is expanded
        tc = max(1, min(t, CAP // k ** 2))
        rc = max(1, min(len(x), CAP // (k ** 2 * tc)))
        wc = max(1, CAP // (k * max(tc, rc)))
        for s in range(0, t, tc):
            for r in range(0, len(x), rc):
                planes = self._planes(x[r:r + rc, s:s + tc], dt)
                rows, terms = planes.shape[1:]
                if k == 1:  # prime q: the one digit shift is the identity
                    shifted = planes[0]
                else:
                    shifted = np.fmod(self._shifts.astype(dt) @ planes.reshape(k, -1), p)  # exact
                    shifted = shifted.reshape(k, k, rows, terms).swapaxes(1, 2)
                    shifted = shifted.reshape(k * rows, -1)
                for j in range(0, y.shape[1], wc):
                    part = out[r:r + rc, j:j + wc]
                    sums = shifted @ self._planes(y[s:s + tc, j:j + wc], dt).reshape(k * terms, -1)
                    digits = (sums.reshape(k, rows, -1) + self._planes(part, dt)).astype(it)
                    digits -= digits // p * p  # floor division by p is far faster than %
                    part[...] = digits[0] if k == 1 else reduce(
                        lambda acc, digit: acc * p + digit, digits[::-1])
        return res

    def _planes(self, codes, dt):
        """Base-p digits of a code array as floats, on a new first axis."""
        if self.k == 1:  # prime q: the codes are their own digits
            return codes.astype(dt)[None]
        return np.take(self._digit_table, codes, axis=1).astype(dt, copy=False)

    @cached_property
    def _digit_table(self):  # [l, a]: digit l of a
        p, k = self.p, self.k
        return (np.arange(self.q) // p ** np.arange(k)[:, None] % p).astype(np.float32)

    @cached_property
    def _shifts(self):  # [l, j, i]: digit l of x^(i + j) mod the modulus
        p, k = self.p, self.k
        powers = [[_poly_mulmod([1], [0] * (i + j) + [1], self.modulus, p, k) for j in range(k)]
                  for i in range(k)]
        return np.array(powers, np.float32).T.reshape(k * k, k)

    def __repr__(self):
        return f"GF({self.q})"


def field_size(field):
    """q of a GF, or an int field size validated as GF(q) validates it,
    without building any tables."""
    if isinstance(field, GF):
        return field.q
    if isinstance(field, int) and field > 1 << 16:  # before factoring it
        raise FieldError(f"field size {field} exceeds the 2^16 table limit")
    prime_power(field)
    return field


def as_field(field):
    """field itself when it is a GF, else GF(field) for a field size."""
    return field if isinstance(field, GF) else GF(field)
