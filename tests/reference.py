"""Scalar GF(q) arithmetic, one element code at a time.

The array kernels of projtoric.gf (vadd, vmul, vneg, vaddmatmul) and the
pure-Python oracles of the tests are checked against these. add and neg
work digitwise in base p; mul and power run off the field's exp/log
tables. Each refuses a code outside range(q) with FieldError, as
GF.inv does.
"""

from projtoric.gf import FieldError, _digits, _undigits


def add(F, a, b):
    F._check(a)
    F._check(b)
    p, k = F.p, F.k
    return _undigits([(x + y) % p for x, y in zip(_digits(a, p, k), _digits(b, p, k))], p)


def neg(F, a):
    F._check(a)
    return _undigits([-x % F.p for x in _digits(a, F.p, F.k)], F.p)


def sub(F, a, b):
    return add(F, a, neg(F, b))


def mul(F, a, b):
    F._check(a)
    F._check(b)
    if a == 0 or b == 0:
        return 0
    return F._exp[(F._log[a] + F._log[b]) % (F.q - 1)]


def power(F, a, e):
    """a**e for any integer e; negative e uses the inverse."""
    F._check(a)
    if a == 0:
        if e < 0:
            raise FieldError("0 cannot be raised to a negative power")
        return 1 if e == 0 else 0
    return F._exp[(F._log[a] * e) % (F.q - 1)]
