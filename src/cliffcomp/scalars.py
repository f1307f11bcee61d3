"""Exact base fields, square testing, Hilbert symbols, quadratic etale data.

Two families of base fields are supported: the rationals (an integral
value is an int, and only a non-integral one is a stdlib Fraction) and
finite fields GF(p^k) (elements are ints for k = 1, tuples of ints for
k > 1).  A Field object carries the arithmetic; the elements themselves
are plain hashable Python values so they can key sparse dictionaries.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterator

from .errors import InputTooLargeError, UnsupportedInputError

# Default bound on |numerator|, |denominator| for exact factor work.
FACTOR_BOUND = 2**63
_ONE = Fraction(1)


def _integral(r):
    """r itself if it is an int, its numerator if it is an integral
    Fraction, else r: the one normal form of a rational."""
    if type(r) is int or r.denominator != 1:
        return r
    return r.numerator


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise UnsupportedInputError(f"cannot interpret {x!r} as a rational")


class Field:
    """Common interface for exact base fields."""

    char: int

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def add(self, x, y):
        raise NotImplementedError

    def neg(self, x):
        raise NotImplementedError

    def mul(self, x, y):
        raise NotImplementedError

    def inv(self, x):
        raise NotImplementedError

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def div(self, x, y):
        return self.mul(x, self.inv(y))

    def is_zero(self, x) -> bool:
        return x == self.zero()

    def from_int(self, n: int):
        raise NotImplementedError

    def pow(self, x, n: int):
        if n < 0:
            return self.pow(self.inv(x), -n)
        acc, base = self.one(), x
        while n:
            if n & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            n >>= 1
        return acc

    def is_square(self, x) -> bool:
        raise NotImplementedError

    def sqrt(self, x):
        """A square root of x, or None."""
        raise NotImplementedError

    def _tonelli_shanks(self, x, z):
        """A square root of a nonzero square x in a finite field of odd
        order, given a non-square z: Tonelli-Shanks in the cyclic group of
        order - 1 = q 2^s elements, q odd."""
        q, s = self.order - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        one = self.one()
        c, t, r = self.pow(z, q), self.pow(x, q), self.pow(x, (q + 1) // 2)
        while t != one:
            i, t2 = 0, t
            while t2 != one:
                t2 = self.mul(t2, t2)
                i += 1
            b = self.pow(c, 1 << (s - i - 1))
            bb = self.mul(b, b)
            s, c, t, r = i, bb, self.mul(t, bb), self.mul(r, b)
        return r

    def elements(self) -> Iterator:
        raise UnsupportedInputError("field is not finite")

    def parse(self, s: str):
        raise NotImplementedError

    def fmt(self, x) -> str:
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


class RationalField(Field):
    """The rationals with exact arithmetic.

    An integral value is always an int and only a non-integral one is a
    Fraction, so integral structure constants multiply as machine
    integers, with no gcd and no object construction.
    """

    char = 0

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, x, y):
        r = x + y
        if type(r) is int or r.denominator != 1:
            return r
        return r.numerator

    def neg(self, x):
        return -x

    def mul(self, x, y):
        r = x * y
        if type(r) is int or r.denominator != 1:
            return r
        return r.numerator

    def inv(self, x):
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        return _integral(_ONE / x)

    def sub(self, x, y):
        r = x - y
        if type(r) is int or r.denominator != 1:
            return r
        return r.numerator

    def div(self, x, y):
        if y == 0:
            raise ZeroDivisionError("division by zero")
        # int / int would be a float
        return _integral(x / y if isinstance(x, Fraction) else Fraction(x) / y)

    def is_zero(self, x) -> bool:
        return x == 0

    def from_int(self, n: int):
        return int(n)

    def is_square(self, x) -> bool:
        """Exact square test on a Fraction in lowest terms.

        A reduced n/d is a square iff n >= 0 and both n and d are perfect
        squares.  The factor bound is enforced to keep the contract of the
        exact-factorization code paths uniform.
        """
        x = _as_fraction(x)
        _check_bound(x.numerator)
        _check_bound(x.denominator)
        if x < 0:
            return False
        n, d = x.numerator, x.denominator
        return math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d

    def sqrt(self, x):
        x = _as_fraction(x)
        if not self.is_square(x):
            return None
        return _integral(Fraction(math.isqrt(x.numerator), math.isqrt(x.denominator)))

    def parse(self, s: str):
        s = str(s)
        # the common integer literal: int() reads it as Fraction would, faster
        if s.isascii() and s.removeprefix("-").isdigit():
            return int(s)
        try:
            return _integral(Fraction(s))
        except ZeroDivisionError:
            raise UnsupportedInputError(f"zero denominator in {s!r}") from None

    def fmt(self, x) -> str:
        if type(x) is int:
            return str(x)
        x = _as_fraction(x)
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"

    def to_json(self) -> dict:
        return {"kind": "Q"}

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


class PrimeField(Field):
    """GF(p) with elements stored as ints in [0, p)."""

    def __init__(self, p: int):
        if p < 2 or not _is_prime(p):
            raise UnsupportedInputError(f"{p} is not prime")
        self.p = p
        self.k = 1
        self.char = p
        self.order = p

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, x, y):
        return (x + y) % self.p

    def neg(self, x):
        return (-x) % self.p

    def mul(self, x, y):
        return (x * y) % self.p

    def inv(self, x):
        if x % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(x, -1, self.p)

    def is_zero(self, x) -> bool:
        return x % self.p == 0

    def from_int(self, n: int):
        return n % self.p

    def is_square(self, x) -> bool:
        x %= self.p
        if self.p == 2 or x == 0:
            return True
        return pow(x, (self.p - 1) // 2, self.p) == 1

    def sqrt(self, x):
        """The least square root of x in [0, p), or None (Tonelli-Shanks
        with z the least non-residue)."""
        p = self.p
        x %= p
        if not self.is_square(x):
            return None
        if p == 2 or x == 0:
            return x
        z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
        r = self._tonelli_shanks(x, z)
        return min(r, p - r)

    def elements(self) -> Iterator[int]:
        return iter(range(self.p))

    def parse(self, s: str):
        return int(s) % self.p

    def fmt(self, x) -> str:
        return str(x % self.p)

    def to_json(self) -> dict:
        return {"kind": "GF", "p": self.p, "k": 1}

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


# Largest order of an extension field, as a power of 2: finding and
# certifying a modulus costs k powerings to the p-th power modulo it.  k is
# compared first, so a huge k is refused without computing p**k.
EXT_ORDER_BITS = 64


class ExtField(Field):
    """GF(p^k), k > 1; elements are k-tuples of ints (coefficients of 1, t, ..., t^(k-1))."""

    def __init__(self, p: int, k: int, modulus: tuple[int, ...] | None = None):
        if not _is_prime(p):
            raise UnsupportedInputError(f"{p} is not prime")
        if k < 2:
            raise UnsupportedInputError("use PrimeField for k = 1")
        if k > EXT_ORDER_BITS or p**k > 2**EXT_ORDER_BITS:
            raise InputTooLargeError(f"GF({p}^{k}) exceeds the field order bound 2^{EXT_ORDER_BITS}")
        self.p = p
        self.k = k
        self.char = p
        self.order = p**k
        if modulus is None:
            modulus = _find_irreducible(p, k)
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise UnsupportedInputError("modulus must be monic of degree k")
        if not _poly_is_irreducible(modulus, p):
            raise UnsupportedInputError("modulus is reducible")
        self.modulus = modulus

    def zero(self):
        return (0,) * self.k

    def one(self):
        return (1,) + (0,) * (self.k - 1)

    def gen(self):
        return (0, 1) + (0,) * (self.k - 2)

    def add(self, x, y):
        p = self.p
        return tuple((a + b) % p for a, b in zip(x, y))

    def neg(self, x):
        p = self.p
        return tuple((-a) % p for a in x)

    def mul(self, x, y):
        _, r = _poly_divmod(_poly_mul(x, y, self.p), self.modulus, self.p)
        return r + (0,) * (self.k - len(r))

    def inv(self, x):
        """x^(order - 2): the multiplicative group has order - 1 elements."""
        if self.is_zero(x):
            raise ZeroDivisionError("inverse of zero")
        return self.pow(x, self.order - 2)

    def is_zero(self, x) -> bool:
        return all(c % self.p == 0 for c in x)

    def from_int(self, n: int):
        return (n % self.p,) + (0,) * (self.k - 1)

    def is_square(self, x) -> bool:
        if self.p == 2 or self.is_zero(x):
            return True
        return self.pow(x, (self.order - 1) // 2) == self.one()

    def sqrt(self, x):
        """The square root of x that comes first in element order, or None.

        For p = 2 squaring is a bijection and the root is x^(2^(k-1)).
        Otherwise Tonelli-Shanks in the cyclic group of order p^k - 1,
        with z the first non-square past the prime field in element order
        (for even k every element of GF(p) is a square, and any non-square
        serves, since the roots are +-r whatever z is).  The search for z
        starts at t, the first element past GF(p); about half the elements
        from there on are non-squares.
        """
        if self.p == 2:
            return self.pow(x, self.order // 2)
        if not self.is_square(x):
            return None
        if self.is_zero(x):
            return self.zero()
        # past GF(p) the elements run through the nonzero tails in order,
        # the constant coefficient varying fastest
        tails = itertools.islice(_coeff_tuples(self.p, self.k - 1), 1, None)
        z = next(z for tail in tails for z in ((c,) + tail for c in range(self.p))
                 if not self.is_square(z))
        r = self._tonelli_shanks(x, z)
        # element order varies the first coefficient fastest
        return min(r, self.neg(r), key=lambda e: e[::-1])

    def elements(self) -> Iterator[tuple]:
        return _coeff_tuples(self.p, self.k)

    def parse(self, s: str):
        parts = [int(c) for c in str(s).split(",")]
        if len(parts) == 1:
            return self.from_int(parts[0])
        if len(parts) != self.k:
            raise UnsupportedInputError(f"need {self.k} coefficients")
        return tuple(c % self.p for c in parts)

    def fmt(self, x) -> str:
        return ",".join(str(c) for c in x)

    def to_json(self) -> dict:
        return {"kind": "GF", "p": self.p, "k": self.k, "modulus": list(self.modulus)}

    def __repr__(self):
        return f"GF({self.p}^{self.k})"

    def __eq__(self, other):
        return (
            isinstance(other, ExtField)
            and other.p == self.p
            and other.k == self.k
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("GF", self.p, self.k, self.modulus))


QQ = RationalField()


def field_from_json(d: dict) -> Field:
    if d.get("kind") == "Q":
        return QQ
    if d.get("kind") == "GF":
        p, k = int(d["p"]), int(d.get("k", 1))
        if k == 1:
            return PrimeField(p)
        mod = tuple(d["modulus"]) if "modulus" in d else None
        return ExtField(p, k, mod)
    raise UnsupportedInputError(f"unknown field descriptor {d!r}")


# ---------------------------------------------------------------------------
# integer utilities

# Trial division stops below this; a larger cofactor is tested by
# Miller-Rabin and split by Pollard rho.
TRIAL_LIMIT = 1000


def _primes_below(n: int) -> list:
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return [p for p in range(n) if sieve[p]]


_SMALL_PRIMES = _primes_below(TRIAL_LIMIT)
# Deterministic Miller-Rabin bases: exact for every n below 3.3e24 > 2^64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < TRIAL_LIMIT * TRIAL_LIMIT:
        return True
    if n >= 3 * 10**24:
        raise InputTooLargeError(f"{n} exceeds the deterministic primality bound")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of an odd composite n with no prime factor below
    TRIAL_LIMIT: Pollard's rho with Floyd cycle finding and gcds taken once
    per batch of steps."""
    for c in range(1, n):
        def f(t):
            return (t * t + c) % n

        x = y = 2
        g = 1
        while g == 1:
            xs, ys, q = x, y, 1
            for _ in range(64):
                x, y = f(x), f(f(y))
                q = q * abs(x - y) % n
            g = math.gcd(q, n)
        if g == n:
            # the batch passed a factor: retrace it one step at a time
            x, y, g = xs, ys, 1
            while g == 1:
                x, y = f(x), f(f(y))
                g = math.gcd(abs(x - y), n)
        if g != n:
            return g
    raise ArithmeticError(f"Pollard rho found no factor of {n}")


def _check_bound(n: int, bound: int = FACTOR_BOUND) -> None:
    if abs(n) >= bound:
        raise InputTooLargeError(f"|{n}| exceeds the exact-arithmetic bound {bound}")


def trial_factor(n: int, bound: int = FACTOR_BOUND) -> dict[int, int]:
    """Factor |n|: trial division by the primes below TRIAL_LIMIT, then
    Miller-Rabin and Pollard rho on the cofactor.  Raises
    InputTooLargeError beyond bound."""
    _check_bound(n, bound)
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
    if n < TRIAL_LIMIT * TRIAL_LIMIT:
        # 1, or a prime above every factor found so far
        if n > 1:
            out[n] = 1
        return out
    # n has no prime factor below TRIAL_LIMIT, nor do its factors
    stack = [n]
    while stack:
        m = stack.pop()
        if m < TRIAL_LIMIT * TRIAL_LIMIT or _is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _pollard_rho(m)
            stack += [d, m // d]
    return dict(sorted(out.items()))


def squarefree_part(x) -> int:
    """The squarefree integer representing the square class of a nonzero rational."""
    x = _as_fraction(x)
    if x == 0:
        raise ValueError("zero has no square class")
    n = x.numerator * x.denominator
    sign = -1 if n < 0 else 1
    out = sign
    for p, e in trial_factor(n).items():
        if e % 2:
            out *= p
    return out


# ---------------------------------------------------------------------------
# polynomial helpers for GF(p^k)

def _coeff_tuples(p: int, k: int) -> Iterator[tuple]:
    """Every k-tuple over range(p), the first coefficient varying fastest.

    Counted lazily: itertools.product would first hold range(p) as a tuple,
    which for a large p exhausts memory before the first tuple comes out.
    """
    t = [0] * k
    while True:
        yield tuple(t)
        i = 0
        while i < k and t[i] == p - 1:
            t[i] = 0
            i += 1
        if i == k:
            return
        t[i] += 1


def _poly_trim(a):
    a = list(a)
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return tuple(a)


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return tuple(out)


def _poly_divmod(a, b, p):
    a = list(_poly_trim(a))
    b = _poly_trim(b)
    db = len(b) - 1
    if b == (0,):
        raise ZeroDivisionError
    inv_lead = pow(b[-1], -1, p)
    q = [0] * max(1, len(a) - db)
    while len(_poly_trim(a)) - 1 >= db and any(a):
        a = list(_poly_trim(a))
        da = len(a) - 1
        if da < db:
            break
        c = (a[-1] * inv_lead) % p
        q[da - db] = c
        for i in range(db + 1):
            a[da - db + i] = (a[da - db + i] - c * b[i]) % p
    return _poly_trim(tuple(q)), _poly_trim(tuple(a))


def _poly_gcd(a, b, p):
    """A greatest common divisor over GF(p), not normalized."""
    a, b = _poly_trim(a), _poly_trim(b)
    while b != (0,):
        a, b = b, _poly_divmod(a, b, p)[1]
    return a


def _poly_pow_mod(a, e: int, m, p):
    """a^e mod m over GF(p), by repeated squaring."""
    out = (1,)
    while e:
        if e & 1:
            out = _poly_divmod(_poly_mul(out, a, p), m, p)[1]
        e >>= 1
        if e:
            a = _poly_divmod(_poly_mul(a, a, p), m, p)[1]
    return out


def _poly_is_irreducible(m, p) -> bool:
    """Rabin's test: m of degree k is irreducible over GF(p) exactly when
    x^(p^k) = x mod m and gcd(x^(p^(k/r)) - x, m) = 1 for each prime r | k.
    It costs k powerings to the p-th power modulo m."""
    m = _poly_trim(m)
    k = len(m) - 1
    if k <= 1:
        return k == 1
    x = (0, 1)
    frob = [x]  # frob[j] = x^(p^j) mod m
    for _ in range(k):
        frob.append(_poly_pow_mod(frob[-1], p, m, p))
    if frob[k] != x:
        return False
    for r in range(2, k + 1):
        if k % r == 0 and _is_prime(r):
            f = list(frob[k // r]) + [0]
            f[1] = (f[1] - 1) % p
            if len(_poly_gcd(m, f, p)) > 1:
                return False
    return True


def _binomial_exponents(p: int, k: int):
    """The exponents (p - 1) / r, one per prime r | k, that decide which
    binomials x^k - a are irreducible over GF(p), or None when none is.

    Lidl-Niederreiter, Finite Fields, Thm 3.75: for a != 0, x^k - a is
    irreducible exactly when every prime r | k divides p - 1 with
    a^((p-1)/r) != 1, and p = 1 mod 4 if 4 | k.
    """
    primes = [r for r in range(2, k + 1) if k % r == 0 and _is_prime(r)]
    if any((p - 1) % r for r in primes) or (k % 4 == 0 and p % 4 != 1):
        return None
    return [(p - 1) // r for r in primes]


def _find_irreducible(p: int, k: int) -> tuple[int, ...]:
    """The monic irreducible of degree k whose tail (c0, ..., c_{k-1}) comes
    first in _coeff_tuples order.  The first p tails are the binomials
    x^k + c0, decided by their exponents; Rabin's test takes the rest."""
    exponents = _binomial_exponents(p, k)
    if exponents is not None:
        for c in range(1, p):
            if all(pow(p - c, e, p) != 1 for e in exponents):
                return (c,) + (0,) * (k - 1) + (1,)
    for rest in itertools.islice(_coeff_tuples(p, k - 1), 1, None):
        for c in range(p):
            if _poly_is_irreducible((c,) + rest + (1,), p):
                return (c,) + rest + (1,)
    raise UnsupportedInputError(f"no irreducible polynomial found for GF({p}^{k})")


# ---------------------------------------------------------------------------
# places of Q and Hilbert symbols

class Place:
    """A place of the rationals: 'inf' or a prime p."""

    def __init__(self, v):
        if v == "inf" or v is math.inf:
            self.p = None
        else:
            p = int(v)
            if not _is_prime(p):
                raise UnsupportedInputError(f"{p} is not a prime place")
            self.p = p

    @property
    def is_real(self) -> bool:
        return self.p is None

    def __eq__(self, other):
        return isinstance(other, Place) and other.p == self.p

    def __hash__(self):
        return hash(("place", self.p))

    def __lt__(self, other):
        a = -1 if self.p is None else self.p
        b = -1 if other.p is None else other.p
        return a < b

    def __repr__(self):
        return "inf" if self.p is None else str(self.p)


PLACE_REAL = Place("inf")


def _val_unit(x: Fraction, p: int) -> tuple[int, Fraction]:
    """p-adic valuation and unit part of a nonzero rational."""
    v = 0
    n, d = x.numerator, x.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v, Fraction(n, d)


def _unit_mod(u: Fraction, m: int) -> int:
    """A p-adic unit's residue mod m (m a power of the relevant prime)."""
    return (u.numerator * pow(u.denominator, -1, m)) % m


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for odd prime p, values in {-1, 0, 1}."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def hilbert_symbol(a, b, place: Place) -> int:
    """Hilbert symbol (a, b)_v over Q_v, by the classical local formulas."""
    a, b = _as_fraction(a), _as_fraction(b)
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol needs nonzero arguments")
    if place.is_real:
        return -1 if (a < 0 and b < 0) else 1
    p = place.p
    alpha, u = _val_unit(a, p)
    beta, w = _val_unit(b, p)
    if p != 2:
        # (a,b)_p = (-1|p)^(alpha*beta) (u|p)^beta (w|p)^alpha
        sign = 1
        if alpha % 2 and beta % 2:
            sign *= legendre(-1, p)
        if beta % 2:
            sign *= legendre(_unit_mod(u, p), p)
        if alpha % 2:
            sign *= legendre(_unit_mod(w, p), p)
        return sign
    # p = 2: epsilon(u) = (u-1)/2, omega(u) = (u^2-1)/8 mod 2 on odd residues mod 8
    u8 = _unit_mod(u, 8)
    w8 = _unit_mod(w, 8)
    eps_u = (u8 - 1) // 2 % 2
    eps_w = (w8 - 1) // 2 % 2
    om_u = (u8 * u8 - 1) // 8 % 2
    om_w = (w8 * w8 - 1) // 8 % 2
    e = eps_u * eps_w + alpha * om_w + beta * om_u
    return -1 if e % 2 else 1


def hilbert_symbol_bruteforce(a, b, place: Place) -> int:
    """Independent congruence-search oracle for the Hilbert symbol.

    Tests solubility of z^2 = a x^2 + b y^2 by searching primitive triples
    mod p^k, with k chosen so that a primitive solution is Hensel-liftable:
    k = 1 for odd p with both arguments units (after stripping square
    factors of p), k = 2 when exactly one has odd valuation, k = 3 when
    both do, and k = 6 at p = 2.  At the real place it reads off signs.
    """
    a, b = _as_fraction(a), _as_fraction(b)
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol needs nonzero arguments")
    if place.is_real:
        return -1 if (a < 0 and b < 0) else 1
    p = place.p

    def strip(x: Fraction) -> int:
        # integer of the same square class with p-valuation in {0, 1}
        v, u = _val_unit(x, p)
        num = u.numerator * u.denominator  # same square class as the unit
        return num * (p if v % 2 else 1)

    ai, bi = strip(a), strip(b)
    va, vb = ai % p == 0, bi % p == 0
    if p == 2:
        k = 6
    elif va and vb:
        k = 3
    elif va or vb:
        k = 2
    else:
        k = 1
    n = p**k
    # z is implicit: a x^2 + b y^2 must be a square mod n, with the triple
    # (x, y, z) primitive.  If x or y is a unit any square z works; if both
    # are divisible by p, z must be a unit, i.e. the sum must be a unit
    # square.  Only the residues c x^2 and whether x is a unit matter, so
    # the search runs over those sets.
    squares = {x * x % n for x in range(n)}
    unit_squares = {x * x % n for x in range(n) if x % p}

    def values(c: int, unit: bool) -> set:
        return {c * x * x % n for x in range(n) if bool(x % p) == unit}

    ax_unit, ax_nonunit = values(ai, True), values(ai, False)
    by_unit, by_nonunit = values(bi, True), values(bi, False)
    for xs, ys, targets in ((ax_unit, by_unit | by_nonunit, squares),
                            (ax_nonunit, by_unit, squares),
                            (ax_nonunit, by_nonunit, unit_squares)):
        if any((s + t) % n in targets for s in xs for t in ys):
            return 1
    return -1


def relevant_places(values) -> list[Place]:
    """inf, 2, and the odd primes dividing any numerator or denominator."""
    primes: set[int] = set()
    for x in values:
        x = _as_fraction(x)
        if x == 0:
            continue
        for n in (x.numerator, x.denominator):
            for q in trial_factor(n):
                primes.add(q)
    primes.discard(2)
    return [PLACE_REAL, Place(2)] + [Place(q) for q in sorted(primes)]


# ---------------------------------------------------------------------------
# quadratic etale algebras

class EtaleQuadratic:
    """A quadratic etale algebra over a base field.

    char != 2: F[X]/(X^2 - m), split iff m is a square.
    char == 2: F[X]/(X^2 + X + a) (Artin-Schreier), split iff a = t^2 + t
    has a solution.  The standard involution sends the generator x to -x,
    resp. x + 1; on the split algebra F x F it swaps the factors.
    """

    def __init__(self, field: Field, datum, split: bool):
        self.field = field
        self.datum = datum
        self.split = split

    @property
    def char2(self) -> bool:
        return self.field.char == 2

    def conj_coords(self, c0, c1):
        """Standard involution on coordinates w.r.t. basis 1, x."""
        F = self.field
        if self.char2:
            # x -> x + 1
            return F.add(c0, c1), c1
        return c0, F.neg(c1)

    def norm(self, c0, c1):
        """Norm of c0 + c1 x to the base field."""
        F = self.field
        if self.char2:
            # (c0 + c1 x)(c0 + c1 (x+1)) = c0^2 + c0 c1 + c1^2 a
            return F.add(F.add(F.mul(c0, c0), F.mul(c0, c1)), F.mul(F.mul(c1, c1), self.datum))
        # (c0 + c1 x)(c0 - c1 x) = c0^2 - c1^2 m
        return F.sub(F.mul(c0, c0), F.mul(F.mul(c1, c1), self.datum))

    def place_behavior(self, place: Place) -> str:
        """'split', 'inert', or 'ramified' at a place of Q (rational base only)."""
        if self.field is not QQ and not isinstance(self.field, RationalField):
            raise UnsupportedInputError("place behavior is defined over Q only")
        m = _as_fraction(self.datum)
        if self.split:
            return "split"
        if place.is_real:
            return "split" if m > 0 else "inert"
        p = place.p
        v, u = _val_unit(m, p)
        if p != 2:
            if v % 2:
                return "ramified"
            return "split" if legendre(_unit_mod(u, p), p) == 1 else "inert"
        if v % 2:
            return "ramified"
        r = _unit_mod(u, 8)
        if r == 1:
            return "split"
        if r == 5:
            return "inert"
        return "ramified"

    def is_isomorphic(self, other: "EtaleQuadratic") -> bool:
        if self.field != other.field:
            return False
        if self.split or other.split:
            return self.split == other.split
        F = self.field
        if self.char2:
            # same Artin-Schreier class iff a - a' is in the image of t^2 + t
            diff = F.sub(self.datum, other.datum)
            return _artin_schreier_solvable(F, diff)
        q = F.div(self.datum, other.datum)
        return F.is_square(q)

    def to_json(self) -> dict:
        F = self.field
        return {
            "base": F.to_json(),
            "datum": F.fmt(self.datum),
            "split": self.split,
            "char2": self.char2,
        }

    def __repr__(self):
        kind = "split" if self.split else "field"
        return f"EtaleQuadratic({self.field}, datum={self.field.fmt(self.datum)}, {kind})"

    def __eq__(self, other):
        return isinstance(other, EtaleQuadratic) and self.is_isomorphic(other)

    def __hash__(self):
        # coarse: hash by splitness only; equality does the real work
        return hash(("etale2", self.field, self.split))


def _artin_schreier_solvable(F: Field, a) -> bool:
    """Does t^2 + t = a have a solution?  Over GF(2^k) it does iff the
    absolute trace a + a^2 + ... + a^(2^(k-1)) is 0."""
    if F.char != 2:
        raise UnsupportedInputError("Artin-Schreier test needs char 2")
    tr, power = a, a
    for _ in range(F.k - 1):
        power = F.mul(power, power)
        tr = F.add(tr, power)
    return F.is_zero(tr)


def artin_schreier_root(F: Field, a):
    """The root of t^2 + t = a that comes first in F.elements() order, or None.

    t -> t^2 + t is GF(2)-linear with kernel {0, 1}, so one k x k solve
    over GF(2) finds a root t, and the roots are t and t + 1; the first
    in element order is the one with constant coefficient 0.
    """
    from .linalg import solve

    if not _artin_schreier_solvable(F, a):
        return None
    if F.k == 1:
        return 0
    basis = [tuple(int(i == j) for i in range(F.k)) for j in range(F.k)]
    cols = [dict(enumerate(F.add(F.mul(e, e), e))) for e in basis]
    t = solve(PrimeField(2), cols, dict(enumerate(a)))
    return (0,) + tuple(t.get(i, 0) for i in range(1, F.k))


def quad_ext_info(F: Field, datum) -> EtaleQuadratic:
    """The quadratic etale algebra attached to a datum.

    char != 2: datum m must be nonzero; char 2: any a (Artin-Schreier).
    """
    if F.char != 2:
        m = datum
        if F.is_zero(m):
            raise UnsupportedInputError("datum must be nonzero when char != 2")
        return EtaleQuadratic(F, m, F.is_square(m))
    return EtaleQuadratic(F, datum, _artin_schreier_solvable(F, datum))


def etale_split(F: Field) -> EtaleQuadratic:
    """The split quadratic etale algebra F x F."""
    if F.char != 2:
        return EtaleQuadratic(F, F.one(), True)
    # a = 0: t^2 + t = 0 solvable by t = 0
    return EtaleQuadratic(F, F.zero(), True)
