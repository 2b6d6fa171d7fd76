"""Exact arithmetic kernel: Gaussian-rational scalars, sparse multivariate
polynomials, rational functions, Taylor expansions at the origin, and exact
Hermitian linear algebra.

Conventions used throughout the package:

* Scalars are Gaussian rationals (complex numbers with ``Fraction`` real and
  imaginary parts), so every symbolic computation is exact.
* A polynomial carries an explicit, ordered tuple of variable names.  Terms
  map exponent tuples (one entry per variable) to nonzero scalars; inside
  ``Poly`` each exponent tuple is packed into one int and the coefficients
  are Gaussian integers over one common denominator, so no ``Fraction`` is
  made in its arithmetic loops.  Operations require both operands to live
  over the *same* variable tuple; this keeps multi-index bookkeeping
  unambiguous across modules.
* All variables denote real coordinates.  Complex conjugation therefore acts
  on coefficients only.
* Rational functions are num / (f_1^p_1 ... f_m^p_m) with the denominator
  kept factored over the polynomials it divides by (det W_s and the like;
  see ``RatFun``).  Equality is decided by cross multiplication.
  Coordinates in the denominator cancel against the numerator's monomial
  content and every factor has trailing (lowest-order) coefficient 1; no
  multivariate GCD is attempted.
* A jet (Taylor expansion at the origin truncated at total degree k) is a
  plain ``Poly`` of degree <= k; the caller keeps k and multiplies jets with
  ``mul_truncated``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import types
import weakref
from fractions import Fraction


class AlgebraError(Exception):
    pass


class DenominatorVanishesAtBase(AlgebraError):
    """Rational function cannot be expanded at the origin."""


class NotHermitian(AlgebraError):
    pass


class ZeroDenominator(AlgebraError):
    pass


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class GaussRat:
    """A Gaussian rational number re + im*i with exact Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussRat is immutable")

    @classmethod
    def of(cls, x) -> "GaussRat":
        if isinstance(x, GaussRat):
            return x
        return cls(_frac(x))

    def __add__(self, other):
        other = GaussRat.of(other)
        return GaussRat(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-GaussRat.of(other))

    def __rsub__(self, other):
        return GaussRat.of(other) + (-self)

    def __mul__(self, other):
        other = GaussRat.of(other)
        return GaussRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussRat.of(other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussRat")
        return GaussRat(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        return GaussRat.of(other) / self

    def conjugate(self):
        return GaussRat(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussRat.of(other)
        if not isinstance(other, GaussRat):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*i"


ZERO = GaussRat(0)
ONE = GaussRat(1)
I = GaussRat(0, 1)
HALF = GaussRat(Fraction(1, 2))


def _deg_key(exps):
    # graded order: total degree first, then the exponent tuple itself
    return (sum(exps), exps)


# Packed exponents (Monagan and Pearce, "Polynomial division using dynamic
# arrays, heaps, and packed exponent vectors", CASC 2007): the exponent tuple
# of a term over n variables is one int of n + 1 fields of _FIELD bits, the
# total degree in the top field and variable 0 next, so int order is the
# graded order of _deg_key.  The top bit of each field is a guard: no total
# degree reaches _DEG_CAP, so adding two keys never carries between fields,
# and a borrow out of a field sets its guard bit.
_FIELD = 16
_FMASK = (1 << _FIELD) - 1
_DEG_CAP = 1 << (_FIELD - 1)


class DegreeOverflow(AlgebraError):
    """A total degree does not fit the packed exponent field."""


_OVERFLOW = f"total degree exceeds {_DEG_CAP - 1}, the packed exponent limit"


@functools.lru_cache(maxsize=None)
def _layout(n):
    """(top-field shift, per-variable shifts, guard bits) for n variables."""
    shifts = tuple(_FIELD * (n - 1 - j) for j in range(n))
    return _FIELD * n, shifts, sum(1 << (s + _FIELD - 1) for s in shifts)


def _pack(exps, n) -> int:
    top, shifts, _ = _layout(n)
    if len(exps) != n or any(k < 0 for k in exps):
        raise ValueError("exponents must be one nonnegative integer per variable")
    deg = sum(exps)
    if deg >= _DEG_CAP:
        raise DegreeOverflow(_OVERFLOW)
    return (deg << top) + sum(k << s for k, s in zip(exps, shifts))


def _unpack(key, shifts) -> tuple:
    return tuple((key >> s) & _FMASK for s in shifts)


def _gauss_int(c: GaussRat):
    """(re, im, den) with c = (re + im*i) / den and den > 0 least."""
    dr, di = c.re.denominator, c.im.denominator
    d = math.lcm(dr, di)
    return c.re.numerator * (d // dr), c.im.numerator * (d // di), d


class Poly:
    """Sparse multivariate polynomial over GaussRat with a fixed variable
    tuple.

    ``_t`` maps packed exponents (see ``_pack``) to Gaussian-integer
    numerators (re, im), never (0, 0), over the common denominator ``_d`` > 0,
    which shares no factor with all of them; this form is canonical.
    ``terms`` is the read-only view exponent tuple -> GaussRat, built on first
    use, in the same order."""

    __slots__ = ("vars", "_t", "_d", "_terms")

    def __init__(self, vars, terms=None):
        vars = tuple(vars)
        cs = {}
        for exps, c in (terms or {}).items():
            c = GaussRat.of(c)
            e = _pack(exps, len(vars))
            if not c.is_zero():
                cs[e] = _gauss_int(c)
        d = math.lcm(*(c[2] for c in cs.values()))
        self._set(vars, {e: (a * (d // k), b * (d // k)) for e, (a, b, k) in cs.items()}, d)

    def _set(self, vars, t, d):
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "_t", t)
        object.__setattr__(self, "_d", d)
        object.__setattr__(self, "_terms", None)

    @classmethod
    def _new(cls, vars, t, d=1) -> "Poly":
        """From packed terms already in canonical form."""
        self = object.__new__(cls)
        self._set(vars, t, d)
        return self

    @classmethod
    def _reduced(cls, vars, t, d) -> "Poly":
        """From packed terms without zeros, dividing out the common factor of
        ``d`` and the numerators."""
        if d != 1:
            g = math.gcd(d, *itertools.chain.from_iterable(t.values()))
            if g != 1:
                d //= g
                t = {e: (a // g, b // g) for e, (a, b) in t.items()}
        return cls._new(vars, t, d)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @property
    def terms(self):
        if self._terms is None:
            shifts = _layout(len(self.vars))[1]
            object.__setattr__(self, "_terms", types.MappingProxyType(
                {_unpack(e, shifts): self._scalar(c) for e, c in self._t.items()}
            ))
        return self._terms

    def _scalar(self, c) -> GaussRat:
        return GaussRat(Fraction(c[0], self._d), Fraction(c[1], self._d))

    # -- constructors -----------------------------------------------------
    @classmethod
    def zero(cls, vars):
        return cls._new(tuple(vars), {})

    @classmethod
    def const(cls, vars, c):
        c = GaussRat.of(c)
        if c.is_zero():
            return cls.zero(vars)
        a, b, d = _gauss_int(c)
        return cls._new(tuple(vars), {0: (a, b)}, d)

    @classmethod
    def one(cls, vars):
        return cls.const(vars, 1)

    @classmethod
    def var(cls, vars, name, power=1):
        vars = tuple(vars)
        e = [0] * len(vars)
        e[vars.index(name)] = power
        return cls._new(vars, {_pack(e, len(vars)): (1, 0)})

    @classmethod
    def monomial(cls, vars, exps, c=ONE):
        return cls(vars, {tuple(exps): GaussRat.of(c)})

    # -- queries ----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self._t

    def constant_term(self) -> GaussRat:
        c = self._t.get(0)
        return ZERO if c is None else self._scalar(c)

    def total_degree(self) -> int:
        return max(self._t) >> _layout(len(self.vars))[0] if self._t else 0

    def is_constant(self) -> bool:
        return not any(self._t)

    def is_real(self) -> bool:
        return not any(b for _, b in self._t.values())

    def coefficient(self, exps) -> GaussRat:
        return self.terms.get(tuple(exps), ZERO)

    def _check(self, other):
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other, sign=1):
        if isinstance(other, (int, Fraction, GaussRat)):
            other = Poly.const(self.vars, other)
        self._check(other)
        d = math.lcm(self._d, other._d)
        fp, fq = d // self._d, sign * (d // other._d)
        res = dict(self._t) if fp == 1 else {e: (a * fp, b * fp) for e, (a, b) in self._t.items()}
        for e, (a, b) in other._t.items():
            a, b = a * fq, b * fq
            old = res.get(e)
            if old is not None:
                a += old[0]
                b += old[1]
                if not (a or b):
                    del res[e]
                    continue
            res[e] = (a, b)
        return Poly._reduced(self.vars, res, d)

    __radd__ = __add__

    def __neg__(self):
        return Poly._new(self.vars, {e: (-a, -b) for e, (a, b) in self._t.items()}, self._d)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussRat)):
            c = GaussRat.of(other)
            if c.is_zero():
                return Poly.zero(self.vars)
            x, y, k = _gauss_int(c)
            return Poly._reduced(
                self.vars,
                {e: (a * x - b * y, a * y + b * x) for e, (a, b) in self._t.items()},
                self._d * k,
            )
        return mul_truncated(self, other)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Poly.one(self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussRat)):
            other = Poly.const(self.vars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.vars == other.vars and self._d == other._d and self._t == other._t

    def __hash__(self):
        return hash((self.vars, self._d, frozenset(self._t.items())))

    # -- calculus ---------------------------------------------------------
    def diff(self, name) -> "Poly":
        top, shifts, _ = _layout(len(self.vars))
        s = shifts[self.vars.index(name)]
        step = (1 << top) + (1 << s)
        res = {}
        for e, (a, b) in self._t.items():
            k = (e >> s) & _FMASK
            if k:
                res[e - step] = (a * k, b * k)
        return Poly._reduced(self.vars, res, self._d)

    def conjugate(self) -> "Poly":
        return Poly._new(self.vars, {e: (a, -b) for e, (a, b) in self._t.items()}, self._d)

    def real_part(self) -> "Poly":
        return (self + self.conjugate()) * HALF

    def imag_part(self) -> "Poly":
        return (self - self.conjugate()) * GaussRat(0, Fraction(-1, 2))

    def evaluate(self, point) -> GaussRat:
        """Evaluate at a full rational point, given as a sequence of
        Fraction/int/GaussRat values in variable order."""
        point = [GaussRat.of(p) for p in point]
        if len(point) != len(self.vars):
            raise ValueError("point length does not match variables")
        total = ZERO
        for e, c in self.terms.items():
            v = c
            for p, k in zip(point, e):
                for _ in range(k):
                    v = v * p
            total = total + v
        return total

    def residues(self, p, i_p) -> dict:
        """{exponent tuple: coefficient mod the prime p}, with i sent to i_p,
        a square root of -1 mod p; ZeroDivisionError when p divides the
        denominator."""
        if self._d % p == 0:
            raise ZeroDivisionError("the prime divides a coefficient denominator")
        inv = pow(self._d, -1, p)
        shifts = _layout(len(self.vars))[1]
        return {_unpack(e, shifts): (a + i_p * b) * inv % p for e, (a, b) in self._t.items()}

    def shift_divide(self, exps) -> "Poly":
        """Exact division by the monomial with exponent ``exps``; every term
        must be divisible."""
        shift = _pack(exps, len(self.vars))
        guards = _layout(len(self.vars))[2]
        res = {}
        for e, c in self._t.items():
            ne = e - shift
            if ne < 0 or ne & guards:
                raise ValueError("not divisible by the requested monomial")
            res[ne] = c
        return Poly._new(self.vars, res, self._d)

    def min_exponents(self):
        """Componentwise minimum exponent over the support (the largest
        monomial dividing every term)."""
        if not self._t:
            raise ValueError("zero polynomial has no support")
        return tuple(min((e >> s) & _FMASK for e in self._t) for s in _layout(len(self.vars))[1])

    def trailing_term(self):
        """(exps, coeff) of the lowest-order term in the graded order."""
        if not self._t:
            raise ValueError("zero polynomial has no trailing term")
        e = min(self._t)
        return _unpack(e, _layout(len(self.vars))[1]), self._scalar(self._t[e])

    def truncate(self, order) -> "Poly":
        lim = (order + 1) << _layout(len(self.vars))[0]
        return Poly._reduced(self.vars, {e: c for e, c in self._t.items() if e < lim}, self._d)

    def rename_vars(self, new_vars, mapping=None) -> "Poly":
        """Re-express over a different variable tuple.

        ``mapping`` sends old names to new names (identity by default).  Every
        variable actually occurring must be mapped to a member of
        ``new_vars``."""
        new_vars = tuple(new_vars)
        mapping = mapping or {}
        pos = {}
        for j, name in enumerate(self.vars):
            target = mapping.get(name, name)
            pos[j] = new_vars.index(target) if target in new_vars else None
        res = {}
        for e, c in self.terms.items():
            ne = [0] * len(new_vars)
            for j, k in enumerate(e):
                if k == 0:
                    continue
                if pos[j] is None:
                    raise ValueError(f"variable {self.vars[j]} has no image")
                ne[pos[j]] += k
            key = tuple(ne)
            s = res.get(key, ZERO) + c
            if s.is_zero():
                res.pop(key, None)
            else:
                res[key] = s
        return Poly(new_vars, res)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=_deg_key):
            c = self.terms[e]
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v for v, k in zip(self.vars, e) if k
            )
            if mono:
                parts.append(f"({c!r})*{mono}")
            else:
                parts.append(f"({c!r})")
        return " + ".join(parts)


class _Factor:
    """One denominator factor: a single coordinate, or a polynomial without
    monomial content whose trailing coefficient is 1.  Its powers, partial
    derivatives and conjugate are cached on it, so the cache lives exactly
    as long as some RatFun (or a conjugate factor) still holds the factor."""

    __slots__ = ("poly", "key", "coord", "pows", "diffs", "conj", "__weakref__")

    def __init__(self, poly: Poly, key: int):
        self.poly = poly
        self.key = key  # creation order; powers tuples are sorted by it
        # position of a single-coordinate factor, else None
        self.coord = next(iter(poly.terms)).index(1) if len(poly._t) == 1 else None
        self.pows = [Poly.one(poly.vars), poly]  # [f^0, f^1, ...] computed so far
        self.diffs = {}  # name -> df/dname
        self.conj = None

    def power(self, k) -> Poly:
        pw = self.pows
        while len(pw) <= k:
            pw.append(pw[-1] * pw[1])
        return pw[k]

    def diff(self, name) -> Poly:
        d = self.diffs.get(name)
        if d is None:
            d = self.diffs[name] = self.poly.diff(name)
        return d

    def conjugate(self) -> "_Factor":
        if self.conj is None:
            self.conj = _factor(self.poly.conjugate())
        return self.conj


# Each polynomial that is a denominator factor of a live RatFun has one
# _Factor, so denominators combine by identity rather than by polynomial
# equality; a factor no RatFun holds any more is dropped with its cache.
_LIVE_FACTORS = weakref.WeakValueDictionary()
_FACTOR_KEYS = itertools.count()


def _factor(f: Poly) -> _Factor:
    fac = _LIVE_FACTORS.get(f)
    if fac is None:
        fac = _LIVE_FACTORS[f] = _Factor(f, next(_FACTOR_KEYS))
    return fac


def _by_key(item):
    return item[0].key


def _split_denominator(den: Poly):
    """(c, powers) with den = c * prod f_i^p_i over factors f_i; ``powers``
    is a tuple of (_Factor, p) sorted by factor key."""
    vars = den.vars
    mono = den.min_exponents()
    if any(mono):
        den = den.shift_divide(mono)
    _, c = den.trailing_term()
    powers = {}
    if not den.is_constant():
        powers[_factor(den * (ONE / c) if c != ONE else den)] = 1
    for j, k in enumerate(mono):
        if k:
            powers[_factor(Poly.var(vars, vars[j]))] = k
    return c, tuple(sorted(powers.items(), key=_by_key))


def _merge_powers(a, b, op):
    """Per-factor ``op`` (max for a sum, add for a product) of two powers tuples."""
    if not b or (a == b and op is max):
        return a
    if not a:
        return b
    out = dict(a)
    for f, p in b:
        out[f] = op(out.get(f, 0), p)
    return tuple(sorted(out.items(), key=_by_key))


def _lift(num: Poly, have, want) -> Poly:
    """num * prod f_i^(want_i - have_i): the numerator over the larger denominator."""
    if have == want:
        return num
    have = dict(have)
    for f, p in want:
        k = p - have.get(f, 0)
        if k:
            num = num * f.power(k)
    return num


class RatFun:
    """Rational function num / (f_1^p_1 ... f_m^p_m) over the same variables.

    The denominator is kept factored (see ``_Factor``): a structure's
    coefficients live in the localisation Q(i)[coords][1/det W_s], so det W_s,
    its conjugate and any other divisor (a bundle's det T, say) each become
    one factor with a power.  Sums lift
    both sides to the per-factor maximum power, products add powers, and
    ``diff`` raises the power of each factor that depends on the variable by
    one.  Coordinate factors cancel against the numerator's monomial content;
    other factors are never cancelled, since that would need multivariate
    GCDs.  ``den`` is the expanded product, and equality is decided by cross
    multiplication over the common denominator."""

    __slots__ = ("num", "powers", "_den")

    def __init__(self, num: Poly, den: Poly | None = None):
        powers = ()
        if den is not None:
            if den.is_zero():
                raise ZeroDenominator("rational function with zero denominator")
            if num.vars != den.vars:
                raise ValueError("numerator/denominator variable mismatch")
            if not num.is_zero():
                c, powers = _split_denominator(den)
                if c != ONE:
                    num = num * (ONE / c)
        self._settle(num, powers)

    def _settle(self, num, powers):
        if not num._t:
            powers = ()
        elif powers:
            num, powers = _cancel_coordinates(num, powers)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "powers", powers)
        object.__setattr__(self, "_den", None)

    @classmethod
    def _make(cls, num: Poly, powers) -> "RatFun":
        self = object.__new__(cls)
        self._settle(num, powers)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("RatFun is immutable")

    @classmethod
    def of(cls, x, vars=None):
        if isinstance(x, RatFun):
            return x
        if isinstance(x, Poly):
            return cls._make(x, ())
        if vars is None:
            raise TypeError("cannot coerce scalar to RatFun without variables")
        return cls._make(Poly.const(vars, x), ())

    @property
    def vars(self):
        return self.num.vars

    @property
    def den(self) -> Poly:
        """The expanded denominator; its trailing coefficient is 1."""
        if self._den is None:
            d = Poly.one(self.vars)
            for f, p in self.powers:
                d = d * f.power(p)
            object.__setattr__(self, "_den", d)
        return self._den

    def power_of(self, unit: Poly):
        """(num, p) with self == num / unit^p, when the denominator is a
        power of the factor ``unit``."""
        if not self.powers:
            return self.num, 0
        if len(self.powers) > 1 or self.powers[0][0].poly != unit:
            raise AlgebraError("denominator is not a power of the given factor")
        return self.num, self.powers[0][1]

    def is_zero(self) -> bool:
        return not self.num._t

    def is_polynomial(self) -> bool:
        return not self.powers

    def as_poly(self) -> Poly:
        if self.powers:
            raise ValueError("denominator is not constant")
        return self.num

    def __add__(self, other):
        other = RatFun.of(other, self.vars)
        want = _merge_powers(self.powers, other.powers, max)
        return RatFun._make(
            _lift(self.num, self.powers, want) + _lift(other.num, other.powers, want),
            want,
        )

    __radd__ = __add__

    def __neg__(self):
        return RatFun._make(-self.num, self.powers)

    def __sub__(self, other):
        return self + (-RatFun.of(other, self.vars))

    def __rsub__(self, other):
        return RatFun.of(other, self.vars) + (-self)

    def __mul__(self, other):
        other = RatFun.of(other, self.vars)
        return RatFun._make(
            self.num * other.num, _merge_powers(self.powers, other.powers, operator.add)
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = RatFun.of(other, self.vars)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        c, powers = _split_denominator(other.num)
        num = self.num * (ONE / c)
        if other.powers:
            num = num * other.den
        return RatFun._make(num, _merge_powers(self.powers, powers, operator.add))

    def __rtruediv__(self, other):
        return RatFun.of(other, self.vars) / self

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussRat, Poly)):
            other = RatFun.of(other, self.vars)
        if not isinstance(other, RatFun):
            return NotImplemented
        want = _merge_powers(self.powers, other.powers, max)
        return _lift(self.num, self.powers, want) == _lift(other.num, other.powers, want)

    def __hash__(self):
        raise TypeError("RatFun is unhashable (equality is cross-multiplicative)")

    def diff(self, name) -> "RatFun":
        # (n / prod f^p)' = (n' prod_S f - n sum_S p f' prod_{S-f} f) / prod f^(p + [f in S]),
        # S the factors that depend on ``name``
        num = self.num.diff(name)
        moving = [(f, p, f.diff(name)) for f, p in self.powers]
        moving = [m for m in moving if m[2]._t]
        if not moving:
            return RatFun._make(num, self.powers)
        for f, _, _ in moving:
            num = num * f.poly
        for f, p, df in moving:
            term = self.num * (df * p)
            for g, _, _ in moving:
                if g is not f:
                    term = term * g.poly
            num = num - term
        bump = {f for f, _, _ in moving}
        return RatFun._make(
            num, tuple((f, p + 1 if f in bump else p) for f, p in self.powers)
        )

    def conjugate(self) -> "RatFun":
        powers = tuple(sorted(((f.conjugate(), p) for f, p in self.powers), key=_by_key))
        return RatFun._make(self.num.conjugate(), powers)

    def evaluate(self, point) -> GaussRat:
        d = self.den.evaluate(point)
        if d.is_zero():
            raise ZeroDivisionError("denominator vanishes at the evaluation point")
        return self.num.evaluate(point) / d

    def value_at_origin(self) -> GaussRat:
        d = self.den.constant_term()
        if d.is_zero():
            raise DenominatorVanishesAtBase("denominator vanishes at the base point")
        return self.num.constant_term() / d

    def __repr__(self):
        if not self.powers:
            return repr(self.num)
        return f"({self.num!r}) / ({self.den!r})"


def common_denominator(fs):
    """(nums, powers) with fs[k] = nums[k] / prod f^p over ``powers``, the
    per-factor maximum of the fs' denominators, as a sum lifts its terms.
    Each factor f in ``powers`` carries ``poly`` and, when it is a single
    coordinate, that coordinate's position as ``coord`` (else None)."""
    want = functools.reduce(lambda acc, f: _merge_powers(acc, f.powers, max), fs, ())
    return [_lift(f.num, f.powers, want) for f in fs], want


def _cancel_coordinates(num: Poly, powers):
    """Cancel single-coordinate factors against the numerator's monomial content."""
    if all(f.coord is None for f, _ in powers):
        return num, powers
    lo = num.min_exponents()
    shift = [0] * len(lo)
    kept = []
    for f, p in powers:
        j = f.coord
        if j is not None and lo[j]:
            k = min(p, lo[j])
            shift[j] = k
            p -= k
        if p:
            kept.append((f, p))
    if any(shift):
        num = num.shift_divide(shift)
    return num, tuple(kept)


def mul_truncated(p: Poly, q: Poly, order=None) -> Poly:
    """p * q without the terms of total degree above ``order`` (all of them
    when ``order`` is None); pairs whose degrees already sum past ``order``
    are never multiplied.  Raises DegreeOverflow when a kept term's degree
    would not fit the packed field."""
    p._check(q)
    pt, qt = p._t, q._t
    top = _layout(len(p.vars))[0]
    lim = _DEG_CAP << top
    if order is not None and order < _DEG_CAP:
        lim = (order + 1) << top
    elif pt and qt and max(pt) + max(qt) >= lim:
        raise DegreeOverflow(_OVERFLOW)
    res = {}
    get = res.get
    qi = list(qt.items())
    for e1, (a, b) in pt.items():
        room = lim - e1
        if room <= 0:
            continue
        for e2, (c, d) in qi:
            if e2 >= room:
                continue
            e = e1 + e2
            re = a * c - b * d
            im = a * d + b * c
            old = get(e)
            if old is not None:
                re += old[0]
                im += old[1]
                if not (re or im):
                    del res[e]
                    continue
            res[e] = (re, im)
    return Poly._reduced(p.vars, res, p._d * q._d)


def ratfun_jet(f: RatFun, order: int) -> Poly:
    """Taylor polynomial of f at the origin up to total degree ``order``.

    Raises DenominatorVanishesAtBase if the denominator vanishes at 0."""
    if not f.powers:
        return f.num.truncate(order)
    c0 = f.den.constant_term()
    if c0.is_zero():
        raise DenominatorVanishesAtBase("denominator vanishes at the base point")
    scale = ONE / c0
    # den = c0 (1 - u) with u(0) = 0, so 1/den = scale * sum_k u^k
    u = (f.den.truncate(order) - c0) * -scale
    inv = term = Poly.one(f.vars)
    for _ in range(order):
        term = mul_truncated(term, u, order)
        if term.is_zero():
            break
        inv = inv + term
    return mul_truncated(f.num, inv * scale, order)


# -- exact linear algebra ---------------------------------------------------


def _as_gauss_matrix(rows):
    return [[GaussRat.of(x) for x in row] for row in rows]


def gauss_jordan(m) -> list:
    """Reduce the list-of-rows matrix ``m`` in place to reduced row echelon
    form over a field (entries need ``is_zero`` and the field operations);
    returns the pivot columns in order."""
    pivots = []
    for col in range(len(m[0]) if m else 0):
        rank = len(pivots)
        if rank == len(m):
            break
        pr = next((r for r in range(rank, len(m)) if not m[r][col].is_zero()), None)
        if pr is None:
            continue
        m[rank], m[pr] = m[pr], m[rank]
        pv = m[rank][col]
        m[rank] = [x / pv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and not m[r][col].is_zero():
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        pivots.append(col)
    return pivots


def exact_rank(rows) -> int:
    """Rank over the complex rationals by exact Gaussian elimination."""
    return len(gauss_jordan(_as_gauss_matrix(rows)))


class HermitianMatrix:
    """Exact Hermitian matrix with GaussRat entries."""

    __slots__ = ("n", "entries")

    def __init__(self, entries):
        entries = _as_gauss_matrix(entries)
        n = len(entries)
        for row in entries:
            if len(row) != n:
                raise NotHermitian("matrix is not square")
        for j in range(n):
            for k in range(j, n):
                if entries[j][k] != entries[k][j].conjugate():
                    raise NotHermitian(f"entry ({j},{k}) breaks Hermitian symmetry")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("HermitianMatrix is immutable")

    def inertia(self):
        return hermitian_inertia(self)


def hermitian_inertia(h: HermitianMatrix):
    """Exact inertia (n_plus, n_minus, n_zero) by symmetric elimination.

    A nonzero diagonal entry is used as pivot directly.  When the active
    diagonal vanishes but some off-diagonal entry a = m[j][k] does not, the
    congruence row_j += a*row_k, col_j += conj(a)*col_k manufactures the
    positive diagonal entry 2|a|^2 at (j, j); inertia is congruence-invariant,
    so the count is unaffected."""
    if not isinstance(h, HermitianMatrix):
        h = HermitianMatrix(h)
    n = h.n
    m = [row[:] for row in h.entries]
    active = list(range(n))
    n_pos = n_neg = n_zero = 0
    while active:
        pivot = None
        for p in active:
            if not m[p][p].is_zero():
                pivot = p
                break
        if pivot is None:
            pair = None
            for j in active:
                for k in active:
                    if k > j and not m[j][k].is_zero():
                        pair = (j, k)
                        break
                if pair:
                    break
            if pair is None:
                n_zero += len(active)
                break
            j, k = pair
            a = m[j][k]
            ac = a.conjugate()
            for c in range(n):
                m[j][c] = m[j][c] + a * m[k][c]
            for r in range(n):
                m[r][j] = m[r][j] + ac * m[r][k]
            pivot = j
        active.remove(pivot)
        pv = m[pivot][pivot]
        for r in active:
            f = m[r][pivot] / pv
            if f.is_zero():
                continue
            fc = f.conjugate()
            for c in range(n):
                m[r][c] = m[r][c] - f * m[pivot][c]
            for c in range(n):
                m[c][r] = m[c][r] - fc * m[c][pivot]
        if pv.re > 0:
            n_pos += 1
        else:
            n_neg += 1
    return (n_pos, n_neg, n_zero)


def det(m):
    """Determinant of a nonempty square matrix over a commutative ring
    (``GaussRat``, ``Poly`` or ``RatFun`` entries) by cofactor expansion
    along the first row."""
    n = len(m)
    if n == 0:
        raise ValueError("empty matrix has no determinant ring")
    if n == 1:
        return m[0][0]
    total = None
    for j in range(n):
        a = m[0][j]
        if a.is_zero():
            continue
        term = a * det([[row[c] for c in range(n) if c != j] for row in m[1:]])
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return m[0][0] if total is None else total  # zero first row: m[0][0] is the ring's 0


# Locus and bundle checks call RatFun minors by this name, so a traced run can
# count them apart from the Poly and GaussRat determinants.
ratfun_det = det


def adjugate(m):
    """Classical adjoint of a nonempty square matrix: adj(M) M = det(M) I."""
    n = len(m)
    if n == 1:
        return [[m[0][0] * 0 + 1]]
    adj = [[None] * n for _ in range(n)]
    for r in range(n):
        for c in range(n):
            sub = [[m[i][j] for j in range(n) if j != c] for i in range(n) if i != r]
            cof = det(sub)
            adj[c][r] = -cof if (r + c) % 2 else cof
    return adj


def ratfun_matrix_inverse(m):
    """Inverse of a square RatFun matrix via the adjugate; det must be != 0."""
    d = ratfun_det(m)
    if d.is_zero():
        raise ZeroDenominator("matrix is singular over the rational functions")
    return [[a / d for a in row] for row in adjugate(m)]
