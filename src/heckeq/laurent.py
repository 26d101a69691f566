"""Exact sparse arithmetic over the rationals, and Laurent polynomials in q.

`SparseVector` is the one sparse-coefficient arithmetic of the package: a
finite map key -> nonzero rational, each coefficient stored as an `int`
when it is integral and as a `fractions.Fraction` only when it is not.
It owns that normal form and the linear operations (sum, difference,
negation, scalar multiple, equality).  Two types are built on it: the
`LaurentPoly` here, keyed by exponents of q, in which every q-dependent
quantity of the package lives, and `symgroup.ClassVector`, keyed by cycle
types.  Every symbolic table of the package has integer coefficients, so
its arithmetic runs on `int`s.  This module also supplies the q-integer
family [k]_q = (q^k - 1)/(q - 1), q-contents q*[c]_q, the symmetric
bracket (q^x - q^-x)/(q - q^-1), and truncated series expansion around
q = exp(delta).

Only exact operations exist here: division either succeeds exactly or
raises `NotDivisible`, and rational functions are never materialized.
Formulas that look like rational functions must either divide exactly or
be evaluated at a specialized rational q0.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator, Mapping
from fractions import Fraction
from math import factorial

__all__ = [
    "LaurentPoly",
    "NotDivisible",
    "ZeroSpecialization",
    "PolynomialParseError",
    "q_integer",
    "q_content",
    "symmetric_bracket",
    "exp_series",
]

Scalar = int | Fraction


class NotDivisible(ArithmeticError):
    """No exact Laurent-polynomial quotient exists."""


class ZeroSpecialization(ValueError):
    """A Laurent polynomial was evaluated at q = 0."""


class PolynomialParseError(ValueError):
    """Text does not match the polynomial grammar."""


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


def _scalar(value: Scalar) -> Scalar:
    """Validate a coefficient and give it its stored type."""
    if isinstance(value, int):
        return int(value)  # a bool becomes a plain int
    return _tidy(_as_fraction(value))


def _tidy(c: Scalar) -> Scalar:
    """The stored form of a coefficient: an `int` whenever it is integral."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


def is_scalar(value) -> bool:
    """Whether `value` can scale a vector: an `int` or a `Fraction`, never a `bool`."""
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


class SparseVector:
    """A finite map key -> nonzero rational coefficient.

    `_terms` holds the coefficients in normal form: no zero is stored,
    and a coefficient is an `int` when it is integral and a `Fraction`
    otherwise.  The linear operations are written once here.  A subclass
    supplies `_key(key)`, which validates a key and gives its canonical
    form; `_like(terms)`, a vector of its own kind and space with terms
    already in normal form; and `_coerce(other)`, which reads another
    vector or a scalar as such a vector, raises where the two cannot mix,
    and gives None where it cannot read `other` at all.  Vectors in
    different `_space`s are never equal.  Instances are immutable; all
    arithmetic returns new objects.
    """

    __slots__ = ("_terms",)
    _space = None

    def __init__(self, terms: Mapping | Iterable[tuple] | None = None):
        items = () if terms is None else terms.items() if isinstance(terms, Mapping) else terms
        self._terms = self._collect((self._key(k), _scalar(c)) for k, c in items)

    @staticmethod
    def _collect(pairs: Iterable[tuple]) -> dict:
        """The normal form of (key, coefficient) pairs, summed by key.

        The coefficients must already be `int`s or `Fraction`s.
        """
        out: dict = {}
        for k, c in pairs:
            out[k] = out.get(k, 0) + c
        return {k: c if type(c) is int else _tidy(c) for k, c in out.items() if c}

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # copy the longer operand and walk the shorter one
        big, small = self._terms, o._terms
        if len(big) < len(small):
            big, small = small, big
        out = dict(big)
        for k, c in small.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s if type(s) is int else _tidy(s)
            else:
                del out[k]
        return self._like(out)

    __radd__ = __add__

    def __neg__(self):
        return self._like({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def _scale(self, c: Scalar):
        """This vector times the scalar c."""
        f = _scalar(c)
        return self._like({k: _tidy(v * f) for k, v in self._terms.items()} if f else {})

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self._space == other._space and self._terms == other._terms


_TERM_RE = re.compile(
    r"""(?P<sign>[+-])?\s*
        (?:
            (?P<coeff>\d+(?:/\d*[1-9]\d*)?)\s*\*\s*q(?:\^(?P<exp1>[+-]?\d+))?
          | q(?:\^(?P<exp2>[+-]?\d+))?
          | (?P<const>\d+(?:/\d*[1-9]\d*)?)
        )\s*""",
    re.VERBOSE,
)


class LaurentPoly(SparseVector):
    """A Laurent polynomial in q: a `SparseVector` keyed by exponents of q.

    Exponents may be negative.  The zero polynomial is the empty map, and
    two polynomials are equal exactly when their term maps are equal.
    """

    __slots__ = ()

    @staticmethod
    def _key(exp: int) -> int:
        if not isinstance(exp, int) or isinstance(exp, bool):
            raise TypeError("exponents must be integers")
        return exp

    # -- constructors -------------------------------------------------

    @classmethod
    def _make(cls, terms: dict[int, Scalar]) -> "LaurentPoly":
        """Internal fast path: `terms` must already be normalized (nonzero
        coefficients, each an `int` when integral)."""
        obj = cls.__new__(cls)
        obj._terms = terms
        return obj

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls._make({})

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls._make({0: 1})

    @classmethod
    def q(cls) -> "LaurentPoly":
        return cls._make({1: 1})

    @classmethod
    def constant(cls, c: Scalar) -> "LaurentPoly":
        f = _scalar(c)
        return cls._make({0: f} if f else {})

    @classmethod
    def monomial(cls, exp: int, coeff: Scalar = 1) -> "LaurentPoly":
        f = _scalar(coeff)
        return cls._make({exp: f} if f else {})

    @classmethod
    def from_string(cls, text: str) -> "LaurentPoly":
        """Parse the canonical text grammar.

        A polynomial is a sum of terms ``[+|-] [coeff '*'] 'q' ['^' int]``
        where ``coeff`` is an integer or a rational ``p/q``, for example
        ``q^2+3*q-1-2*q^-1``.  Constant terms drop the ``q`` part.
        """
        s = text.strip()
        if not s:
            raise PolynomialParseError("empty polynomial text")
        if s in ("0", "+0", "-0"):
            return cls.zero()
        pos = 0
        first = True
        pairs: list[tuple[int, Fraction]] = []
        while pos < len(s):
            m = _TERM_RE.match(s, pos)
            if m is None or m.end() == pos:
                raise PolynomialParseError(f"cannot parse {text!r} at position {pos}")
            if not first and m.group("sign") is None:
                raise PolynomialParseError(f"missing '+' or '-' before term at position {pos} in {text!r}")
            sign = -1 if m.group("sign") == "-" else 1
            if m.group("const") is not None:
                exp, coeff = 0, Fraction(m.group("const"))
            else:
                raw = m.group("coeff")
                coeff = Fraction(raw) if raw is not None else Fraction(1)
                raw_exp = m.group("exp1") if raw is not None else m.group("exp2")
                exp = int(raw_exp) if raw_exp is not None else 1
            pairs.append((exp, sign * coeff))
            pos = m.end()
            first = False
        return cls(pairs)

    # -- inspection ---------------------------------------------------

    @property
    def terms(self) -> dict[int, Scalar]:
        """A copy of the exponent -> coefficient map."""
        return dict(self._terms)

    def coefficient(self, exp: int) -> Scalar:
        return self._terms.get(exp, 0)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def min_exp(self) -> int:
        if not self._terms:
            raise ValueError("the zero polynomial has no exponents")
        return min(self._terms)

    @property
    def max_exp(self) -> int:
        if not self._terms:
            raise ValueError("the zero polynomial has no exponents")
        return max(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[tuple[int, Scalar]]:
        return iter(sorted(self._terms.items()))

    # -- ring operations ----------------------------------------------

    @classmethod
    def _coerce(cls, other) -> "LaurentPoly | None":
        if isinstance(other, LaurentPoly):
            return other
        if is_scalar(other):
            return cls.constant(other)
        return None

    _like = _make
    # The linear operations are `SparseVector`'s, bound here by name
    # because bench/tracer.py times the ones it finds in this class body.
    __add__ = __radd__ = SparseVector.__add__
    __neg__ = SparseVector.__neg__
    __sub__ = SparseVector.__sub__
    __rsub__ = SparseVector.__rsub__

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            out: dict[int, Scalar] = {}
            for e1, c1 in self._terms.items():
                for e2, c2 in other._terms.items():
                    e = e1 + e2
                    s = out.get(e, 0) + c1 * c2
                    if s:
                        out[e] = s if type(s) is int else _tidy(s)
                    elif e in out:
                        del out[e]
            return LaurentPoly._make(out)
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self._scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers are supported")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def divide_exact(self, other: "LaurentPoly | Scalar") -> "LaurentPoly":
        """Return c with c * other == self, or raise `NotDivisible`.

        An inexact quotient signals a transcription bug upstream, so it is
        a hard failure rather than a rational-function result.
        """
        o = self._coerce(other)
        if o is None:
            raise TypeError("divisor must be a LaurentPoly or scalar")
        if o.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
            return LaurentPoly.zero()
        # Shift both operands to ordinary polynomials with nonzero constant
        # term; exactness there matches exactness in the Laurent ring.
        va, vb = self.min_exp, o.min_exp
        da = self.max_exp - va
        db = o.max_exp - vb
        if da < db:
            raise NotDivisible(f"({self}) is not divisible by ({other})")
        # rem holds Fractions, so every `/` below is exact
        rem = [Fraction(0)] * (da + 1)
        for e, c in self._terms.items():
            rem[e - va] = Fraction(c)
        bs = [0] * (db + 1)
        for e, c in o._terms.items():
            bs[e - vb] = c
        lead = bs[db]
        quot = [Fraction(0)] * (da - db + 1)
        for d in range(da - db, -1, -1):
            c = rem[d + db] / lead
            if c:
                quot[d] = c
                for j in range(db + 1):
                    rem[d + j] -= c * bs[j]
        if any(rem):
            raise NotDivisible(f"({self}) is not divisible by ({other})")
        return LaurentPoly({d + va - vb: c for d, c in enumerate(quot) if c})

    def evaluate(self, q0: Scalar) -> Fraction:
        """Exact specialization at a nonzero rational q0.

        q0 is made a `Fraction` before any power is taken, so a negative
        exponent at an integer q0 still gives an exact value.
        """
        v = _as_fraction(q0)
        if v == 0:
            raise ZeroSpecialization("cannot evaluate at q = 0")
        return sum((c * v**e for e, c in self._terms.items()), Fraction(0))

    __call__ = evaluate

    def substitute_power(self, m: int) -> "LaurentPoly":
        """Apply q -> q^m (m a nonzero integer) by rescaling exponents."""
        if not isinstance(m, int) or m == 0:
            raise ValueError("substitution power must be a nonzero integer")
        return LaurentPoly._make({e * m: c for e, c in self._terms.items()})

    # -- hash and text ------------------------------------------------

    def __hash__(self) -> int:
        # A constant equals its scalar under ==, so it must hash like it too.
        if not self._terms:
            return hash(0)
        if self._terms.keys() == {0}:
            return hash(self._terms[0])
        return hash(frozenset(self._terms.items()))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for e in sorted(self._terms, reverse=True):
            c = self._terms[e]
            mag = -c if c < 0 else c
            if e == 0:
                body = str(mag)
            else:
                qpart = "q" if e == 1 else f"q^{e}"
                body = qpart if mag == 1 else f"{mag}*{qpart}"
            sign = "-" if c < 0 else ("+" if parts else "")
            parts.append(sign + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({str(self)!r})"


def q_integer(k: int) -> LaurentPoly:
    """The q-integer [k]_q = (q^k - 1)/(q - 1), for any integer k.

    [k]_q = 1 + q + ... + q^(k-1) for k > 0, zero for k = 0, and
    -(q^-1 + q^-2 + ... + q^k) for k < 0.
    """
    if k > 0:
        return LaurentPoly._make(dict.fromkeys(range(k), 1))
    if k == 0:
        return LaurentPoly.zero()
    return LaurentPoly._make(dict.fromkeys(range(k, 0), -1))


def q_content(c: int) -> LaurentPoly:
    """The q-content q * [c]_q of a box with ordinary content c.

    Equals q + q^2 + ... + q^c for c > 0, zero for c = 0, and
    -(1 + q^-1 + ... + q^(c+1)) for c < 0.  At q = 1 it collapses to c.
    """
    if c > 0:
        return LaurentPoly._make(dict.fromkeys(range(1, c + 1), 1))
    if c == 0:
        return LaurentPoly.zero()
    return LaurentPoly._make(dict.fromkeys(range(c + 1, 1), -1))


def symmetric_bracket(x: int) -> LaurentPoly:
    """The symmetric bracket [x]_s = (q^x - q^-x)/(q - q^-1).

    Expands to q^(x-1) + q^(x-3) + ... + q^(1-x) for x > 0 and is odd
    in x.
    """
    if x == 0:
        return LaurentPoly.zero()
    sign = 1 if x > 0 else -1
    a = abs(x)
    return LaurentPoly._make({a - 1 - 2 * i: sign for i in range(a)})


def exp_series(p: LaurentPoly, order: int) -> tuple[Fraction, ...]:
    """Expand p(exp(delta)) as a series in delta, exactly, up to `order`.

    Returns the coefficients c_0..c_order of sum(c_k * delta^k); the
    coefficient of delta^k is sum over terms a_e * e^k / k!.
    """
    if not isinstance(order, int) or order < 0:
        raise ValueError("series order must be a nonnegative integer")
    return tuple(
        sum((c * Fraction(e**k, factorial(k)) for e, c in p._terms.items()), Fraction(0))
        for k in range(order + 1)
    )
