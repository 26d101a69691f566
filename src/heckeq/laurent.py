"""Exact sparse arithmetic over the rationals, and Laurent polynomials in q.

`SparseVector` is the one sparse-coefficient arithmetic of the package: a
finite map key -> nonzero rational, each coefficient stored as an `int` when
it is integral and as a `fractions.Fraction` only when it is not.  It owns
that normal form, the linear operations (sum, difference, negation, scalar
multiple, equality) and the text of a sum.  Two types are built on it: the
`LaurentPoly` here, keyed by exponents of q, in which every q-dependent
quantity of the package lives, and `symgroup.ClassVector`, keyed by cycle
types.  Every symbolic table of the package has integer coefficients, so its
arithmetic runs on `int`s.  This module also supplies the q-integer family
[k]_q = (q^k - 1)/(q - 1), q-contents q*[c]_q, the symmetric bracket
(q^x - q^-x)/(q - q^-1), and truncated series expansion around q = exp(delta).

Only exact operations exist here: division either succeeds exactly or raises
`NotDivisible`, and rational functions are never materialized.  Formulas
that look like rational functions must either divide exactly or be evaluated
at a specialized rational q0.  What a number is is decided here alone:
`is_int` (an `int`, never a `bool`) for every integer the package takes,
which `_integer` alone checks, range included, and `is_scalar` (an integer
or a `Fraction`) for every scalar, which `_scalar` alone converts; both
refuse anything else with `TypeError`.  Integer text has one reader,
`_integers`, and rational text one grammar, `_RATIONAL`.  So is what a
value is: every value type is a `FrozenRecord`, its fields read-only.
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
    "q_content_sum",
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


def is_int(value) -> bool:
    """Whether `value` is an integer of the library: an `int`, never a `bool`."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_scalar(value) -> bool:
    """Whether `value` is a scalar of the library: an integer (`is_int`) or a `Fraction`."""
    return is_int(value) or isinstance(value, Fraction)


def _integer(value, name: str, low: int | None = None, high: int | None = None) -> int:
    """A caller's integer argument, refused by name: a `TypeError` for whatever `is_int`
    refuses, a `ValueError` below `low` or above `high` (given only with `low`)."""
    if not is_int(value):
        raise TypeError(f"expected an integer {name}, got {type(value).__name__}")
    if low is not None and value < low or high is not None and value > high:
        bounds = f"be at least {low}" if high is None else f"lie in {low}..{high}"
        raise ValueError(f"{name} must {bounds}, got {value}")
    return value


_INTEGER_TEXT = re.compile(r"\s*[+-]?\d+\s*")  # the integers of `_TERM_RE` and `_RATIONAL_TEXT`
_RATIONAL = r"\d+(?:/\d*[1-9]\d*)?"  # p or p/q, q not 0: the coefficients of `_TERM_RE`, and a q0
_RATIONAL_TEXT = re.compile(rf"\s*[+-]?{_RATIONAL}\s*")  # `Fraction` alone also reads "1e100000"


def _integers(text: str, what: str) -> tuple[int, ...]:
    """Comma-separated integers, each an optional sign and digits with blanks around it.

    The one reader of integer text: anything else, "1_0" too, is a `ValueError` naming `what`.
    """
    parts = text.split(",")
    if not all(map(_INTEGER_TEXT.fullmatch, parts)):
        raise ValueError(f"cannot parse {what} {text!r}")
    return tuple(map(int, parts))


def _scalar(value) -> Scalar:
    """A caller's scalar in its stored form; whatever `is_scalar` refuses is a `TypeError`."""
    if type(value) is int:  # the common case, ahead of the full test
        return value
    if not is_scalar(value):
        raise TypeError(f"expected int or Fraction, got {type(value).__name__}")
    return int(value) if is_int(value) else _tidy(value)


def _tidy(c: Scalar) -> Scalar:
    """The stored form of a coefficient: an `int` whenever it is integral."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


class FrozenRecord:
    """A read-only record of the fields `__match_args__` names, given positionally.

    The base of every value type.  `==` holds only within one class, field by field; the
    hash is that of the tuple of fields, `_values`, and the repr names each field.  `_of` is
    the one trusted constructor, for fields already checked and in normal form; `copy` and
    `pickle` rebuild a record from its `_values` through it (`__reduce__`), unchecked.
    """

    __slots__ = ("_values",)

    def __init__(self, *fields):
        self._write(fields)

    @classmethod
    def _of(cls, *fields):
        record = cls.__new__(cls)
        record._write(fields)
        return record

    def _write(self, fields: tuple) -> None:
        """The one field writer of `__init__` and `_of`, past the refusing `__setattr__`."""
        object.__setattr__(self, "_values", fields)
        for name, value in zip(self.__match_args__, fields):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        return self._values == other._values if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__match_args__, self._values))
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return self._of, self._values


class SparseVector(FrozenRecord):
    """A finite map key -> nonzero rational coefficient.

    `_terms` holds the coefficients in normal form: no zero is stored,
    and a coefficient is an `int` when it is integral and a `Fraction`
    otherwise.  The linear operations and the text rule (`_render`) are
    written once here.  `_terms` is the last field, read from a caller by
    `_normal`; the fields before it name the vector's space, which `_like`
    keeps.  A subclass supplies `_coerce(other)`, which reads another
    vector or a scalar as such a vector, raises where the two cannot mix,
    and gives None where it cannot read `other` at all.
    """

    __slots__ = __match_args__ = ("_terms",)

    @staticmethod
    def _normal(terms: Mapping | Iterable[tuple] | None, key) -> dict:
        """A caller's terms, a mapping or (key, coefficient) pairs, in normal form, each key read by `key`."""
        items = () if terms is None else terms.items() if isinstance(terms, Mapping) else terms
        return SparseVector._collect((key(k), _scalar(c)) for k, c in items)

    @staticmethod
    def _collect(pairs: Iterable[tuple]) -> dict:
        """The normal form of (key, coefficient) pairs, summed by key.

        The coefficients must already be `int`s or `Fraction`s.
        """
        out: dict = {}
        for k, c in pairs:
            out[k] = out.get(k, 0) + c
        return {k: c if type(c) is int else _tidy(c) for k, c in out.items() if c}

    def _like(self, terms: dict):
        return self._of(*self._values[:-1], terms)

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
        return self._values == other._values

    @staticmethod
    def _render(pairs: Iterable[tuple[str, Scalar]]) -> str:
        """The text of a sum of (label, coefficient) terms, in the given order.

        An empty label is the constant term, a coefficient of +-1 drops its
        1, every term after the first carries its sign, the empty sum is "0".
        """
        parts: list[str] = []
        for label, c in pairs:
            if not label:
                text = str(c)
            elif c == 1:
                text = label
            elif c == -1:
                text = "-" + label
            else:
                text = f"{c}*{label}"
            parts.append("+" + text if c > 0 and parts else text)
        return "".join(parts) or "0"


_TERM_RE = re.compile(
    rf"""(?P<sign>[+-])?\s*
        (?:
            (?P<coeff>{_RATIONAL})\s*\*\s*q(?:\^(?P<exp1>[+-]?\d+))?
          | q(?:\^(?P<exp2>[+-]?\d+))?
          | (?P<const>{_RATIONAL})
        )\s*""",
    re.VERBOSE,
)


class _ExponentLabels(dict):
    """The label of q^e: "" for e = 0, "q" for e = 1, "q^e" otherwise; the first 1024 are kept."""

    def __missing__(self, e: int) -> str:
        label = "" if e == 0 else "q" if e == 1 else f"q^{e}"
        if len(self) < 1024:
            self[e] = label
        return label


_EXPONENT_LABELS = _ExponentLabels()


class LaurentPoly(SparseVector):
    """A Laurent polynomial in q: a `SparseVector` keyed by exponents of q.

    Exponents may be negative.  The zero polynomial is the empty map, and
    two polynomials are equal exactly when their term maps are equal.
    """

    __slots__ = ()

    @staticmethod
    def _key(exp: int) -> int:
        return _integer(exp, "exponent")

    # -- constructors -------------------------------------------------

    def __init__(self, terms: Mapping[int, Scalar] | Iterable[tuple[int, Scalar]] | None = None):
        super().__init__(self._normal(terms, self._key))

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls._of({})

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls._of({0: 1})

    @classmethod
    def q(cls) -> "LaurentPoly":
        return cls._of({1: 1})

    @classmethod
    def constant(cls, c: Scalar) -> "LaurentPoly":
        f = _scalar(c)
        return cls._of({0: f} if f else {})

    @classmethod
    def monomial(cls, exp: int, coeff: Scalar = 1) -> "LaurentPoly":
        e, f = cls._key(exp), _scalar(coeff)
        return cls._of({e: f} if f else {})

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
        pos = 0
        first = True
        pairs: list[tuple[int, Scalar]] = []
        while pos < len(s):
            m = _TERM_RE.match(s, pos)
            if m is None or m.end() == pos:
                raise PolynomialParseError(f"cannot parse {text!r} at position {pos}")
            if not first and m.group("sign") is None:
                raise PolynomialParseError(f"missing '+' or '-' before term at position {pos} in {text!r}")
            sign = -1 if m.group("sign") == "-" else 1
            const = m.group("const")
            exp = 0 if const else int(m.group("exp1") or m.group("exp2") or 1)
            raw = const or m.group("coeff") or "1"
            # an int unless written p/q: a Fraction for every term doubles the parse time
            pairs.append((exp, sign * (Fraction(raw) if "/" in raw else int(raw))))
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
            return LaurentPoly._of(out)
        if is_scalar(other):
            return self._scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        _integer(n, "power", 0)
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
        # Long division from the top down: each step clears the rest's coefficient at
        # d + top and subtracts that multiple of the divisor's lower terms in place.
        top = o.max_exp
        lead = o._terms[top]
        lower = [(e, b) for e, b in o._terms.items() if e != top]
        rest = dict(self._terms)
        quot: dict[int, Scalar] = {}
        for d in range(self.max_exp - top, self.min_exp - o.min_exp - 1, -1):
            c = rest.pop(d + top, 0)
            if c:
                c = quot[d] = _tidy(Fraction(c) / lead)
                for e, b in lower:
                    s = rest.get(d + e, 0) - c * b
                    if s:
                        rest[d + e] = s if type(s) is int else _tidy(s)
                    else:
                        del rest[d + e]
        if rest:
            raise NotDivisible(f"({self}) is not divisible by ({other})")
        return LaurentPoly._of(quot)

    def evaluate(self, q0: Scalar) -> Fraction:
        """Exact specialization at a nonzero rational q0.

        q0 is made a `Fraction` before any power is taken, so a negative
        exponent at an integer q0 still gives an exact value.
        """
        v = Fraction(_scalar(q0))
        if v == 0:
            raise ZeroSpecialization("cannot evaluate at q = 0")
        return sum((c * v**e for e, c in self._terms.items()), Fraction(0))

    def substitute_power(self, m: int) -> "LaurentPoly":
        """Apply q -> q^m (m a nonzero integer) by rescaling exponents."""
        if _integer(m, "substitution power") == 0:
            raise ValueError("substitution power must be nonzero")
        return LaurentPoly._of({e * m: c for e, c in self._terms.items()})

    # -- hash and text ------------------------------------------------

    def __hash__(self) -> int:
        # A constant equals its scalar under ==, so it must hash like it too.
        if not self._terms:
            return hash(0)
        if self._terms.keys() == {0}:
            return hash(self._terms[0])
        return hash(frozenset(self._terms.items()))

    def __str__(self) -> str:
        exps = sorted(self._terms, reverse=True)
        return self._render(zip(map(_EXPONENT_LABELS.__getitem__, exps), map(self._terms.__getitem__, exps)))

    def __repr__(self) -> str:
        return f"LaurentPoly({str(self)!r})"


def q_integer(k: int) -> LaurentPoly:
    """The q-integer [k]_q = (q^k - 1)/(q - 1), for any integer k.

    [k]_q = 1 + q + ... + q^(k-1) for k > 0, zero for k = 0, and
    -(q^-1 + q^-2 + ... + q^k) for k < 0.
    """
    if _integer(k, "k") > 0:
        return LaurentPoly._of(dict.fromkeys(range(k), 1))
    return LaurentPoly._of(dict.fromkeys(range(k, 0), -1))


def q_content(c: int) -> LaurentPoly:
    """The q-content q * [c]_q of a box with ordinary content c.

    Equals q + q^2 + ... + q^c for c > 0, zero for c = 0, and
    -(1 + q^-1 + ... + q^(c+1)) for c < 0.  At q = 1 it collapses to c.
    It is the content histogram {c: 1} read by `q_content_sum`.
    """
    return _q_content_sum({_integer(c, "c"): 1})


def q_content_sum(counts: Mapping[int, int]) -> LaurentPoly:
    """The sum of counts[c] * q_content(c) over integer contents c and counts; absent ones count zero."""
    return _q_content_sum({_integer(c, "content"): _integer(m, "count") for c, m in counts.items()})


def _q_content_sum(counts: Mapping[int, int]) -> LaurentPoly:
    """`q_content_sum` of integer contents and counts, unchecked.

    A content c > 0 adds q + ... + q^c and one c < 0 subtracts
    1 + q^-1 + ... + q^(c+1), so running sums give every coefficient: the
    coefficient of q^k is the total count of contents >= k for k >= 1,
    and minus the total count of contents <= k - 1 for k <= 0.  That
    costs O(max - min) whatever the counts are.
    """
    terms: dict[int, int] = {}
    above = below = 0
    for k in range(max(counts, default=0), 0, -1):
        above += counts.get(k, 0)
        if above:
            terms[k] = above
    for c in range(min(counts, default=0), 0):
        below += counts.get(c, 0)
        if below:
            terms[c + 1] = -below
    return LaurentPoly._of(terms)


def symmetric_bracket(x: int) -> LaurentPoly:
    """The symmetric bracket [x]_s = (q^x - q^-x)/(q - q^-1).

    Expands to q^(x-1) + q^(x-3) + ... + q^(1-x) for x > 0 and is odd
    in x.
    """
    sign = 1 if _integer(x, "x") > 0 else -1
    return LaurentPoly._of({abs(x) - 1 - 2 * i: sign for i in range(abs(x))})


def exp_series(p: LaurentPoly, order: int) -> tuple[Fraction, ...]:
    """Expand p(exp(delta)) as a series in delta, exactly, up to `order`.

    Returns the coefficients c_0..c_order of sum(c_k * delta^k); the
    coefficient of delta^k is sum over terms a_e * e^k / k!.
    """
    _integer(order, "series order", 0)
    return tuple(
        sum((c * Fraction(e**k, factorial(k)) for e, c in p._terms.items()), Fraction(0))
        for k in range(order + 1)
    )
