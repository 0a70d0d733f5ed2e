"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a dictionary mapping exponent tuples to nonzero Fraction
coefficients, so arithmetic, differentiation, evaluation, determinants of
polynomial matrices, and divisibility tests are all exact.  Monomials are
ordered in graded lexicographic order wherever they are enumerated or
printed; together with primitive normalization this gives every polynomial
a canonical, regression-stable representative.

Rationals become integers in one place: clear_denominators (numerators
over the lcm of the denominators) and primitive_vector (an integer vector
over its gcd, one entry made positive); every integer kernel uses them.

The hot kernels (MultiPoly multiplication and compose, the latter for
chart substitution before every numeric solve, and PolyMatrix det and
primitive_det for Weddle loci) pack every monomial into one int and
expand over the integers, building a MultiPoly only for the result:
multiplication and compose on dicts of packed monomials, det on integer
arrays of minors, int64 while a bound on every coefficient the next row can
reach proves that safe and Python ints from the first row where it does not.

What a determinant does with its monomials depends only on each row's
support, the sorted monomials of its entries: the packed basis of every
Laplace step, where each step's products land in the next basis, and the
monomials of the result.  That is a plan, built once per support pattern
by _det_plan and kept in an lru_cache of at most DET_PLAN_CACHE_SIZE plans,
whose arrays are read-only.  Each call clears its rows' denominators, picks
int64 or Python ints row by row, fills each row's coefficient table, and
runs one batched matrix product and one np.add.reduceat per row.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence

import numpy as np

Rat = Fraction
Monomial = tuple


def as_rat(value) -> Fraction:
    """Coerce an int, a string like '-3/2', or a Fraction to a Fraction.

    Floats are rejected on purpose: everything in this layer is exact.  So
    is bool, although it is an int subclass: a JSON true must not read as 1.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def as_int(value, name: str) -> int:
    """An integer read from an input record; anything else is a ValueError.

    A float is rejected rather than truncated, and bool too, although it is
    an int subclass: a JSON true must not read as 1.
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def as_vector(values, length: Optional[int] = None, what: str = "vector") -> tuple:
    """values as a tuple of as_rat Fractions, of the given length if any.
    A string or a dict is a ValueError: iterating '12' would read (1, 2)."""
    if isinstance(values, (str, dict)):
        raise ValueError(f"{what}: expected a sequence of numbers, got {values!r}")
    vector = tuple(map(as_rat, values))
    if length is not None and len(vector) != length:
        raise ValueError(f"{what}: expected {length} entries, got {len(vector)}")
    return vector


def as_matrix(rows, nrows: Optional[int] = None, ncols: Optional[int] = None,
              what: str = "matrix") -> tuple:
    """rows as a tuple of as_vector rows, of the given shape if any: the one
    coercion of every input matrix (quadrics, tensor faces, weight grids,
    point lists, records).  Messages are formatted only on error."""
    if isinstance(rows, (str, dict)):
        raise ValueError(f"{what}: expected a sequence of rows, got {rows!r}")
    matrix = tuple([as_vector(row, ncols, what) for row in rows])
    if nrows is not None and len(matrix) != nrows:
        raise ValueError(f"{what}: expected {nrows} rows, got {len(matrix)}")
    return matrix


def as_point(point, nvars: int) -> tuple:
    """A nonzero projective point with nvars coordinates, by as_vector."""
    pt = as_vector(point, what="point")
    if len(pt) != nvars:
        raise ValueError("point has wrong number of coordinates")
    if not any(pt):
        raise ValueError("projective point must be nonzero")
    return pt


def clear_denominators(values) -> tuple:
    """(numerators, lcm): the ints and Fractions of the collection values,
    each times lcm, the lcm of their denominators (1 when there are none),
    as a list of ints in the same order.  Each denominator is read once."""
    denominators = [q.denominator for q in values]
    lcm = math.lcm(*denominators)
    return [q.numerator * (lcm // d) for q, d in zip(values, denominators)], lcm


def primitive_vector(values: Sequence[int], lead: Optional[int] = None) -> Optional[tuple]:
    """The integer vector values divided by its gcd, with the sign that makes
    values[lead] positive (by default the first nonzero entry), as a tuple;
    None for the zero vector."""
    g = math.gcd(*values)
    if not g:
        return None
    if lead is None:
        lead = next(i for i, v in enumerate(values) if v)
    if values[lead] < 0:
        g = -g
    return tuple(v // g for v in values)


def grlex_key(mono: Monomial):
    """Sort key realizing graded lexicographic order (total degree first)."""
    return (sum(mono), mono)


class MultiPoly:
    """Immutable sparse polynomial in ``nvars`` variables over the rationals."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Optional[Mapping] = None):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        clean: dict = {}
        if terms:
            for mono, coeff in terms.items():
                c = as_rat(coeff)
                if c == 0:
                    continue
                key = tuple(mono)
                if len(key) != nvars or not all(type(e) is int and e >= 0 for e in key):
                    raise ValueError(f"bad exponent tuple {mono!r} for {nvars} variables")
                clean[key] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("MultiPoly is immutable")

    # ---- constructors ----

    @classmethod
    def _canonical(cls, nvars: int, terms: dict) -> "MultiPoly":
        """The MultiPoly with exactly these terms, which must already be
        canonical (exponent tuples of nvars nonnegative ints, nonzero
        Fraction coefficients): nothing is checked or coerced."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "nvars", nvars)
        object.__setattr__(poly, "terms", terms)
        return poly

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: as_rat(value)})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "MultiPoly":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} variables")
        mono = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {mono: Fraction(1)})

    @classmethod
    def monomial(cls, nvars: int, exponents: Sequence[int], coeff=1) -> "MultiPoly":
        return cls(nvars, {tuple(exponents): as_rat(coeff)})

    # ---- basic queries ----

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Maximum total degree of a term; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self, degree: Optional[int] = None) -> bool:
        """True if all terms share one total degree (zero counts as homogeneous)."""
        if not self.terms:
            return True
        degrees = {sum(m) for m in self.terms}
        if len(degrees) != 1:
            return False
        return degree is None or degrees == {degree}

    def coefficient(self, mono: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(mono), Fraction(0))

    def leading_monomial(self) -> Optional[Monomial]:
        if not self.terms:
            return None
        return max(self.terms, key=grlex_key)

    def leading_coefficient(self) -> Fraction:
        lm = self.leading_monomial()
        return Fraction(0) if lm is None else self.terms[lm]

    def sorted_terms(self) -> Iterator:
        """Terms in descending graded lexicographic order."""
        for mono in sorted(self.terms, key=grlex_key, reverse=True):
            yield mono, self.terms[mono]

    # ---- ring operations ----

    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if other.nvars != self.nvars:
                raise ValueError("operands live in different polynomial rings")
            return other
        return MultiPoly.constant(self.nvars, other)

    def __add__(self, other) -> "MultiPoly":
        # Both operands are canonical and zero sums are dropped, so the
        # sum's terms are canonical as built.
        other = self._coerce(other)
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            if mono in terms:
                s = terms[mono] + c
                if s:
                    terms[mono] = s
                else:
                    del terms[mono]
            else:
                terms[mono] = c
        return MultiPoly._canonical(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._canonical(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "MultiPoly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        if other.nvars != self.nvars:
            raise ValueError("operands live in different polynomial rings")
        # Packed over the integers like compose; fields hold the product's degree.
        width = (self.total_degree() + other.total_degree()).bit_length()
        a, lcm_a = _packed(self, width)
        b, lcm_b = _packed(other, width)
        return _unpacked(self.nvars, width, _add_product({}, a, b), lcm_a * lcm_b)

    def __rmul__(self, other) -> "MultiPoly":
        return self.scale(other)

    def scale(self, value) -> "MultiPoly":
        """Multiply by a rational; a nonzero factor keeps the terms canonical."""
        c = as_rat(value)
        if c == 0:
            return MultiPoly(self.nvars)
        return MultiPoly._canonical(self.nvars, {m: c * v for m, v in self.terms.items()})

    def __pow__(self, n: int) -> "MultiPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = MultiPoly.constant(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, MultiPoly):
            return self.nvars == other.nvars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == MultiPoly.constant(self.nvars, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # ---- calculus and evaluation ----

    def diff(self, var: int) -> "MultiPoly":
        if not 0 <= var < self.nvars:
            raise ValueError("variable index out of range")
        terms = {}
        for mono, c in self.terms.items():
            e = mono[var]
            if e == 0:
                continue
            new = list(mono)
            new[var] = e - 1
            terms[tuple(new)] = c * e
        return MultiPoly._canonical(self.nvars, terms)

    def gradient(self) -> list:
        return [self.diff(i) for i in range(self.nvars)]

    def evaluate(self, point: Sequence) -> Fraction:
        """The value at point, coerced by as_vector (zero is a point here)."""
        pt = as_vector(point, what="point")
        if len(pt) != self.nvars:
            raise ValueError("point has wrong number of coordinates")
        total = Fraction(0)
        for mono, c in self.terms.items():
            value = c
            for x, e in zip(pt, mono):
                if e:
                    value *= x**e
            total += value
        return total

    def compose(self, args: Sequence["MultiPoly"]) -> "MultiPoly":
        """Substitute args[i] for variable i; args live in a common ring.

        Runs over the integers on packed monomials, like PolyMatrix.det:
        each argument is multiplied by the lcm L_i of its coefficient
        denominators and packed (see _packed), with fields wide enough for
        deg(self) times the largest argument degree.  A term c * x^e of
        self then contributes c * prod L_i^(E_i - e_i) * prod (L_i g_i)^e_i,
        where E_i is the largest exponent of variable i in self, so every
        term shares the denominator prod L_i^E_i.  The powers of each
        scaled argument are cached as packed dicts, every term accumulates
        into one dict, and one MultiPoly is built at the end.
        """
        if len(args) != self.nvars:
            raise ValueError("need one substitution polynomial per variable")
        if not args:
            raise ValueError("composition needs at least one variable")
        out_vars = args[0].nvars
        if any(g.nvars != out_vars for g in args):
            raise ValueError("substitution polynomials live in different rings")
        if not self.terms:
            return MultiPoly(out_vars)
        width = (self.total_degree() * max(0, *(g.total_degree() for g in args))).bit_length()
        top = [max(mono[i] for mono in self.terms) for i in range(self.nvars)]
        packed = [_packed(g, width) for g in args]
        lcms = [lcm for _, lcm in packed]
        # powers[i][e]: (L_i * g_i)^e as a packed dict.
        powers = []
        for (scaled, _), e in zip(packed, top):
            powers.append([{0: 1}])
            for _ in range(e):
                powers[-1].append(_add_product({}, powers[-1][-1], scaled))

        numerators, self_lcm = clear_denominators(self.terms.values())
        denominator = self_lcm * math.prod(lcm**e for lcm, e in zip(lcms, top))
        total: dict = {}
        for mono, c in zip(self.terms, numerators):
            factor = c * math.prod(lcm ** (t - e) for lcm, t, e in zip(lcms, top, mono))
            # The largest power is multiplied last, straight into total.
            parts = sorted((powers[i][e] for i, e in enumerate(mono) if e), key=len)
            part = {0: factor}
            for other in parts[:-1]:
                part = _add_product({}, part, other)
            _add_product(total, part, parts[-1] if parts else {0: 1})
        return _unpacked(out_vars, width, total, denominator)

    # ---- normalization ----

    def content(self) -> Fraction:
        """gcd of the coefficients (positive), 0 for the zero polynomial."""
        numerators, lcm = clear_denominators(self.terms.values())
        return Fraction(math.gcd(*numerators), lcm)

    def primitive_normalized(self) -> "MultiPoly":
        """Divide by the content and fix the sign so the graded-lex leading
        coefficient is positive.  Zero maps to zero."""
        numerators, _ = clear_denominators(self.terms.values())
        return _primitive_poly(self.nvars, list(self.terms), numerators)

    def proportional(self, other: "MultiPoly") -> bool:
        """True when the two polynomials agree up to a nonzero scalar."""
        if self.nvars != other.nvars:
            return False
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        return self.primitive_normalized() == other.primitive_normalized()

    # ---- printing ----

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for index, (mono, coeff) in enumerate(self.sorted_terms()):
            body = _term_body(mono, coeff)
            if index == 0:
                pieces.append(body if coeff > 0 else "-" + body)
            else:
                pieces.append((" + " if coeff > 0 else " - ") + body)
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"MultiPoly({self.nvars}, {self})"


def _primitive_poly(nvars: int, monomials: list, values: list, lead: Optional[int] = None) -> MultiPoly:
    """The MultiPoly with the integer values on the monomials, divided by
    their gcd with the graded-lex leading coefficient made positive.  lead,
    when given, is the index of the graded-lex largest monomial."""
    if lead is None and monomials:
        lead = monomials.index(max(monomials, key=grlex_key))
    values = primitive_vector(values, lead) or ()
    return MultiPoly._canonical(nvars, {m: Fraction(v) for m, v in zip(monomials, values)})


def _term_body(mono: Monomial, coeff: Fraction) -> str:
    """Render one term without its sign."""
    c = abs(coeff)
    factors = []
    for i, e in enumerate(mono):
        if e == 1:
            factors.append(f"x{i}")
        elif e > 1:
            factors.append(f"x{i}^{e}")
    if not factors:
        return str(c)
    if c != 1:
        factors.insert(0, str(c))
    return "*".join(factors)


# ---- parsing ----

_TOKEN = re.compile(r"\s*(?:(?P<frac>\d+/\d+)|(?P<int>\d+)|(?P<var>x\d+)|(?P<op>[\^*+\-]))")


def _tokenize(text: str) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ValueError(f"unexpected character at {text[pos:pos + 12]!r}")
        pos = m.end()
        if m.lastgroup == "frac":
            tokens.append(("num", Fraction(m.group("frac"))))
        elif m.lastgroup == "int":
            tokens.append(("num", Fraction(m.group("int"))))
        elif m.lastgroup == "var":
            tokens.append(("var", int(m.group("var")[1:])))
        else:
            tokens.append(("op", m.group("op")))
    return tokens


def parse_poly(text: str, nvars: Optional[int] = None) -> MultiPoly:
    """Parse the canonical text format, e.g. ``-121/48*x1 + x2^2``.

    The variable count is inferred from the largest variable index unless
    given explicitly.  Inverse to ``str`` up to canonical term order.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty polynomial text")
    max_index = max((t[1] for t in tokens if t[0] == "var"), default=-1)
    if nvars is None:
        nvars = max_index + 1
    elif max_index >= nvars:
        raise ValueError(f"variable x{max_index} exceeds declared nvars={nvars}")

    terms: dict = {}
    pos = 0

    def parse_factor():
        nonlocal pos
        if pos == len(tokens):
            raise ValueError("unexpected end of polynomial text")
        kind, value = tokens[pos]
        if kind == "num":
            pos += 1
            return value, None
        if kind == "var":
            pos += 1
            exponent = 1
            if pos + 1 < len(tokens) and tokens[pos] == ("op", "^") and tokens[pos + 1][0] == "num":
                exp = tokens[pos + 1][1]
                if exp.denominator != 1 or exp < 0:
                    raise ValueError("exponent must be a nonnegative integer")
                exponent = int(exp)
                pos += 2
            return None, (value, exponent)
        raise ValueError(f"unexpected token {tokens[pos]!r}")

    def parse_term(sign: int):
        nonlocal pos
        coeff = Fraction(sign)
        exps = [0] * nvars
        while True:
            num, var = parse_factor()
            if num is not None:
                coeff *= num
            else:
                index, exponent = var
                exps[index] += exponent
            if pos < len(tokens) and tokens[pos] == ("op", "*"):
                pos += 1
                continue
            break
        key = tuple(exps)
        terms[key] = terms.get(key, Fraction(0)) + coeff

    sign = 1
    if tokens[pos] == ("op", "-"):
        sign = -1
        pos += 1
    elif tokens[pos] == ("op", "+"):
        pos += 1
    parse_term(sign)
    while pos < len(tokens):
        kind, value = tokens[pos]
        if kind != "op" or value not in "+-":
            raise ValueError(f"expected '+' or '-' before {tokens[pos]!r}")
        pos += 1
        parse_term(1 if value == "+" else -1)
    return MultiPoly(nvars, terms)


# ---- linear forms ----

@lru_cache(maxsize=None)
def _unit_monomials(nvars: int) -> tuple:
    """The exponent tuples of x_0, ..., x_{nvars-1}."""
    return tuple(tuple(1 if j == i else 0 for j in range(nvars)) for i in range(nvars))


def linear_form(nvars: int, coeffs: Sequence) -> MultiPoly:
    """Build sum(coeffs[i] * x_i).

    Each coefficient goes through as_rat, so a float or a bool raises
    TypeError, and a vector whose length is not nvars raises ValueError.
    The terms are canonical as built (cached unit monomials, nonzero
    Fractions), so they are not validated again.
    """
    if len(coeffs) != nvars:
        raise ValueError("coefficient vector has wrong length")
    terms = {}
    for mono, c in zip(_unit_monomials(nvars), coeffs):
        c = as_rat(c)
        if c:
            terms[mono] = c
    return MultiPoly._canonical(nvars, terms)


def linear_coefficients(form: MultiPoly) -> list:
    """Coefficient vector of a homogeneous linear form (error otherwise)."""
    if form.is_zero() or not form.is_homogeneous(1):
        raise ValueError("expected a nonzero homogeneous linear form")
    coeffs = [Fraction(0)] * form.nvars
    for mono, c in form.terms.items():
        coeffs[mono.index(1)] = c
    return coeffs


def divides(form: MultiPoly, poly: MultiPoly) -> Optional[MultiPoly]:
    """Exact quotient poly / form for a nonzero homogeneous linear form,
    or None when the division leaves a remainder.

    Write form = c * (x_p - s) with s free of x_p.  Substituting
    x_p -> x_p + s turns form into c * x_p, so poly divides exactly when
    every term of its image has x_p; the quotient is that image with x_p
    lowered by one and divided by c, substituted back by x_p -> x_p - s.
    """
    if form.nvars != poly.nvars:
        raise ValueError("operands live in different polynomial rings")
    coeffs = linear_coefficients(form)
    pivot = next(i for i, c in enumerate(coeffs) if c)
    c = coeffs[pivot]
    variables = [MultiPoly.variable(poly.nvars, i) for i in range(poly.nvars)]
    s = variables[pivot] - form.scale(1 / c)

    def shift(q: MultiPoly, sign: int) -> MultiPoly:
        return q.compose([v + sign * s if i == pivot else v for i, v in enumerate(variables)])

    image = shift(poly, 1)
    if any(mono[pivot] == 0 for mono in image.terms):
        return None
    lowered = {
        mono[:pivot] + (mono[pivot] - 1,) + mono[pivot + 1 :]: coeff / c
        for mono, coeff in image.terms.items()
    }
    return shift(MultiPoly(poly.nvars, lowered), -1)


def projectively_equal(p: Sequence, q: Sequence) -> bool:
    """True when two nonzero coordinate vectors span the same line: when
    their primitive integer vectors agree."""
    pv = as_point(p, len(p))
    qv = as_point(q, len(pv))
    return primitive_vector(clear_denominators(pv)[0]) == primitive_vector(clear_denominators(qv)[0])


# ---- packed integer polynomials ----
#
# The exact kernels pack a monomial into one int: variable i takes the bits
# from i*width, where width is the bit length of a bound on every exponent
# the kernel can reach, so a product of monomials is one int addition that
# never carries into the next field.  MultiPoly multiplication and compose
# work on dicts from a packed monomial to an int coefficient, built by the
# helpers below.  PolyMatrix.det's plan keeps the packed monomials it
# reaches in sorted arrays, and each call the coefficients of its minors in
# a 2-D integer array over them.


def _packed(poly: MultiPoly, width: int) -> tuple:
    """(packed, lcm): poly times lcm, the lcm of its coefficient
    denominators, as a packed integer dict."""
    numerators, lcm = clear_denominators(poly.terms.values())
    return {
        sum(e << (width * i) for i, e in enumerate(m)): c for m, c in zip(poly.terms, numerators)
    }, lcm


def _add_product(total: dict, a: dict, b: dict) -> dict:
    """Add the product of the packed polynomials a and b into total, and
    return total.  Coefficients that cancel stay in as zeros."""
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = m1 + m2
            total[m] = total.get(m, 0) + c1 * c2
    return total


def _unpacked(nvars: int, width: int, terms: dict, denominator: int) -> MultiPoly:
    """The MultiPoly of a packed integer dict, divided by denominator.  Its
    terms are canonical as built, so they are not validated again."""
    field = (1 << width) - 1
    return MultiPoly._canonical(nvars, {
        tuple((m >> (width * i)) & field for i in range(nvars)): Fraction(c, denominator)
        for m, c in terms.items()
        if c
    })


# ---- matrices of polynomials ----

MAX_DET_SIZE = 8


@lru_cache(maxsize=None)
def _laplace_step(n: int, k: int) -> tuple:
    """Index tables for extending the k-row minors of an n-column matrix by
    row k, with the column subsets in lexicographic order.

    subsets[s, j] is the index of the k-subset left when the j-th smallest
    column is removed from the (k+1)-subset s, columns[s, j] is that
    column, and signs[j] is the Laplace sign (-1)^(k+j) of row k at
    position j, shaped to broadcast over the entry monomials.  The cached
    tables are shared by every call, so they are read-only.
    """
    before = {cols: i for i, cols in enumerate(combinations(range(n), k))}
    after = list(combinations(range(n), k + 1))
    subsets = np.array(
        [[before[cols[:j] + cols[j + 1:]] for j in range(k + 1)] for cols in after], np.intp
    )
    signs = np.array([[(-1) ** (k + j)] for j in range(k + 1)])
    tables = (subsets, np.array(after, np.intp), signs)
    for table in tables:
        table.setflags(write=False)
    return tables


# The most plans _det_plan keeps.  A plan holds int32 arrays of the size of
# its packed bases and the last basis's exponent tuples: about 0.25 MB for a
# size-7 matrix of linear forms in 7 variables and 1 MB at size 8.  The
# exact workloads reach a handful of row-support patterns.
DET_PLAN_CACHE_SIZE = 32


class _DetPlan(NamedTuple):
    """The structure of a determinant whose rows have given supports."""

    columns: tuple  # per row: {monomial: its column in the row's table}
    steps: tuple  # per row: (order, starts) that add its products into the next basis
    monomials: tuple  # the last basis as exponent tuples
    grlex: np.ndarray  # the rank of each of them in graded-lex order


@lru_cache(maxsize=DET_PLAN_CACHE_SIZE)
def _det_plan(nvars: int, supports: tuple) -> _DetPlan:
    """The plan of PolyMatrix._integer_det for a matrix in nvars variables
    whose row k holds the monomials supports[k], a sorted tuple of
    exponent tuples; the size is len(supports).

    Monomials are packed (see the packed integer polynomials above) with
    fields as wide as the bit length of the determinant's degree bound, the
    sum over rows of the row's largest degree; they are int64 when every
    one fits in 63 bits and Python ints otherwise.  The basis of step k is
    the sorted packed monomials the minors of the first k rows can reach
    (the first is {0}).  Step k's products are laid out as (support
    monomial, basis monomial) pairs, flattened; the pair lands on the sum
    of the two packed monomials in the next basis.  order sorts the pairs
    by where they land, and starts marks the first pair of each monomial
    of the next basis, so np.add.reduceat over the products taken in that
    order builds the next minors.  The plan is shared by every call, so
    its arrays are read-only.
    """
    width = sum(max(map(sum, support)) for support in supports).bit_length()
    offsets = [width * i for i in range(nvars)]
    packed = np.int64 if nvars * width <= 63 else object
    basis = np.zeros(1, packed)
    steps = []
    for support in supports:
        keys = np.array([sum(e << offset for e, offset in zip(mono, offsets)) for mono in support], packed)
        shifted = (keys.reshape(-1, 1) + basis).reshape(-1)
        # Sorted and deduplicated by hand: np.unique's hash table costs
        # about a megabyte of resident memory on first use.
        order = np.argsort(shifted)
        flat = shifted[order]
        starts = np.flatnonzero(np.concatenate(([True], flat[1:] != flat[:-1])))
        basis = flat[starts]
        steps.append((order.astype(np.int32), starts.astype(np.int32)))
    exponents = ((basis.reshape(-1, 1) >> np.array(offsets, packed)) & ((1 << width) - 1)).astype(np.int64)
    # np.lexsort sorts by its last key first: degree, then x_0, x_1, ...
    grlex = np.empty(len(basis), np.int32)
    grlex[np.lexsort((*exponents.T[::-1], exponents.sum(axis=1)))] = np.arange(len(basis))
    for array in (grlex, *(a for step in steps for a in step)):
        array.setflags(write=False)
    return _DetPlan(
        tuple({mono: d for d, mono in enumerate(support)} for support in supports),
        tuple(steps),
        tuple(map(tuple, exponents.tolist())),
        grlex,
    )


class PolyMatrix:
    """Square matrix of MultiPoly entries with an exact determinant."""

    __slots__ = ("nvars", "entries")

    def __init__(self, nvars: int, entries: Sequence[Sequence[MultiPoly]]):
        rows = tuple(tuple(row) for row in entries)
        for row in rows:
            if len(row) != len(rows):
                raise ValueError("matrix must be square")
            for e in row:
                if not isinstance(e, MultiPoly) or e.nvars != nvars:
                    raise ValueError("entries must be MultiPoly over the same ring")
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("PolyMatrix is immutable")

    @property
    def size(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int) -> MultiPoly:
        return self.entries[i][j]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyMatrix)
            and self.nvars == other.nvars
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.nvars, self.entries))

    def scale(self, value) -> "PolyMatrix":
        return PolyMatrix(self.nvars, [[e.scale(value) for e in row] for row in self.entries])

    def det(self) -> MultiPoly:
        """The determinant, by _integer_det's cofactor expansion."""
        monomials, _, values, denominator = self._integer_det()
        if denominator == 1:
            terms = {m: Fraction(c) for m, c in zip(monomials, values)}
        else:
            terms = {m: Fraction(c, denominator) for m, c in zip(monomials, values)}
        return MultiPoly._canonical(self.nvars, terms)

    def primitive_det(self) -> MultiPoly:
        """det().primitive_normalized(), with the gcd and the sign taken on
        the integer coefficients, so each coefficient becomes a Fraction once."""
        monomials, grlex, values, _ = self._integer_det()
        if not values:
            return MultiPoly._canonical(self.nvars, {})
        return _primitive_poly(self.nvars, monomials, values, int(grlex.argmax()))

    def _integer_det(self) -> tuple:
        """(monomials, grlex, values, denominator): the determinant times
        the positive integer denominator, as the list of its terms' exponent
        tuples in ascending order of packed monomial, an int array of their
        ranks in graded-lex order (its argmax is the leading term), and the
        list of the terms' nonzero int coefficients, in the same order.

        Division-free cofactor expansion, exact over the integers, in two
        parts: a plan that depends only on which monomials each row holds,
        and a numeric pass per call.  The plan is _det_plan's, keyed on
        nvars and each row's support (the sorted monomials of its entries,
        so the order in which an entry lists its terms does not matter); a
        miss builds it, then runs the same numeric pass.  At most
        DET_PLAN_CACHE_SIZE plans are kept, and their arrays are read-only.

        Per call, each row's coefficients are cleared by
        clear_denominators.  The minors of the first k rows are one 2-D
        integer array, with a row per k-subset of the columns and a column
        per monomial of the plan's basis for that step.  Row k's
        coefficients fill a table with a row per entry column and a column
        per monomial of the row's support (the plan's monomial -> column
        map), and one batched matrix product (see _laplace_step) gives, for
        each (k+1)-subset and each monomial of row k, the signed
        coefficients of that monomial on the subset's k+1 columns times the
        minors of the k-subsets left when one of those columns is removed.
        The plan's permutation and segment starts for step k add the
        products that land on one monomial of the next basis with one
        np.add.reduceat.  The last minor's zero coefficients are dropped
        and the rest take their monomials from the plan; the denominator
        is the product of the row lcms.

        Overflow: each coefficient of a minor of the first k+1 rows, and
        each partial sum that builds one, is a signed sum of products of
        a coefficient of row k with a coefficient of a minor of the first
        k rows, each pair at most once, so it is at most M_k times the l1
        norm of row k (the sum of the absolute values of all its scaled
        coefficients), where M_k is the largest |coefficient| among the
        minors of the first k rows (M_0 = 1).  The coefficients stay int64
        while max(M_k, 1) times that l1 norm is below 2^63 (the 1 covers
        row k's own coefficients, which are at most its l1 norm), and
        become Python ints (dtype object) at the first row where it is
        not.  M_k is at most the product of the l1 norms of the rows
        before k, so the minors are searched for M_k only at a row where
        that product is too large to pass the test; on Weddle matrices it
        is about 2^30 looser than M_k at size 8.  A zero row gives zero at
        once.  Sizes above MAX_DET_SIZE are refused rather than silently
        taking forever.
        """
        n = self.size
        if n > MAX_DET_SIZE:
            raise ValueError(f"determinant limited to size {MAX_DET_SIZE}")
        denominator = 1
        rows = []
        supports = []
        for row in self.entries:
            support = sorted({mono for entry in row for mono in entry.terms})
            if not support:
                return [], np.zeros(0, np.int32), [], 1  # a zero row
            values, lcm = clear_denominators([c for entry in row for c in entry.terms.values()])
            denominator *= lcm
            rows.append((values, sum(map(abs, values))))
            supports.append(tuple(support))
        plan = _det_plan(self.nvars, tuple(supports))

        dtype = np.int64
        top = 1  # at least max(M_k, 1): a product of row norms, or measured
        minors = np.ones((1, 1), dtype)
        for k, (row, (values, norm), index, (order, starts)) in enumerate(
            zip(self.entries, rows, plan.columns, plan.steps)
        ):
            if dtype is np.int64 and top * norm >= 2**63:
                top = max(int(np.abs(minors).max()), 1)
                if top * norm >= 2**63:
                    dtype = object
                    minors = minors.astype(object)
            top *= norm
            nmono = len(index)
            table = np.zeros((n, nmono), dtype)
            places = [col * nmono + index[mono] for col, entry in enumerate(row) for mono in entry.terms]
            table.reshape(-1)[places] = values
            subsets, columns, signs = _laplace_step(n, k)
            # products[s, d, b]: the Laplace sum over the columns of subset s
            # of row k's coefficient of monomial d times the old minors'
            # coefficient of basis monomial b.
            products = (table[columns] * signs).transpose(0, 2, 1) @ minors[subsets]
            minors = np.add.reduceat(products.reshape(len(subsets), -1)[:, order], starts, axis=1)

        nonzero = np.flatnonzero(minors[0])
        monomials = plan.monomials
        return (
            [monomials[i] for i in nonzero.tolist()],
            plan.grlex[nonzero],
            minors[0, nonzero].tolist(),
            denominator,
        )

    def __repr__(self) -> str:
        rows = "; ".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.entries)
        return f"PolyMatrix({self.size}x{self.size}: {rows})"
