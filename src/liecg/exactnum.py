"""Exact arithmetic in the field generated by square roots of integers.

Elements are rational linear combinations of square roots of non-negative
integers, e.g. 3 - 2*sqrt(6) + 1/2*sqrt(10), with no denominator: the
inverse of such a sum is again one (multiply by conjugates until the
divisor is rational), so division rationalizes and a quotient literal
(a)/(b) is read as a/b.  Sums are kept in a canonical form: every radicand
is square-free, the rational part is the radicand-1 term, and zero
coefficients are dropped.  Because square roots of distinct square-free
integers are linearly independent over the rationals, two elements are
equal exactly when their canonical forms are, and the form is empty exactly
when the value is zero, which makes equality and sign tests decidable.

One class, FieldElem, holds that form as its terms, a dict from radicand
to nonzero Fraction coefficient; callers that work per radical class read
and build the dict directly.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

__all__ = [
    "FieldElem",
    "FieldSqrtError",
    "number",
    "field",
    "field_sqrt",
    "parse_field",
    "ZERO",
    "ONE",
]


class FieldSqrtError(ArithmeticError):
    """Square root of the given value does not lie in the field."""


# the largest radicand parse_field reads: factoring it takes at most about
# 5*10**5 trial divisions, so bad input fails fast instead of hanging
MAX_RADICAND = 10**18

_square_free_cache: dict[int, tuple[int, int]] = {0: (1, 0), 1: (1, 1)}


def _square_free(n: int) -> tuple[int, int]:
    """Split n >= 0 as s*s*f with f square-free; returns (s, f)."""
    try:
        return _square_free_cache[n]
    except KeyError:
        pass
    s, f, m, d = 1, 1, n, 2
    while d * d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            if e % 2:
                f *= d
            s *= d ** (e // 2)
        d += 1 if d == 2 else 2
    # m has no prime factor below d and m < d**3: it is 1, p, p*q or p*p
    r = math.isqrt(m)
    if r * r == m:
        s *= r
    else:
        f *= m
    _square_free_cache[n] = (s, f)
    return (s, f)


class FieldElem:
    """An element of the field: a rational linear combination of square
    roots of integers.

    Stored as a mapping radicand -> rational coefficient with square-free
    radicands; the radicand 1 carries the rational part.  There is no
    denominator to carry: invert clears the radicals of a divisor by
    conjugation, and a value has exactly one representation.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, Fraction] | None = None):
        # terms is trusted to be canonical; use make() for raw input
        self.terms = terms or {}

    @classmethod
    def make(cls, items) -> "FieldElem":
        """Build from (radicand, coefficient) pairs, canonicalizing."""
        terms: dict[int, Fraction] = {}
        for n, c in items:
            if n < 0:
                raise ValueError("negative radicand %r" % (n,))
            c = Fraction(c)
            if not c:
                continue
            s, f = _square_free(n)
            if f == 0:
                continue
            c *= s
            acc = terms.get(f)
            acc = c if acc is None else acc + c
            if acc:
                terms[f] = acc
            elif f in terms:
                del terms[f]
        return cls(terms)

    # the benchmark's coefficient probe reads x.num.terms and x.den.terms;
    # num is the element itself and den (set below) the constant ONE
    @property
    def num(self) -> "FieldElem":
        return self

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def sign(self) -> int:
        """Exact sign: canonical emptiness decides zero, dyadic intervals
        around each radical decide the rest."""
        if not self.terms:
            return 0
        if len(self.terms) == 1:
            ((f, c),) = self.terms.items()
            return 1 if c > 0 else -1
        k = 32
        while True:
            lo = hi = Fraction(0)
            for f, c in self.terms.items():
                if f == 1:
                    lo += c
                    hi += c
                    continue
                t = math.isqrt(f << (2 * k))
                flo = Fraction(t, 1 << k)
                fhi = Fraction(t + 1, 1 << k)
                if c >= 0:
                    lo += c * flo
                    hi += c * fhi
                else:
                    lo += c * fhi
                    hi += c * flo
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            k *= 2

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "FieldElem") -> "FieldElem":
        if not self.terms:
            return other
        if not other.terms:
            return self
        terms = dict(self.terms)
        for f, c in other.terms.items():
            acc = terms.get(f)
            if acc is None:
                terms[f] = c
            else:
                acc = acc + c
                if acc:
                    terms[f] = acc
                else:
                    del terms[f]
        return FieldElem(terms)

    def __neg__(self) -> "FieldElem":
        return FieldElem({f: -c for f, c in self.terms.items()})

    def __sub__(self, other: "FieldElem") -> "FieldElem":
        return self + (-other)

    def __mul__(self, other: "FieldElem") -> "FieldElem":
        if not self.terms or not other.terms:
            return ZERO
        terms: dict[int, Fraction] = {}
        for f1, c1 in self.terms.items():
            for f2, c2 in other.terms.items():
                f, g = _mul_class(f1, f2)
                c = c1 * c2 * g
                acc = terms.get(f)
                acc = c if acc is None else acc + c
                if acc:
                    terms[f] = acc
                elif f in terms:
                    del terms[f]
        return FieldElem(terms)

    def invert(self) -> "FieldElem":
        """1/self as a sum of radicals: multiply 1/den by conjugates, each
        clearing one prime from the radicands of den, until den is rational."""
        if not self.terms:
            raise ZeroDivisionError("inverting zero")
        if len(self.terms) == 1:
            ((f, c),) = self.terms.items()
            # 1/(c*sqrt(f)) = sqrt(f)/(c*f)
            return FieldElem({f: 1 / (c * f)})
        num, den = ONE, self
        while len(den.terms) > 1 or 1 not in den.terms:
            f0 = min(f for f in den.terms if f > 1)
            p = 2
            while f0 % p:
                p += 1 if p == 2 else 2
                if p * p > f0:
                    p = f0  # square-free with no small factor: prime
                    break
            # den = a + sqrt(p)*b; the conjugate a - sqrt(p)*b removes p
            conj = FieldElem(
                {f: -c if f % p == 0 else c for f, c in den.terms.items()})
            num = num * conj
            den = den * conj
        k = 1 / den.terms[1]
        return FieldElem({f: c * k for f, c in num.terms.items()})

    def __truediv__(self, other: "FieldElem") -> "FieldElem":
        return self * other.invert()

    # -- comparison ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    # -- rendering -----------------------------------------------------

    def plain(self) -> str:
        return self.render("plain")

    def render(self, fmt: str = "plain") -> str:
        return _render_terms(
            [(f, c.numerator, c.denominator)
             for f, c in sorted(self.terms.items())], fmt)

    def __repr__(self) -> str:
        return self.plain()


# _render_terms also renders the coefficients multitensor.untree reads off
# its integer expansions; like _sqrt below it stays out of __all__

def _render_terms(terms, fmt: str = "plain") -> str:
    """The sum of p/q*sqrt(f) over the (f, p, q) in terms, in increasing f,
    each p/q nonzero and in lowest terms with q > 0; "0" when empty."""
    try:
        term_fn, plus, minus = _STYLES[fmt]
    except KeyError:
        raise ValueError("unknown format %r" % (fmt,)) from None
    if not terms:
        return "0"
    parts = []
    for f, p, q in terms:
        sign = (minus if p < 0 else plus) if parts else ("-" if p < 0 else "")
        parts.append(sign + term_fn(abs(p), q, f))
    return "".join(parts)


# each term function renders p/q*sqrt(f) for p, q > 0

def _frac_str(p: int, q: int) -> str:
    return str(p) if q == 1 else "%d/%d" % (p, q)


def _plain_term(p: int, q: int, f: int) -> str:
    return _frac_str(p, q) + ("" if f == 1 else "*sqrt(%d)" % f)


def _mma_term(p: int, q: int, f: int) -> str:
    if f == 1:
        return _frac_str(p, q)
    s = "Sqrt[%d]" % f
    if p != 1:
        s = "%d*%s" % (p, s)
    if q != 1:
        s = "%s/%d" % (s, q)
    return s


def _tex_term(p: int, q: int, f: int) -> str:
    root = "" if f == 1 else "\\sqrt{%d}" % f
    if q == 1:
        coef = "" if (p == 1 and root) else str(p)
        return coef + root
    return "\\frac{%d%s}{%d}" % (p, root, q)


_STYLES = {
    "plain": (_plain_term, "+", "-"),
    "tex": (_tex_term, " + ", " - "),
    "mathematica": (_mma_term, " + ", " - "),
}


ZERO = FieldElem()
ONE = FieldElem({1: Fraction(1)})
FieldElem.den = ONE


# _mul_class, _sqrt and _times_sqrt serve the rational forms; they stay out
# of __all__ and so out of the package namespace

def _mul_class(f1: int, f2: int) -> tuple[int, int]:
    """(f, g) with sqrt(f1)*sqrt(f2) == g*sqrt(f), for square-free f1, f2:
    g = gcd(f1, f2) and f = (f1/g)*(f2/g), again square-free."""
    g = math.gcd(f1, f2)
    return (f1 // g) * (f2 // g), g


def _sqrt(x):
    """(f, k) with sqrt(x) == k*sqrt(f), for a rational x > 0."""
    x = Fraction(x)
    s, f = _square_free(x.numerator * x.denominator)
    return f, Fraction(s, x.denominator)


def _times_sqrt(q, n, d) -> FieldElem:
    """q*sqrt(n/d) for a rational q != 0 and square-free n, d > 0: it is
    q/d * sqrt(n)*sqrt(d) == q/(d/g) * sqrt(f), (f, g) = _mul_class(n, d)."""
    f, g = _mul_class(n, d)
    return FieldElem({f: Fraction(q, d // g)})


def number(a: int, b: int, n: int) -> FieldElem:
    """The element (a/b)*sqrt(n); the workhorse constructor."""
    return FieldElem.make([(n, Fraction(a, b))])


def field(c) -> FieldElem:
    """A rational element from an int, Fraction or (p, q) pair."""
    c = Fraction(*c) if isinstance(c, tuple) else Fraction(c)
    return FieldElem({1: c} if c else {})


def _frac_sqrt(c: Fraction) -> FieldElem:
    # sqrt(p/q) = sqrt(p*q)/q, exact in the field for c >= 0.  Factoring a
    # radicand p*q above MAX_RADICAND could hang, so unless it is a perfect
    # square it is refused.
    if not c:
        return ZERO
    n = c.numerator * c.denominator
    if n > MAX_RADICAND:
        r = _exact_sqrt(n)
        if r is None:
            raise FieldSqrtError(
                "square root of %s: radicand exceeds %d" % (c, MAX_RADICAND))
        return field(Fraction(r, c.denominator))
    f, k = _sqrt(c)
    return FieldElem({f: k})


def _exact_sqrt(n: int) -> int | None:
    r = math.isqrt(n)
    return r if r * r == n else None


def field_sqrt(x: FieldElem) -> FieldElem:
    """Exact square root of a non-negative element, when it exists in the
    field: non-negative rationals always work, two-term values p + q*sqrt(f)
    work when p*p - q*q*f is a perfect rational square (denesting)."""
    sgn = x.sign()
    if sgn == 0:
        return ZERO
    if sgn < 0:
        raise FieldSqrtError("square root of negative value %s" % x)
    terms = x.terms
    if len(terms) == 1:
        ((f, c),) = terms.items()
        if f == 1:
            return _frac_sqrt(c)
        raise FieldSqrtError("no field square root of %s" % x)
    if len(terms) == 2 and 1 in terms:
        p = terms[1]
        ((f, q),) = ((f, c) for f, c in terms.items() if f != 1)
        disc = p * p - q * q * f
        if disc >= 0:
            rn = _exact_sqrt(disc.numerator)
            rd = _exact_sqrt(disc.denominator)
            if rn is not None and rd is not None:
                s = Fraction(rn, rd)
                half = Fraction(1, 2)
                r1, r2 = _frac_sqrt((p + s) * half), _frac_sqrt((p - s) * half)
                root = r1 + r2 if q > 0 else r1 - r2
                if root * root == x:
                    return root
        raise FieldSqrtError("square root of %s does not denest" % x)
    raise FieldSqrtError("no field square root of %s" % x)


_TERM_RE = re.compile(r"^(?:(\d+)(?:/(\d+))?)?(?:\*?sqrt\((\d+)\))?$")


def _parse_sum(s: str) -> FieldElem:
    items = []
    i = 0
    n = len(s)
    while i < n:
        sign = 1
        if s[i] == "+":
            i += 1
        elif s[i] == "-":
            sign = -1
            i += 1
        j = i
        while j < n and s[j] not in "+-":
            j += 1
        m = _TERM_RE.match(s[i:j])
        if not m or (m.group(1) is None and m.group(3) is None):
            raise ValueError("bad term %r" % s[i:j])
        a = int(m.group(1)) if m.group(1) else 1
        b = int(m.group(2)) if m.group(2) else 1
        f = int(m.group(3)) if m.group(3) else 1
        if f > MAX_RADICAND:
            raise ValueError("radicand %d exceeds %d" % (f, MAX_RADICAND))
        items.append((f, Fraction(sign * a, b)))
        i = j
    return FieldElem.make(items)


def parse_field(s: str) -> FieldElem:
    """Parse the plain rendering back into an element; the quotient form
    (a)/(b) is read too, and rationalized."""
    s = s.replace(" ", "")
    if not s:
        raise ValueError("empty number")
    m = re.match(r"^\((.*)\)/\((.*)\)$", s)
    if m:
        num, den = (_parse_sum(g) for g in m.groups())
        return num / den
    if s == "0":
        return ZERO
    return _parse_sum(s)
