import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecg.exactnum import (
    MAX_RADICAND,
    ONE,
    ZERO,
    FieldElem,
    FieldSqrtError,
    _square_free,
    field,
    field_sqrt,
    number,
    parse_field,
)


def mp_value(x: FieldElem, dps: int = 60) -> mpmath.mpf:
    """Independent numeric oracle: evaluate with 60-digit floats."""
    with mpmath.workdps(dps):
        if not x.terms:
            return mpmath.mpf(0)
        return mpmath.fsum(
            mpmath.mpf(c.numerator) / c.denominator * mpmath.sqrt(f)
            for f, c in x.terms.items()
        )


# ---------------------------------------------------------------- frozen values

def test_radicand_reduction():
    # 2*sqrt(12) - sqrt(3) = 3*sqrt(3)
    assert number(2, 1, 12) - number(1, 1, 3) == number(3, 1, 3)
    # sqrt(8)/2 = sqrt(2)
    assert number(1, 2, 8) == number(1, 1, 2)
    assert number(1, 1, 9) == field(3)
    assert number(5, 1, 0).is_zero()


def test_single_term_denominator_absorbed():
    x = ONE / number(1, 1, 2)
    assert x == number(1, 2, 2)
    assert x.terms == {2: Fraction(1, 2)}
    y = number(3, 2, 1) / number(2, 1, 3)  # (3/2)/(2*sqrt(3)) = sqrt(3)/4
    assert y == number(1, 4, 3)


def test_sign_frozen():
    # 3*sqrt(2) - 2*sqrt(3) - sqrt(6) + 2 ~ 0.329 > 0
    x = number(3, 1, 2) - number(2, 1, 3) - number(1, 1, 6) + field(2)
    assert x.sign() == 1
    assert abs(mp_value(x) - mpmath.mpf("0.329049")) < 1e-4
    assert (-x).sign() == -1
    # ... and with rational part 1 instead it flips negative (~ -0.671)
    assert (x - ONE).sign() == -1
    assert ZERO.sign() == 0
    assert (number(1, 1, 2) - ONE).sign() == 1
    # a nearly-cancelling pair still gets an exact verdict
    y = number(665857, 470832, 1) - number(1, 1, 2)  # continued-fraction close
    assert y.sign() == 1


def test_equality_and_zero_by_canonical_form():
    x = number(1, 1, 2) + number(1, 1, 3)
    y = number(1, 1, 3) + number(1, 1, 2)
    assert x == y
    assert (x - y).is_zero()
    assert not (x - ONE).is_zero()


# multi-term values with a negative leading term and a rational part
MIXED = [
    field(Fraction(-1, 2)) + number(3, 1, 2) - number(1, 1, 6),
    number(-1, 1, 3) + number(1, 5, 10),
    number(-7, 3, 1) + number(2, 3, 5) + number(-1, 4, 7) + number(5, 1, 11),
    number(1, 1, 2) + number(-5, 2, 15),
]


def test_render_mathematica():
    assert number(1, 3, 3).render("mathematica") == "Sqrt[3]/3"
    assert number(-2, 3, 5).render("mathematica") == "-2*Sqrt[5]/3"
    assert field(Fraction(2, 3)).render("mathematica") == "2/3"
    x = field(1) + number(-1, 2, 2)
    assert x.render("mathematica") == "1 - Sqrt[2]/2"
    assert [x.render("mathematica") for x in MIXED] == [
        "-1/2 + 3*Sqrt[2] - Sqrt[6]",
        "-Sqrt[3] + Sqrt[10]/5",
        "-7/3 + 2*Sqrt[5]/3 - Sqrt[7]/4 + 5*Sqrt[11]",
        "Sqrt[2] - 5*Sqrt[15]/2",
    ]


def test_render_tex():
    assert number(1, 2, 2).render("tex") == "\\frac{1\\sqrt{2}}{2}"
    assert field(3).render("tex") == "3"
    assert number(1, 1, 5).render("tex") == "\\sqrt{5}"
    assert [x.render("tex") for x in MIXED] == [
        "-\\frac{1}{2} + 3\\sqrt{2} - \\sqrt{6}",
        "-\\sqrt{3} + \\frac{1\\sqrt{10}}{5}",
        "-\\frac{7}{3} + \\frac{2\\sqrt{5}}{3} - \\frac{1\\sqrt{7}}{4} + 5\\sqrt{11}",
        "\\sqrt{2} - \\frac{5\\sqrt{15}}{2}",
    ]


def test_render_plain():
    assert [x.plain() for x in MIXED] == [
        "-1/2+3*sqrt(2)-1*sqrt(6)",
        "-1*sqrt(3)+1/5*sqrt(10)",
        "-7/3+2/3*sqrt(5)-1/4*sqrt(7)+5*sqrt(11)",
        "1*sqrt(2)-5/2*sqrt(15)",
    ]
    assert all(x.render("plain") == x.plain() for x in MIXED)
    with pytest.raises(ValueError, match="unknown format"):
        ONE.render("latex")


def test_plain_roundtrip_examples():
    for x in [
        ZERO,
        ONE,
        field(-7),
        number(1, 2, 2),
        number(-5, 3, 7) + field(Fraction(2, 9)),
        number(1, 1, 2) / (ONE + number(1, 1, 3)),
        *MIXED,
    ]:
        assert parse_field(x.plain()) == x


def test_field_sqrt():
    assert field_sqrt(field(4)) == field(2)
    assert field_sqrt(field(Fraction(1, 2))) == number(1, 2, 2)
    assert field_sqrt(ZERO) == ZERO
    # denesting: sqrt(2 + sqrt(3)) = (sqrt(6) + sqrt(2))/2
    x = field(2) + number(1, 1, 3)
    r = field_sqrt(x)
    assert r * r == x
    assert r == number(1, 2, 6) + number(1, 2, 2)
    # and with the radical negative
    y = field(2) - number(1, 1, 3)
    ry = field_sqrt(y)
    assert ry * ry == y
    with pytest.raises(FieldSqrtError):
        field_sqrt(number(1, 1, 2))  # sqrt(sqrt(2)) leaves the field
    with pytest.raises(FieldSqrtError):
        field_sqrt(field(-1))
    with pytest.raises(FieldSqrtError):
        field_sqrt(field(1) + number(1, 1, 2))  # 1+sqrt(2): disc < 0... non-square


def test_rationalize():
    # invert rationalizes: the inverse is again a plain sum of radicals
    d = FieldElem.make([(1, 1), (2, 1)])
    assert d.invert() == number(1, 1, 2) - field(1)  # 1/(1+sqrt(2)) = sqrt(2)-1
    e = FieldElem.make([(2, 1), (3, 1), (1, 1)])
    r = e.invert()
    assert r * e == ONE
    with mpmath.workdps(60):
        assert abs(mp_value(r) - 1 / mp_value(e)) < mpmath.mpf("1e-50")


def test_zero_division_guards():
    with pytest.raises(ZeroDivisionError):
        ZERO.invert()
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        parse_field("(1)/(sqrt(2)-sqrt(2))")


# ---------------------------------------------------------------- property tests

_rads = [1, 2, 3, 5, 6, 7, 10, 15]


@st.composite
def sqrtsums(draw, max_terms=3, allow_zero=True):
    n = draw(st.integers(0 if allow_zero else 1, max_terms))
    items = []
    for _ in range(n):
        f = draw(st.sampled_from(_rads))
        a = draw(st.integers(-9, 9))
        b = draw(st.integers(1, 9))
        items.append((f, Fraction(a, b)))
    return FieldElem.make(items)


@st.composite
def elems(draw):
    num = draw(sqrtsums())
    if draw(st.booleans()):
        den = draw(sqrtsums(max_terms=2, allow_zero=False))
        if den.is_zero():
            den = ONE
        return num / den
    return num


@given(elems(), elems(), elems())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert (a - a).is_zero()
    if not b.is_zero():
        assert (a / b) * b == a


@given(elems())
def test_canonical_form(a):
    for f in a.terms:
        assert _square_free(f)[1] == f  # radicands stay square-free
    assert all(c != 0 for c in a.terms.values())


@given(elems())
def test_sign_matches_numeric_oracle(a):
    v = mp_value(a)
    s = a.sign()
    if s == 0:
        assert abs(v) < mpmath.mpf("1e-40")
    else:
        assert mpmath.sign(v) == s


@given(elems())
def test_plain_roundtrip(a):
    assert parse_field(a.plain()) == a


@given(elems())
def test_rationalize_preserves_value(a):
    # the inverse is rationalized and is the numeric inverse
    if a.is_zero():
        return
    r = a.invert()
    assert r * a == ONE
    with mpmath.workdps(60):
        assert abs(mp_value(r) * mp_value(a) - 1) < mpmath.mpf("1e-40")


@settings(max_examples=200)
@given(sqrtsums(max_terms=2, allow_zero=False))
def test_field_sqrt_squares_back(ss):
    x = ss * ss  # squares are always in range of field_sqrt
    r = field_sqrt(x)
    assert r * r == x
    assert r.sign() >= 0


def _random_elem(rng):
    items = [
        (rng.choice(_rads), Fraction(rng.randint(-20, 20), rng.randint(1, 12)))
        for _ in range(rng.randint(1, 4))
    ]
    return FieldElem.make(items)


def test_no_quotient_survives_inversion():
    # criterion-8-style elements and their inverses are sums of radicals:
    # no rendering shows a quotient, and every one parses back
    rng = random.Random(1105)
    for _ in range(300):
        x = _random_elem(rng)
        if x.is_zero():
            continue
        inv = x.invert()
        assert x * inv == ONE
        for y in (x, inv):
            for text in (y.plain(), y.render("tex"), y.render("mathematica")):
                assert ")/(" not in text
            assert parse_field(y.plain()) == y


def _square_free_by_trial(n):
    """Oracle: split n as s*s*f by trial division up to sqrt(n)."""
    s, f, m, d = 1, 1, n, 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            if e % 2:
                f *= d
            s *= d ** (e // 2)
        d += 1 if d == 2 else 2
    return s, f * m


def test_square_free_matches_trial_division():
    rng = random.Random(20261018)
    cases = [rng.randrange(10**12) for _ in range(200)]
    # cofactors left above the cube root: p, p*q and p*p for primes near it
    p, q = 999983, 1000003
    cases += [p, p * q, p * p, 12 * p * p, 18 * p * q, 7 * 7 * 7 * p]
    for n in cases:
        assert _square_free(n) == _square_free_by_trial(n), n


def test_large_radicands_fail_fast():
    # a 16-digit prime radicand parses at once, one above the bound is refused
    p = 9999999999999937
    assert parse_field("1/1*sqrt(%d)" % p).terms == {p: 1}
    assert parse_field("sqrt(%d)" % MAX_RADICAND) == number(10**9, 1, 1)
    with pytest.raises(ValueError, match="radicand"):
        parse_field("1/1*sqrt(%d)" % (MAX_RADICAND + 1))
    with pytest.raises(ValueError, match="radicand"):
        parse_field("sqrt(" + "9" * 50 + ")")



def test_field_sqrt_of_huge_rational_fails_fast():
    # a computed radicand above the bound is refused unless it is a perfect
    # square, whose root needs no factoring
    c = 10**30 + 57
    with pytest.raises(FieldSqrtError, match="radicand exceeds"):
        field_sqrt(field(c * c + 1))
    with pytest.raises(FieldSqrtError, match="radicand exceeds"):
        field_sqrt(field(Fraction(1, c)))
    assert field_sqrt(field(Fraction(c * c, 4))) == field(Fraction(c, 2))
    assert field_sqrt(field(MAX_RADICAND)) == number(10**9, 1, 1)

def test_sign_vs_numeric_random_bulk():
    rng = random.Random(20240817)
    for _ in range(2000):
        x = _random_elem(rng)
        v = mp_value(x)
        s = x.sign()
        if s == 0:
            assert abs(v) < mpmath.mpf("1e-40")
        else:
            assert mpmath.sign(v) == s
