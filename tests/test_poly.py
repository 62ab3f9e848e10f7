import itertools
import math
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landauvar.poly import (
    PARSE_DIGIT_LIMIT,
    PARSE_EXPONENT_LIMIT,
    PARSE_NESTING_LIMIT,
    PARSE_POWER_TERM_LIMIT,
    Polynomial,
    PolyMatrix,
    PolynomialError,
    determinant,
    divides,
    first_repeat,
    parse,
    permutation_sign,
    principal_minors,
    resultant,
)

x, y, z, t = (Polynomial.var(name) for name in ("x", "y", "z", "t"))


def test_bubble_f_assembly():
    x1, x2 = Polynomial.var("x1"), Polynomial.var("x2")
    m1, m2, psq = (Polynomial.var(n) for n in ("m1sq", "m2sq", "psq"))
    f = (x1 + x2) * (m1 * x1 + m2 * x2) - psq * x1 * x2
    assert f == parse("m1sq*x1^2 + m1sq*x1*x2 + m2sq*x1*x2 + m2sq*x2^2 - psq*x1*x2")


def test_mul_absorbing_and_binomial():
    a = x + 2 * y
    assert a * Polynomial.zero() == Polynomial.zero()
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y


def test_partial_derivative():
    assert (x * x * t).derivative("x") == 2 * x * t
    assert x.derivative("y") == Polynomial.zero()
    # bubble F restricted to x1=1, differentiated in x2, expanded by hand
    f = parse("(1+x2)*(m1sq+m2sq*x2) - psq*x2")
    expect = parse("m1sq + 2*m2sq*x2 + m2sq - psq")
    assert f.derivative("x2") == expect


def test_substitute():
    f = parse("(x1+x2)*(m1sq*x1+m2sq*x2) - psq*x1*x2")
    assert f.substitute({"x1": 0}) == parse("m2sq*x2^2")
    assert f.substitute({}) == f
    assert (x - t).substitute({"x": t}) == Polynomial.zero()


def test_substitute_polynomial_values():
    f = x * x + y
    g = f.substitute({"x": y + 1})
    assert g == y * y + 3 * y + 1


def test_determinant_basics():
    ident = PolyMatrix([[1, 0], [0, 1]])
    assert determinant(ident) == Polynomial.const(1)
    rep = PolyMatrix([[x, y], [x, y]])
    assert determinant(rep) == Polynomial.zero()


def test_determinant_bubble_gram():
    m1, m2, s = (Polynomial.var(n) for n in ("m1sq", "m2sq", "s12"))
    half = Fraction(1, 2)
    m = PolyMatrix([[m1, (m1 + m2 + s) * half], [(m1 + m2 + s) * half, m2]])
    det = determinant(m)
    # with s12 = -psq this is -Delta/4, Delta the threshold discriminant
    det_p = det.substitute({"s12": -Polynomial.var("psq")})
    delta = parse("(m1sq+m2sq-psq)^2 - 4*m1sq*m2sq")
    assert det_p * (-4) == delta


def test_resultant_examples():
    assert resultant(x * x - t, x - 1, "x") == parse("1 - t")
    a, b, c, d = (Polynomial.var(n) for n in "abcd")
    assert resultant(a * x + b, c * x + d, "x") == a * d - b * c
    # discriminant of the bubble quadratic via b^2-4ac
    f = parse("(1+x2)*(m1sq+m2sq*x2) - psq*x2")
    res = resultant(f, f.derivative("x2"), "x2")
    aa = parse("m2sq")
    bb = parse("m1sq + m2sq - psq")
    cc = parse("m1sq")
    disc = bb * bb - 4 * aa * cc
    q = divides(disc, res)
    assert q is not None


def test_resultant_matches_root_product_at_sylvester_size_9():
    # Res(prod(x - a_i), prod(x - b_j)) = prod(a_i - b_j) for monic a, b;
    # degrees 4 and 5 give the 9x9 Sylvester matrix of the sunrise elimination
    roots_a = [i + t for i in range(1, 5)]
    roots_b = [j - 2 * t for j in range(1, 6)]
    a, b = Polynomial.const(1), Polynomial.const(1)
    for r in roots_a:
        a = a * (x - r)
    for r in roots_b:
        b = b * (x - r)
    expect = Polynomial.const(1)
    for ra in roots_a:
        for rb in roots_b:
            expect = expect * (ra - rb)
    assert resultant(a, b, "x") == expect


def test_resultant_degree_errors():
    with pytest.raises(PolynomialError):
        resultant(x + 1, Polynomial.const(3), "x")


def test_divides():
    q = divides(x - 1, x * x - 1)
    assert q == x + 1
    assert divides(x, x + 1) is None
    with pytest.raises(PolynomialError):
        divides(Polynomial.zero(), x)


def test_parse_print_roundtrip():
    samples = [
        Polynomial.zero(),
        Polynomial.const(Fraction(-3, 4)),
        x * x * y - 2 * t + Polynomial.const(Fraction(1, 2)),
        (x + y) ** 3 - t ** 5,
    ]
    for p in samples:
        assert parse(str(p)) == p
    assert parse(" x + 1 \t\n") == x + 1


def test_parse_errors():
    with pytest.raises(PolynomialError):
        parse("x +")
    with pytest.raises(PolynomialError):
        parse("x ** 2")
    with pytest.raises(PolynomialError):
        parse("(x")


def test_parse_refuses_nesting_past_the_limit():
    deepest = PARSE_NESTING_LIMIT
    assert parse("(" * deepest + "x" + ")" * deepest) == x
    assert parse("(x)*" * 3000 + "1") == x ** 3000
    with pytest.raises(PolynomialError, match="^expression is nested too deeply$"):
        parse("(" * (deepest + 1) + "x" + ")" * (deepest + 1))


@pytest.mark.parametrize("text, message", [
    ("(a+b+c)^50", "power ^50 of 3 terms can reach 1326 terms, over the budget of 1000"),
    ("(a+b+c)^100", "power ^100 of 3 terms can reach 5151 terms, over the budget of 1000"),
    ("(a+b)^800", "exponent 800 is over the budget of 400"),
    ("3^10000000", "exponent 10000000 is over the budget of 400"),
    ("(a+b)^200*(c+d)^200", "product of 201 and 201 terms can reach 40401 terms,"
     " over the budget of 1000"),
    ("34359738368^400", "power ^400 of 1 terms can reach 14400-bit coefficients, over the budget"
     " of 14000 bits"),
    ("3^" + "9" * 5000, "integer of 5000 digits is over the budget of 4214 digits"),
])
def test_parse_refuses_a_power_over_the_budget_before_expanding(text, message):
    start = time.perf_counter()
    with pytest.raises(PolynomialError, match=f"^{re.escape(message)}$"):
        parse(text)
    assert time.perf_counter() - start < 1


def test_parse_admits_powers_up_to_the_budget():
    assert parse("10^307") == Polynomial.const(10 ** 307)
    assert parse("0^0") == parse("(x+y)^0") == Polynomial.const(1)
    k = PARSE_EXPONENT_LIMIT
    assert parse(f"x^{k}") == x ** k
    with pytest.raises(PolynomialError, match=f"^exponent {k + 1} is over the budget"):
        parse(f"x^{k + 1}")
    # a t-term square reaches C(t+1, 2) terms: 990 for t = 44, 1035 for t = 45
    for t in (44, 45):
        base = "+".join(f"v{i}" for i in range(t))
        if t * (t + 1) // 2 <= PARSE_POWER_TERM_LIMIT:
            assert len(parse(f"({base})^2").terms) == t * (t + 1) // 2
        else:
            with pytest.raises(PolynomialError, match=r"^power \^2 of 45 terms can reach"):
                parse(f"({base})^2")


def test_parse_admits_products_and_coefficients_up_to_the_budget():
    assert PARSE_DIGIT_LIMIT == 4214 and 10 ** PARSE_DIGIT_LIMIT < 2 ** 14000
    # a 40-term times a 25-term sum is at the term budget, one more term is over
    a, b = ("+".join(f"{v}{i}" for i in range(t)) for v, t in (("a", 40), ("b", 25)))
    assert len(parse(f"({a})*({b})").terms) == PARSE_POWER_TERM_LIMIT
    with pytest.raises(PolynomialError, match="^product of 40 and 26 terms can reach 1040"):
        parse(f"({a})*({b}+b25)")
    # a 35-bit constant to the 400th is at the coefficient budget
    assert parse("17179869184^400") == Polynomial.const(2 ** 13600)
    assert parse("9" * PARSE_DIGIT_LIMIT) == Polynomial.const(10 ** PARSE_DIGIT_LIMIT - 1)
    with pytest.raises(PolynomialError, match="^integer of 4215 digits is over the budget"):
        parse("9" * (PARSE_DIGIT_LIMIT + 1))


# -- randomized algebraic properties ------------------------------------------------

coeffs = st.integers(min_value=-6, max_value=6)
names = st.sampled_from(["x", "y", "z"])


@st.composite
def polynomials(draw, max_terms=4, max_exp=3):
    n_terms = draw(st.integers(min_value=0, max_value=max_terms))
    p = Polynomial.zero()
    for _ in range(n_terms):
        c = draw(coeffs)
        powers = {}
        for v in draw(st.lists(names, max_size=2)):
            powers[v] = draw(st.integers(min_value=0, max_value=max_exp))
        p = p + Polynomial.monomial(c, powers)
    return p


@given(polynomials(), polynomials(), polynomials())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(st.lists(polynomials(max_terms=2, max_exp=1), min_size=8, max_size=8),
       st.lists(polynomials(max_terms=2, max_exp=1), min_size=8, max_size=8))
@settings(max_examples=20, deadline=None)
def test_determinant_multiplicative_2x2(entries_a, entries_b):
    a = PolyMatrix([entries_a[:2], entries_a[2:4]])
    b = PolyMatrix([entries_b[:2], entries_b[2:4]])
    assert determinant(a * b) == determinant(a) * determinant(b)


@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=9, max_size=9),
       st.lists(st.integers(min_value=-3, max_value=3), min_size=9, max_size=9))
@settings(max_examples=20, deadline=None)
def test_determinant_multiplicative_3x3(flat_a, flat_b):
    mk = lambda flat: PolyMatrix([
        [Polynomial.const(flat[3 * i + j]) + (x if i == j else Polynomial.zero())
         for j in range(3)]
        for i in range(3)
    ])
    a, b = mk(flat_a), mk(flat_b)
    assert determinant(a * b) == determinant(a) * determinant(b)


@given(st.integers(min_value=-5, max_value=5),
       st.lists(st.integers(min_value=-4, max_value=4), min_size=2, max_size=3),
       st.lists(st.integers(min_value=-4, max_value=4), min_size=2, max_size=3))
@settings(max_examples=40, deadline=None)
def test_resultant_vanishes_on_common_root(root, ca, cb):
    # build a, b sharing the root by construction
    factor = x - Polynomial.const(root)
    a = factor
    for c in ca:
        a = a * (x - Polynomial.const(c))
    b = factor
    for c in cb:
        b = b * (x - Polynomial.const(c))
    assert resultant(a, b, "x") == Polynomial.zero()


@given(polynomials())
@settings(max_examples=60, deadline=None)
def test_parse_print_roundtrip_random(p):
    assert parse(str(p)) == p


@given(polynomials(), polynomials())
@settings(max_examples=40, deadline=None)
def test_divides_recovers_exact_factor(a, b):
    if b.is_zero():
        return
    assert divides(b, a * b) == a


@given(polynomials(), polynomials(), polynomials())
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
def test_divides_gives_the_quotient_of_a_multiple_and_none_otherwise(d, q, r):
    # the gate of any faster division: d*q gives q back, and d*q + r gives None
    # for a nonzero r below the total degree of d, which no multiple of d is
    if d.is_zero():
        return
    assert divides(d, d * q) == q
    low = Polynomial({m: c for m, c in r.terms.items()
                      if sum(e for _, e in m) < d.total_degree()})
    if not low.is_zero():
        assert divides(d, d * q + low) is None


def _permutation_sign(perm):
    return (-1) ** sum(1 for i, a in enumerate(perm) for b in perm[i + 1:] if a > b)


def test_permutation_sign_counts_inversions():
    for n in range(7):
        for perm in itertools.permutations(range(n)):
            assert permutation_sign(perm) == _permutation_sign(perm), perm


def _leibniz_det(m):
    """The Leibniz sum over the permutations that take no zero entry."""
    n = m.rows
    total = Polynomial.zero()

    def extend(perm, term):
        nonlocal total
        if len(perm) == n:
            total = total + Polynomial.const(_permutation_sign(perm)) * term
            return
        for j in range(n):
            if j not in perm and not m[len(perm), j].is_zero():
                extend(perm + [j], term * m[len(perm), j])

    extend([], Polynomial.const(1))
    return total


@st.composite
def square_matrices(draw):
    # 3x3 with general entries, or 4x4 where about half the entries are zero,
    # so the zero-skipping and column pruning paths are exercised
    n = draw(st.sampled_from([3, 4]))
    entry = polynomials(max_terms=2, max_exp=2)
    if n == 4:
        entry = st.one_of(st.just(Polynomial.zero()), entry)
    return PolyMatrix([[draw(entry) for _ in range(n)] for _ in range(n)])


@given(square_matrices())
@settings(max_examples=50, deadline=None)
def test_determinant_agrees_with_leibniz(m):
    assert determinant(m) == _leibniz_det(m)


def reference_determinant(m):
    """`determinant` as it was before its packing was shared across principal
    minors: each matrix packed on its own, with its own variables, field
    width and row lcms.  It pins the term order of every principal minor."""
    n = m.rows
    names = sorted({v for row in m.entries for e in row for mono in e.terms for v, _ in mono})
    shift = {v: k for k, v in enumerate(names)}
    w = sum(max((sum(p for _, p in mono) for e in row for mono in e.terms), default=0)
            for row in m.entries).bit_length()
    scale = 1
    rows, masks = [], []
    for row in m.entries:
        lcm = math.lcm(*(c.denominator for e in row for c in e.terms.values()))
        scale *= lcm
        packed, mask = [], 0
        for j, e in enumerate(row):
            if e.terms:
                mask |= 1 << j
                terms = [(sum(power << w * shift[v] for v, power in mono),
                          c.numerator * (lcm // c.denominator))
                         for mono, c in e.terms.items()]
                packed.append((j, terms, [(p, -c) for p, c in terms]))
        rows.append(packed)
        masks.append(mask)
    bands = [((b & -b).bit_length(), b.bit_length()) for b in masks]
    order = sorted(range(n), key=bands.__getitem__)
    rows = [rows[i] for i in order]
    masks = [masks[i] for i in order]
    sign = permutation_sign(order)
    need = [(1 << n) - 1] * n
    for i in range(n - 2, -1, -1):
        need[i] = need[i + 1] & ~masks[i + 1]
    minors = {0: {0: 1}}
    for i, entries in enumerate(rows):
        grown: dict = {}
        for used, minor in minors.items():
            for j, entry, negated in entries:
                key = used | (1 << j)
                if key == used or key & need[i] != need[i]:
                    continue
                acc = grown.get(key)
                if acc is None:
                    acc = grown[key] = {}
                get = acc.get
                for pe, ce in negated if (used >> (j + 1)).bit_count() & 1 else entry:
                    for pm, cm in minor.items():
                        p = pe + pm
                        acc[p] = get(p, 0) + ce * cm
        minors = {}
        for key, acc in grown.items():
            acc = {p: c for p, c in acc.items() if c}
            if acc:
                minors[key] = acc
    mask = (1 << w) - 1
    out = {}
    for p, c in minors.get((1 << n) - 1, {}).items():
        mono = []
        for v in names:
            if p & mask:
                mono.append((v, p & mask))
            p >>= w
        out[tuple(mono)] = Fraction(sign * c, scale)
    return Polynomial(out)


@st.composite
def matrices_with_index_sets(draw):
    # entries with denominators 1, 2, 3 or 6 over the shared variables x, y
    # and z, some of them zero, and at times a zero row or column; index sets
    # of every size, always with the empty and the full set
    n = draw(st.integers(min_value=1, max_value=5))
    zero = Polynomial.zero()
    entry = st.builds(lambda p, d: p * Fraction(1, d), polynomials(max_terms=2, max_exp=2),
                      st.sampled_from([1, 2, 3, 6]))
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    for i in draw(st.lists(st.integers(0, n - 1), max_size=1)):
        rows[i] = [zero] * n
    for j in draw(st.lists(st.integers(0, n - 1), max_size=1)):
        for row in rows:
            row[j] = zero
    subsets = [list(s) for k in range(n + 1) for s in itertools.combinations(range(n), k)]
    return PolyMatrix(rows), [[], list(range(n))] + draw(st.lists(st.sampled_from(subsets),
                                                                  max_size=6))


@given(matrices_with_index_sets())
@settings(max_examples=100, deadline=None)
def test_principal_minors_equal_the_determinant_of_each_submatrix(case):
    m, index_sets = case
    for keep, minor in zip(index_sets, principal_minors(m, index_sets), strict=True):
        if not keep:
            assert list(minor.terms.items()) == [((), 1)]  # the empty determinant
            continue
        drop = [i for i in range(m.rows) if i not in keep]
        sub = m.submatrix(drop, drop)
        assert list(minor.terms.items()) == list(reference_determinant(sub).terms.items())
        assert minor == _leibniz_det(sub)
    assert list(determinant(m).terms.items()) == list(reference_determinant(m).terms.items())


def test_determinant_4x4_with_zero_pivots():
    z = Polynomial.zero()
    m = PolyMatrix([
        [z, x, z, y],
        [x, z, y, z],
        [z, y, z, x + 1],
        [y, z, x - 1, z],
    ])
    assert determinant(m) == _leibniz_det(m)


@given(polynomials())
@settings(max_examples=40, deadline=None)
def test_substitute_roundtrip_fresh_variables(p):
    fresh = Polynomial.var("u_fresh")
    assert p.substitute({"x": fresh}).substitute({"u_fresh": x}) == p


# -- the earlier substitute and printing, kept as oracles for the one-pass and
# packed-key versions ---------------------------------------------------------------


def reference_substitute(p, bindings):
    """Substitution as a product of Polynomials for every term and power."""
    if not bindings:
        return p
    values = {v: val if isinstance(val, Polynomial) else Polynomial.const(val)
              for v, val in bindings.items()}
    result = Polynomial()
    powers = {v: {0: Polynomial.const(1)} for v in values}
    for mono, c in p.terms.items():
        term = Polynomial.const(c)
        rest = {}
        for v, e in mono:
            if v in values:
                cache = powers[v]
                if e not in cache:
                    q = cache[max(cache)]
                    for _ in range(max(cache), e):
                        q = q * values[v]
                        cache[max(cache) + 1] = q
                term = term * cache[e]
            else:
                rest[v] = e
        if rest:
            term = term * Polynomial.monomial(1, rest)
        result = result + term
    return result


def reference_str(p):
    """Printing from Fraction arithmetic, sorted by (degree, exponent list)."""
    if not p.terms:
        return "0"
    names = p.variables

    def key(mono):
        exps = dict(mono)
        row = [exps.get(v, 0) for v in names]
        return sum(row), row

    parts = []
    for mono in sorted(p.terms, key=key, reverse=True):
        coeff = p.terms[mono]
        body = "*".join(f"{v}^{e}" if e > 1 else v for v, e in mono)
        mag = abs(coeff)
        if not body:
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{mag}*{body}"
        if not parts:
            parts.append(text if coeff > 0 else f"-{text}")
        else:
            parts.append(f"+ {text}" if coeff > 0 else f"- {text}")
    return " ".join(parts)


def assert_fraction_terms(p):
    assert all(type(c) is Fraction for c in p.terms.values()), p.terms


fractions_ = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
substitution_values = st.one_of(
    st.integers(-3, 3),
    fractions_,
    fractions_.map(Polynomial.const),
    st.just(Polynomial.zero()),
    polynomials(max_terms=3, max_exp=2),
    # a value that cancels terms of the polynomial, and one in a fresh variable
    st.sampled_from([x - y, y - x, y + z - x, -x, Polynomial.var("u") * x]),
)


@given(polynomials(max_terms=6, max_exp=4),
       st.dictionaries(st.sampled_from(["x", "y", "z", "w_absent"]), substitution_values,
                       max_size=4))
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_substitute_equals_the_product_of_polynomials(p, bindings):
    got, expect = p.substitute(bindings), reference_substitute(p, bindings)
    # equal terms in equal order: the order of `terms` is the order `track`
    # sums floating-point coefficients in
    assert list(got.terms.items()) == list(expect.terms.items())
    assert_fraction_terms(got)


def test_substitute_folds_zero_and_cancelling_values():
    p = parse("x^2*y + 3*x*y^2 - 2*y^3 + z")
    assert p.substitute({"y": 0}) == z
    assert p.substitute({"x": y}) == parse("2*y^3 + z")
    assert p.substitute({"x": Polynomial.const(Fraction(-1, 2)), "z": 0}) == parse(
        "1/4*y - 3/2*y^2 - 2*y^3")
    assert p.substitute({"absent": 5}) == p
    assert_fraction_terms(p.substitute({"x": 2, "y": Polynomial.const(3), "z": Fraction(1, 3)}))


def test_str_reads_numerator_and_denominator():
    cases = {
        "x^8*y + x^7*y^2": x ** 8 * y + x ** 7 * y ** 2,
        "x^8*y - x^7*y^2 + x^7": x ** 8 * y - x ** 7 * y ** 2 + x ** 7,
        "-x^7*y^2 + x^8": x ** 8 - x ** 7 * y ** 2,
        "-3/4*x^2 + 5*x*y - 1/7*y - 1": (
            Fraction(-3, 4) * x * x + 5 * x * y - Fraction(1, 7) * y - 1),
        "-x + 1/2": -x + Fraction(1, 2),
        "-2/3": Polynomial.const(Fraction(-2, 3)),
        "7": Polynomial.const(7),
        "y^16 + y^15*z - x": y ** 16 + y ** 15 * z - x,
        # a field one bit too narrow would carry z^8 into y's field and tie
        # x*z^8 with y^9, or carry z^9 past y^10
        "x*z^8 + y^9": y ** 9 + x * z ** 8,
        "x*z^9 - y^10": -y ** 10 + x * z ** 9,
    }
    for text, p in cases.items():
        assert str(p) == reference_str(p) == text
        assert parse(text) == p
        assert_fraction_terms(p)


@given(polynomials(max_terms=8, max_exp=9),
       st.lists(fractions_.filter(bool), min_size=8, max_size=8))
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
def test_str_equals_the_fraction_printing(p, scales):
    # rescale the terms by rationals so that fractional and negative
    # coefficients meet exponents on both sides of a field-width boundary
    q = Polynomial({m: c * k for (m, c), k in zip(p.terms.items(), scales)})
    assert str(q) == reference_str(q)


@st.composite
def rational_row_matrices(draw):
    # each entry divided by 1, 2, 3, 4 or 6, so rows mix denominators such as
    # 1/2, 1/3 and integers and the row scales differ
    n = draw(st.sampled_from([2, 3]))
    entry = st.builds(lambda p, d: p * Fraction(1, d),
                      polynomials(max_terms=2, max_exp=2),
                      st.sampled_from([1, 2, 3, 4, 6]))
    return PolyMatrix([[draw(entry) for _ in range(n)] for _ in range(n)])


@given(rational_row_matrices())
@settings(max_examples=50, deadline=None)
def test_determinant_with_rational_rows_agrees_with_leibniz(m):
    assert determinant(m) == _leibniz_det(m)


@st.composite
def full_width_matrices(draw):
    # row i has largest total degree d_i, and the d_i sum to D = 2^k - 1 or
    # 2^k, so the exponent x^D of the diagonal product fills its packed field
    # exactly or needs one more bit; y and z sort after x, so a carry out of
    # x's field would change them
    k = draw(st.integers(min_value=2, max_value=7))
    top = 2 ** k - 1 + draw(st.integers(min_value=0, max_value=1))
    n = draw(st.sampled_from([2, 3]))
    cuts = sorted(draw(st.lists(st.integers(min_value=1, max_value=top - 1),
                                min_size=n - 1, max_size=n - 1, unique=True)))
    degrees = [b - a for a, b in zip([0] + cuts, cuts + [top])]
    rows = []
    for i, d in enumerate(degrees):
        row = []
        for j in range(n):
            low = Polynomial.monomial(draw(coeffs), {"y": min(d, draw(st.integers(0, 2)))})
            row.append(x ** d + low if i == j else low * Polynomial.monomial(
                1, {"z": draw(st.integers(0, max(0, d - 2)))}))
        rows.append(row)
    return PolyMatrix(rows)


@given(full_width_matrices())
@settings(max_examples=40, deadline=None)
def test_determinant_at_full_exponent_field_agrees_with_leibniz(m):
    det = determinant(m)
    assert det == _leibniz_det(m)
    degree = sum(max(e.total_degree() for e in row) for row in m.entries)
    assert det.terms[(("x", degree),)] == 1


def test_determinant_with_a_variable_in_one_row_only():
    u, w = Polynomial.var("u"), Polynomial.var("w")
    z = Polynomial.zero()
    m = PolyMatrix([
        [x + 1, y, z, Fraction(1, 2) * x],
        [y, x * y, 1, z],
        [w ** 3, 2 * w, w * u, w - 1],  # w only here
        [1, z, x - y, y ** 2],
    ])
    assert determinant(m) == _leibniz_det(m)


@st.composite
def banded_matrices(draw):
    # rows and a permutation of them.  Row i is nonzero exactly from its
    # first to its last column, a band that holds column i, so the diagonal
    # term survives; a row often repeats the band of the row above, so equal
    # bands and their stable order come up, and now and then a row is zero
    n = draw(st.integers(min_value=2, max_value=6))
    nonzero = polynomials(max_terms=2, max_exp=2).filter(lambda p: not p.is_zero())
    inner = st.one_of(st.just(Polynomial.zero()), nonzero)
    rows, band = [], (0, 0)
    for i in range(n):
        if not band[0] <= i <= band[1] or draw(st.booleans()):
            band = (draw(st.integers(0, i)), draw(st.integers(i, n - 1)))
        row = [Polynomial.zero()] * n
        for j in range(band[0], band[1] + 1):
            row[j] = draw(nonzero if j in (band[0], i, band[1]) else inner)
        rows.append(row)
    if draw(st.integers(0, 4)) == 0:
        rows[draw(st.integers(0, n - 1))] = [Polynomial.zero()] * n
    return rows, draw(st.permutations(range(n)))


@given(banded_matrices())
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
def test_band_order_keeps_the_sign_of_a_row_permutation(rows_and_perm):
    rows, perm = rows_and_perm
    permuted = PolyMatrix([rows[i] for i in perm])
    det = determinant(permuted)
    assert det == _leibniz_det(permuted)
    assert det == _permutation_sign(perm) * determinant(PolyMatrix(rows))


# coefficients in x's place: polynomials in t, y and z
x_free = polynomials(max_terms=2, max_exp=1).map(lambda p: p.substitute({"x": t}))


@st.composite
def polynomials_in_x(draw):
    degree = draw(st.integers(min_value=1, max_value=5))
    coeffs = draw(st.lists(x_free, min_size=degree, max_size=degree))
    coeffs.append(draw(x_free.filter(lambda p: not p.is_zero())))
    return coeffs


@given(polynomials_in_x(), polynomials_in_x())
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
def test_resultant_equals_the_leibniz_sum_of_its_sylvester_matrix(ca, cb):
    # ca[k] is the coefficient of x^k; a's shifted rows come before b's
    da, db = len(ca) - 1, len(cb) - 1
    a = sum((c * x ** k for k, c in enumerate(ca)), Polynomial.zero())
    b = sum((c * x ** k for k, c in enumerate(cb)), Polynomial.zero())
    rows = [[Polynomial.zero()] * (da + db) for _ in range(da + db)]
    for i in range(db):
        for k in range(da + 1):
            rows[i][i + k] = ca[da - k]
    for i in range(da):
        for k in range(db + 1):
            rows[db + i][i + k] = cb[db - k]
    assert resultant(a, b, "x") == _leibniz_det(PolyMatrix(rows))


def _gauss_det(rows):
    """Determinant of a matrix of rationals by Gaussian elimination."""
    a = [list(row) for row in rows]
    n, det = len(a), Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                for k in range(c, n):
                    a[r][k] -= f * a[c][k]
    return det


def assert_specialises(m, points=2, seed=0):
    import random

    rng = random.Random(seed)
    names = sorted({v for row in m.entries for e in row for v in e.variables})
    det = determinant(m)
    for _ in range(points):
        point = {v: Fraction(rng.randint(-30, 30), rng.randint(1, 9)) for v in names}
        special = [[e.substitute(point).constant_value() for e in row]
                   for row in m.entries]
        assert det.substitute(point) == Polynomial.const(_gauss_det(special))


def test_gauss_det_oracle():
    assert _gauss_det([[0, 1], [1, 0]]) == -1
    assert _gauss_det([[Fraction(1, 2), 3], [1, 6]]) == 0
    assert _gauss_det([[2, 0, 0], [5, 3, 0], [7, 1, Fraction(1, 3)]]) == 2


def test_hexagon_gram_and_cayley_determinants_specialise():
    from landauvar.graphs import load_graph
    from landauvar.landau import gram_matrix

    n = 6
    hexagon = load_graph({
        "vertices": [f"v{k}" for k in range(n)],
        "edges": [{"id": str(k + 1), "ends": [f"v{k}", f"v{(k + 1) % n}"],
                   "mass": f"m{k + 1}", "var": f"x{k + 1}"} for k in range(n)],
    })
    mats = gram_matrix(hexagon)
    assert mats.M.rows == 6 and mats.Sprime.rows == 7
    assert_specialises(mats.M, seed=6)
    assert_specialises(mats.Sprime, seed=7)


def test_sunrise_sylvester_determinants_specialise(monkeypatch):
    from landauvar import poly
    from landauvar.graphs import sunrise_graph, symanzik_F
    from landauvar.landau import eliminate_critical_values

    seen = []
    original = poly.determinant

    def capture(m):
        seen.append(m)
        return original(m)

    monkeypatch.setattr(poly, "determinant", capture)
    m = {i: Polynomial.var(f"m{i}") for i in (1, 2, 3)}
    f = symanzik_F(sunrise_graph()).substitute(
        {f"m{i}sq": m[i] * m[i] for i in (1, 2, 3)}
    )
    eliminate_critical_values(f, ["x1", "x2", "x3"], {"x3": 1})
    assert max(s.rows for s in seen) == 9
    for k, sylvester in enumerate(seen):
        assert_specialises(sylvester, seed=k)


@pytest.mark.parametrize("values, index", [
    ([], None), (["a", "b", "c"], None), (["a", "b", "a", "b"], 2), (["b", "a", "a"], 2),
    ([None, "a", None], 2), ([[1], "a", [2], [1]], 3), ([{"k": 1}, {"k": 1}], 1),
    ([[1], (1,), "x"], None),
])
def test_first_repeat_is_the_first_value_equal_to_an_earlier_one(values, index):
    assert first_repeat(values) == index
    assert index == next((i for i, v in enumerate(values) if v in values[:i]), None)
