"""Exact sparse multivariate polynomial arithmetic over the rationals.

Coefficients are `fractions.Fraction`, so every identity asserted elsewhere in
the package (Symanzik fixtures, determinant factorizations, sign bookkeeping)
holds exactly, with no tolerance management.  Monomials are stored sparsely;
printing sorts them in graded lexicographic order over the sorted variable
names, so equal polynomials always render identically.  Sums of coefficients
start from the first term, never from a zero `Fraction`.
"""

from __future__ import annotations

import heapq
import math
import re
from fractions import Fraction
from typing import Iterable, Mapping, Union

Rat = Union[int, Fraction]

# monomial = tuple of (variable, exponent), sorted by variable name, exponent > 0
Monomial = tuple


class PolynomialError(ValueError):
    pass


# an error message that echoes an input value cuts its repr to this length
ECHO_LIMIT = 200


def cut(name) -> str:
    """str(name), a name from a document, for an error message, cut after
    ECHO_LIMIT characters."""
    text = str(name)
    return text if len(text) <= ECHO_LIMIT else text[:ECHO_LIMIT] + "..."


def echo(value) -> str:
    """repr(value) for an error message, cut after ECHO_LIMIT characters."""
    return cut(repr(value))


def var_name(name: str) -> str:
    """`name`, refused unless it is a variable name."""
    if not _VAR_RE.fullmatch(name):
        raise PolynomialError(f"bad variable name {echo(name)}")
    return name


def first_repeat(values) -> int | None:
    """The index of the first of `values` equal to an earlier one, or None if
    none is: one pass over a set, where an unhashable value (a malformed
    document's name) is compared with the earlier unhashable ones alone."""
    seen, unhashable = set(), []
    for i, x in enumerate(values):
        try:
            if x in seen:
                return i
            seen.add(x)
        except TypeError:
            if x in unhashable:
                return i
            unhashable.append(x)
    return None


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise PolynomialError(f"not an exact rational coefficient: {echo(c)}")


class Polynomial:
    """A polynomial in named variables with exact rational coefficients.

    Values are immutable; all arithmetic returns new canonical-form instances
    (no zero coefficients stored, monomial keys sorted by variable name), so
    equality is plain dictionary equality and independent of how a value was
    built.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        canonical = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = _as_fraction(coeff)
                if coeff == 0:
                    continue
                mono = tuple(sorted((v, e) for v, e in mono if e != 0))
                for v, e in mono:
                    if e < 0 or not isinstance(e, int):
                        raise PolynomialError(f"bad exponent {e} for {v}")
                _accumulate(canonical, mono, coeff)
        self.terms = canonical

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def const(c: Rat) -> "Polynomial":
        return Polynomial({(): _as_fraction(c)})

    @staticmethod
    def var(name: str) -> "Polynomial":
        return Polynomial({((var_name(name), 1),): Fraction(1)})

    @staticmethod
    def monomial(c: Rat, powers: Mapping[str, int]) -> "Polynomial":
        return Polynomial({tuple(sorted(powers.items())): _as_fraction(c)})

    # -- basic queries ------------------------------------------------------

    @property
    def variables(self) -> tuple:
        """Sorted tuple of variable names that actually occur."""
        seen = set()
        for mono in self.terms:
            for v, _ in mono:
                seen.add(v)
        return tuple(sorted(seen))

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(mono == () for mono in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise PolynomialError("not a constant polynomial")
        return self.terms.get((), Fraction(0))

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e for _, e in mono) for mono in self.terms)

    def degree_in(self, var: str) -> int:
        deg = 0
        for mono in self.terms:
            for v, e in mono:
                if v == var:
                    deg = max(deg, e)
        return deg

    def is_homogeneous(self, degree: int, variables) -> bool:
        """True iff every monomial has total degree `degree` in `variables`."""
        return all(sum(e for v, e in mono if v in variables) == degree for mono in self.terms)

    # -- ring structure ------------------------------------------------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for mono, c in other.terms.items():
            _accumulate(out, mono, c)
        return _raw(out)

    __radd__ = __add__

    def __neg__(self):
        return _raw({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.terms or not other.terms:
            return Polynomial()
        out: dict = {}
        for m1, c1 in self.terms.items():
            d1 = dict(m1)
            for m2, c2 in other.terms.items():
                if m2:
                    d = dict(d1)
                    for v, e in m2:
                        d[v] = d.get(v, 0) + e
                    key = tuple(sorted(d.items()))
                else:
                    key = m1
                c = c1 * c2  # `_accumulate`, inline in the hottest loop
                s = out.get(key)
                if s is None:
                    out[key] = c
                elif s := s + c:
                    out[key] = s
                else:
                    del out[key]
        return _raw(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise PolynomialError("exponent must be a nonnegative integer")
        result = Polynomial.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:  # the square after the last bit would go unused
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    # -- calculus / substitution ---------------------------------------------

    def derivative(self, var: str) -> "Polynomial":
        out: dict = {}
        for mono, c in self.terms.items():
            d = dict(mono)
            e = d.get(var, 0)
            if e == 0:
                continue
            if e == 1:
                del d[var]
            else:
                d[var] = e - 1
            _accumulate(out, tuple(sorted(d.items())), c * e)
        return _raw(out)

    def substitute(self, bindings: Mapping[str, "Polynomial | Rat"]) -> "Polynomial":
        """Exact substitution of polynomials (or rationals) for variables, in one
        pass over the terms: rational and constant values are folded into the
        coefficient through cached powers, and only other values multiplied."""
        if not bindings:
            return self
        scalars, values = {}, {}
        for v, val in bindings.items():
            if not isinstance(val, Polynomial):
                scalars[v] = _as_fraction(val)
            elif val.is_constant():
                scalars[v] = val.terms.get((), Fraction(0))
            else:
                values[v] = [val]  # its powers 1, 2, ..., as far as needed
        cache: dict = {}  # (variable, exponent) -> power of a scalar
        out: dict = {}
        for mono, c in self.terms.items():
            rest, factors = [], []
            for pair in mono:
                v, e = pair
                if v in scalars:
                    if pair not in cache:
                        cache[pair] = scalars[v] ** e
                    c *= cache[pair]
                elif v in values:
                    powers = values[v]
                    while len(powers) < e:
                        powers.append(powers[-1] * powers[0])
                    factors.append(powers[e - 1])
                else:
                    rest.append(pair)
            term = {tuple(rest): c} if c else {}
            for factor in factors:
                term = (_raw(term) * factor).terms
            for key, coeff in term.items():
                _accumulate(out, key, coeff)
        return _raw(out)

    def evaluate(self, assignment: Mapping[str, complex]) -> complex:
        """Numeric evaluation; every occurring variable must be assigned."""
        total = 0j
        for mono, c in self.terms.items():
            val = complex(c)
            for v, e in mono:
                if v not in assignment:
                    raise PolynomialError(f"unassigned variable {echo(v)}")
                val *= assignment[v] ** e
            total += val
        return total

    def coefficients_in(self, var: str) -> list:
        """Coefficients [c_0, ..., c_d] of powers of `var`, as Polynomials."""
        d = self.degree_in(var)
        coeffs = [dict() for _ in range(d + 1)]
        for mono, c in self.terms.items():
            # each term has its own (power of var, rest) pair: nothing to add up
            e = next((e for v, e in mono if v == var), 0)
            coeffs[e][tuple(pair for pair in mono if pair[0] != var)] = c
        return [_raw(layer) for layer in coeffs]

    # -- monomial order and rendering ----------------------------------------

    def __str__(self):
        """The terms in descending graded lexicographic order over the sorted
        variable names.  The sort key is one int per monomial, a degree field
        above one field per variable, each as wide as the largest exponent; so
        each (variable, exponent) pair adds a fixed int to it.  Coefficients
        are written from their numerator and denominator, as `str(Fraction)`."""
        if not self.terms:
            return "0"
        pairs = {pair for mono in self.terms for pair in mono}
        names = sorted({v for v, _ in pairs})
        w = max((e for _, e in pairs), default=0).bit_length()
        shift = {v: w * (len(names) - k) for k, v in enumerate(names, 1)}
        weight = {(v, e): (e << shift[v]) + (e << w * len(names)) for v, e in pairs}.__getitem__
        factor = {(v, e): f"{v}^{e}" if e > 1 else v for v, e in pairs}.__getitem__
        parts = []
        for mono, coeff in sorted(self.terms.items(), key=lambda t: sum(map(weight, t[0])),
                                  reverse=True):
            body = "*".join(map(factor, mono))
            n, d = coeff.numerator, coeff.denominator
            mag = str(abs(n)) if d == 1 else f"{abs(n)}/{d}"
            if not body:
                text = mag
            elif mag == "1":
                text = body
            else:
                text = f"{mag}*{body}"
            if not parts:
                parts.append(text if n > 0 else f"-{text}")
            else:
                parts.append(f"+ {text}" if n > 0 else f"- {text}")
        return " ".join(parts)

    def __repr__(self):
        return f"Polynomial({self})"


def _grlex_key(varorder: tuple):
    """Graded lexicographic sort key on monomials in the variables
    `varorder`: total degree first, then the list of exponents along
    `varorder`.  It orders the remainder in `divides`."""
    index = {v: i for i, v in enumerate(varorder)}
    zeros = [0] * len(varorder)

    def key(mono: Monomial):
        exps = zeros[:]
        for v, e in mono:
            exps[index[v]] = e
        return sum(exps), exps

    return key


def _accumulate(out: dict, key, c: Fraction) -> None:
    """Add the nonzero coefficient c to out[key], dropping a sum that cancels."""
    s = out.get(key)
    if s is None:
        out[key] = c
    elif s := s + c:
        out[key] = s
    else:
        del out[key]


def _raw(terms: dict) -> Polynomial:
    """Internal: wrap an already-canonical term dict without re-validation."""
    p = object.__new__(Polynomial)
    p.terms = terms
    return p


_VAR_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[()+\-*/^]))"
)
# `parse` recurses through four frames per open parenthesis; deeper nesting
# than this is refused before the recursion limit is reached
PARSE_NESTING_LIMIT = 100
# `base^k` is refused before it is expanded when k, or C(t+k-1, k), the terms
# that a t-term base can reach, is over its budget: the cost grows with both,
# and with the size of the coefficients.  Medians of 5 runs in process on a
# 2-vCPU VM:
PARSE_EXPONENT_LIMIT = 400  # (a+b)^400 0.32 s, (123456789*a+987654321*b)^400 2.4 s
PARSE_POWER_TERM_LIMIT = 1000  # (a+b+c)^43, 990 terms, 0.39 s
# every coefficient that `parse` builds has a numerator and a denominator of at
# most this many bits, so it prints in fewer than the interpreter's 4300 digits;
# an integer token of up to PARSE_DIGIT_LIMIT digits fits in it
PARSE_COEFFICIENT_BITS_LIMIT = 14000
PARSE_DIGIT_LIMIT = int(PARSE_COEFFICIENT_BITS_LIMIT * math.log10(2))  # 4214


def _height(p: Polynomial) -> int:
    """Bits of p's largest numerator plus those of the product of its distinct
    denominators, a multiple of their lcm L: no numerator or denominator of p
    has more bits, nor any coefficient of the integer polynomial L*p."""
    coeffs = p.terms.values()
    return (max((abs(c.numerator).bit_length() for c in coeffs), default=0)
            + sum((d - 1).bit_length() for d in {c.denominator for c in coeffs}))


def _check_budget(what: str, terms: int, bits: int) -> None:
    if terms > PARSE_POWER_TERM_LIMIT:
        raise PolynomialError(
            f"{what} can reach {terms} terms, over the budget of {PARSE_POWER_TERM_LIMIT}")
    if bits > PARSE_COEFFICIENT_BITS_LIMIT:
        raise PolynomialError(f"{what} can reach {bits}-bit coefficients, over the budget"
                              f" of {PARSE_COEFFICIENT_BITS_LIMIT} bits")


def parse(text: str) -> Polynomial:
    """Parse the canonical text grammar back into a Polynomial.

    Grammar: sums/differences of products of factors; a factor is a rational
    constant (``3``, ``3/4``), a variable, or a parenthesized expression,
    optionally raised to a nonnegative integer power with ``^``.
    """
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise PolynomialError(f"cannot tokenize {echo(text[pos:])}")
            break
        tokens.append(m)
        pos = m.end()
    toks = [(m.lastgroup, m.group(m.lastgroup)) for m in tokens]
    depth = 0
    for kind, val in toks:
        depth += (val == "(") - (val == ")")
        if depth > PARSE_NESTING_LIMIT:
            raise PolynomialError("expression is nested too deeply")
        if kind == "int" and len(val) > PARSE_DIGIT_LIMIT:  # before `int` reads it
            raise PolynomialError(f"integer of {len(val)} digits is over the budget"
                                  f" of {PARSE_DIGIT_LIMIT} digits")
    idx = 0

    def peek():
        return toks[idx] if idx < len(toks) else (None, None)

    def take(expect=None):
        nonlocal idx
        kind, val = peek()
        if kind is None:
            raise PolynomialError("unexpected end of input")
        if expect is not None and val != expect:
            raise PolynomialError(f"expected {expect!r}, got {echo(val)}")
        idx += 1
        return kind, val

    def parse_expr() -> Polynomial:
        sign = 1
        kind, val = peek()
        if kind == "op" and val in "+-":
            take()
            sign = -1 if val == "-" else 1
        result = parse_term() * sign
        while True:
            kind, val = peek()
            if kind == "op" and val in "+-":
                take()
                t = parse_term()
                result = result + (t if val == "+" else -t)
                # a sum can grow a denominator: bound the coefficients it changed
                _check_budget("sum", 0, max((max(abs(c.numerator), c.denominator).bit_length()
                                             for c in map(result.terms.get, t.terms) if c),
                                            default=0))
            else:
                return result

    def parse_term() -> Polynomial:
        result = parse_factor()
        while True:
            kind, val = peek()
            if kind == "op" and val == "*":
                take()
                factor = parse_factor()
                ta, tb = len(result.terms), len(factor.terms)
                # a coefficient of the product sums at most min(ta, tb) products
                _check_budget(f"product of {ta} and {tb} terms", ta * tb,
                              _height(result) + _height(factor) + (min(ta, tb) - 1).bit_length())
                result = result * factor
            else:
                return result

    def parse_factor() -> Polynomial:
        base = parse_atom()
        kind, val = peek()
        if kind == "op" and val == "^":
            take()
            k, v = take()
            if k != "int":
                raise PolynomialError(f"bad exponent {echo(v)}")
            k = int(v)
            if k > PARSE_EXPONENT_LIMIT:
                raise PolynomialError(
                    f"exponent {k} is over the budget of {PARSE_EXPONENT_LIMIT}")
            t = len(base.terms)
            if k > 1:  # ^0 and ^1 expand nothing; (L*base)^k's coefficients are <= (t 2^h)^k
                _check_budget(f"power ^{k} of {t} terms", math.comb(t + k - 1, k),
                              k * (_height(base) + (t - 1).bit_length()))
            return base ** k
        return base

    def parse_atom() -> Polynomial:
        kind, val = take()
        if kind == "int":
            num = int(val)
            k, v = peek()
            if k == "op" and v == "/":
                take()
                k2, v2 = take()
                if k2 != "int" or int(v2) == 0:
                    raise PolynomialError(f"bad rational constant {val}/{v2}")
                return Polynomial.const(Fraction(num, int(v2)))
            return Polynomial.const(num)
        if kind == "name":
            return Polynomial.var(val)
        if kind == "op" and val == "(":
            inner = parse_expr()
            take(")")
            return inner
        raise PolynomialError(f"unexpected token {echo(val)}")

    result = parse_expr()
    if idx != len(toks):
        raise PolynomialError(f"trailing input at token {echo(toks[idx][1])}")
    return result


def divides(d: Polynomial, a: Polynomial):
    """Return the quotient q with a == d*q, or None if no such q exists.

    Division by the leading term of d in graded lexicographic order, on
    exponent vectors.  The remainder is a dict with a heap of its terms'
    negated `_grlex_key` keys, so each step pops the leading term instead of
    scanning the remainder; a key whose term has cancelled is skipped.  If a
    is a multiple of d, so is every remainder, and its leading term is
    divisible by d's; so the first leading term that is not shows that a is
    not a multiple.
    """
    if d.is_zero():
        raise PolynomialError("zero divisor polynomial")
    if a.is_zero():
        return Polynomial()
    names = tuple(sorted(set(a.variables) | set(d.variables)))
    key = _grlex_key(names)
    lead_mono = max(d.terms, key=key)
    lead, lead_c = key(lead_mono)[1], d.terms[lead_mono]
    rest = [(key(mono)[1], c) for mono, c in d.terms.items() if mono != lead_mono]
    rem = {}
    heap = []
    for mono, c in a.terms.items():
        total, exps = key(mono)
        rem[tuple(exps)] = c
        heap.append((-total, [-e for e in exps], tuple(exps)))
    heapq.heapify(heap)
    quotient = {}
    while heap:
        exps = heapq.heappop(heap)[2]
        c = rem.pop(exps, None)
        if c is None:
            continue
        q = [e - f for e, f in zip(exps, lead)]
        if min(q, default=0) < 0:
            return None
        qc = c / lead_c
        quotient[tuple((v, e) for v, e in zip(names, q) if e)] = qc
        for dexps, dc in rest:
            prod = tuple(e + f for e, f in zip(q, dexps))
            s = rem.get(prod)
            if s is None:
                rem[prod] = -qc * dc
                heapq.heappush(heap, (-sum(prod), [-e for e in prod], prod))
            elif s == qc * dc:
                del rem[prod]
            else:
                rem[prod] = s - qc * dc
    return _raw(quotient)


class PolyMatrix:
    """Rectangular matrix of Polynomials."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable]):
        grid = []
        for row in entries:
            grid.append([e if isinstance(e, Polynomial) else Polynomial.const(e) for e in row])
        if not grid:
            raise PolynomialError("empty matrix")
        width = len(grid[0])
        if any(len(r) != width for r in grid):
            raise PolynomialError("ragged matrix")
        self.entries = grid
        self.rows = len(grid)
        self.cols = width

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def submatrix(self, drop_rows=(), drop_cols=()):
        dr, dc = set(drop_rows), set(drop_cols)
        grid = [
            [self.entries[i][j] for j in range(self.cols) if j not in dc]
            for i in range(self.rows)
            if i not in dr
        ]
        return PolyMatrix(grid)

    def __mul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise PolynomialError("shape mismatch")
        grid = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = Polynomial()
                for k in range(self.cols):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            grid.append(row)
        return PolyMatrix(grid)

    def __eq__(self, other):
        return (
            isinstance(other, PolyMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self):
        body = "; ".join(", ".join(str(e) for e in row) for row in self.entries)
        return f"PolyMatrix[{body}]"


def permutation_sign(perm) -> int:
    """Sign of the permutation i -> perm[i] of 0..n-1: (-1)^(n - cycles), in O(n)."""
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        cycles += not seen[start]
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
    return -1 if (len(perm) - cycles) % 2 else 1


def principal_minors(m: PolyMatrix, index_sets) -> list:
    """The determinant of the principal submatrix of m on each of
    `index_sets`, in order, by Laplace expansion along the rows, memoised
    over the set of columns used so far.  The empty set's minor is 1.

    Division-free: a minor is built from sums of products of entries only,
    and equals the Leibniz sum over permutations, grouped by the columns
    that the leading rows take.  After row i, `minors` maps each set of i+1
    used columns (a bitmask) to the signed minor of rows 0..i on those
    columns.  Choosing column j for the next row flips the sign once per used
    column to the right of j.  Zero entries and zero minors are skipped, and
    a partial minor is dropped once it leaves out a column that is zero in
    every later row.

    The rows are expanded in band order, a stable sort by first and then
    last nonzero column, and the result is multiplied by the sign of that
    row permutation.  Rows that close a column early then come first, so a
    banded matrix keeps few live column sets.  `resultant` stacks all of
    a's shifted rows above all of b's, and in that order no column is
    closed before b's block starts: the 9x9 Sylvester matrices of the
    sunrise elimination peak at 126 live sets, against 10 in band order.
    Dense matrices are already in band order and are expanded as given.

    The expansion runs on a packed integer form, made once for all the
    minors.  Row i is multiplied by the lcm L_i of its coefficient
    denominators, so every coefficient is an int and a minor on rows K is
    det(diag(L) M)_K / prod(L_K).  A monomial over the matrix's sorted
    variables is one int with a field of w bits per variable, where w is the
    bit length of D, the sum over rows of the row's largest total degree: no
    exponent in any partial minor exceeds D, so a product of monomials is one
    integer addition with no carry between fields.  Distinct monomials stay
    distinct ints, so a minor's terms come out in the order that its
    submatrix packed alone gives them.  Monomials and coefficients are
    decoded once for all the minors.
    """
    if m.rows != m.cols:
        raise PolynomialError("determinant of non-square matrix")
    names = sorted({v for row in m.entries for e in row for mono in e.terms for v, _ in mono})
    shift = {v: k for k, v in enumerate(names)}
    w = sum(max((sum(p for _, p in mono) for e in row for mono in e.terms), default=0)
            for row in m.entries).bit_length()
    lcms, packed = [], []
    for row in m.entries:
        lcm = math.lcm(*(c.denominator for e in row for c in e.terms.values()))
        lcms.append(lcm)
        entries = []
        for j, e in enumerate(row):
            if e.terms:
                terms = [(sum(power << w * shift[v] for v, power in mono),
                          c.numerator * (lcm // c.denominator))
                         for mono, c in e.terms.items()]
                entries.append((j, terms, [(p, -c) for p, c in terms]))
        packed.append(entries)
    field = (1 << w) - 1
    monomials, fractions, out = {}, {}, []
    for keep in index_sets:
        keep = sorted(keep)
        n = len(keep)
        column = {j: k for k, j in enumerate(keep)}
        rows = [[(column[j], t, neg) for j, t, neg in packed[i] if j in column] for i in keep]
        masks = [sum(1 << j for j, _, _ in entries) for entries in rows]
        # Expand the rows in band order: by first, then last nonzero column (a
        # zero row has neither and goes first).  det(M) = sign(order) det(M[order]).
        bands = [((b & -b).bit_length(), b.bit_length()) for b in masks]
        order = sorted(range(n), key=bands.__getitem__)
        rows = [rows[i] for i in order]
        masks = [masks[i] for i in order]
        sign = permutation_sign(order)
        scale = math.prod(lcms[i] for i in keep)
        # need[i]: columns zero in every row below i, which rows 0..i must use
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
        terms = {}
        for p, c in minors.get((1 << n) - 1, {}).items():
            if p not in monomials:
                mono, q = [], p
                for v in names:
                    if q & field:
                        mono.append((v, q & field))
                    q >>= w
                monomials[p] = tuple(mono)
            ratio = sign * c, scale
            if ratio not in fractions:
                fractions[ratio] = Fraction(*ratio)
            terms[monomials[p]] = fractions[ratio]
        out.append(_raw(terms))
    return out


def determinant(m: PolyMatrix) -> Polynomial:
    """Exact determinant: the principal minor of m on all of its rows."""
    return principal_minors(m, [range(m.rows)])[0]


def resultant(a: Polynomial, b: Polynomial, var: str) -> Polynomial:
    """Sylvester resultant with respect to `var`, a's coefficient rows first."""
    da, db = a.degree_in(var), b.degree_in(var)
    if da == 0 or db == 0:
        raise PolynomialError(f"resultant requires positive degree in {var!r}")
    ca = a.coefficients_in(var)  # index = power of var
    cb = b.coefficients_in(var)
    size = da + db
    zero = Polynomial()
    grid = [[zero] * size for _ in range(size)]
    for i in range(db):
        for k in range(da + 1):
            grid[i][i + k] = ca[da - k]
    for i in range(da):
        for k in range(db + 1):
            grid[db + i][i + k] = cb[db - k]
    return determinant(PolyMatrix(grid))
