"""Exact variation operators on finite homology bases.

A model carries one square matrix per Landau component, acting on a fixed
basis of relative homology classes (columns are images of basis elements).
Entries are exact rationals, held as ints when integral and as Fractions
otherwise, or None where the geometry does not pin an entry down; composition
fails loudly when an unknown entry actually matters.
The rank-one assembly rule builds an operator from a vanishing cycle and a
row of intersection numbers, and the audit helpers cross-check a model
against the hierarchy oracle.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count

from .hierarchy import ForcedZeroRule, HierarchyRelation, hierarchy_graph, word_vanishes
from .landau import GENERAL, LINEAR, QUADRATIC, LandauComponent
from .localhom import pl_sign
from .poly import PARSE_DIGIT_LIMIT, Polynomial, cut, echo, first_repeat, parse


class ModelError(ValueError):
    pass


class UnknownEntryError(ModelError):
    """A composition or image test touched an entry the model leaves open."""


# -- exact matrices with optional unknown entries --------------------------------


_INTEGER = re.compile(r"-?[0-9]+")
# the decimal exponent of an entry's text, as `Fraction` reads it
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def _exact(x) -> bool:
    """An int (not a bool) or a Fraction."""
    return type(x) is int or isinstance(x, Fraction)


# an entry, read or composed, has a numerator and a denominator below this:
# at most PARSE_DIGIT_LIMIT digits, which the interpreter prints
_ENTRY_BOUND = 10 ** PARSE_DIGIT_LIMIT


def _rat(x):
    """An entry as an int when its value is integral, else as a Fraction;
    None stays None.  Text goes through `Fraction`, except plain decimal
    integers, which `int` reads to the same value; either reads it only when
    its digits and decimal exponent add up to at most PARSE_DIGIT_LIMIT, the
    budget of an integer entry too."""
    if isinstance(x, str):
        exponent = _EXPONENT.search(x)
        digits = sum(map(str.isdigit, x[:exponent.start()] if exponent else x))
        if digits + (abs(float(exponent[1])) if exponent else 0) > PARSE_DIGIT_LIMIT:
            raise ModelError(f"entry {echo(x)} is over the budget of {PARSE_DIGIT_LIMIT} digits")
        if _INTEGER.fullmatch(x):
            return int(x)
        try:
            x = Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    if type(x) is int and abs(x) >= _ENTRY_BOUND:
        raise ModelError(f"integer entry is over the budget of {PARSE_DIGIT_LIMIT} digits")
    if x is None or type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise ModelError(f"not an exact rational entry: {echo(x)}")


def _integral(m) -> tuple:
    """(scale, scale * m), scale the lcm of the known entries' denominators: ints
    whose zero and unknown (None) entries, in any product too, sit where m's do."""
    scale = math.lcm(*(x.denominator for row in m for x in row if x is not None))
    return scale, tuple(tuple(None if x is None else x.numerator * (scale // x.denominator)
                              for x in row) for row in m)


def matrix_from_images(images) -> tuple:
    """Rows-of-tuples matrix whose j-th column is images[j]."""
    size = len(images)
    for col in images:
        if len(col) != size:
            raise ModelError("image vectors must match the basis size")
    return tuple(
        tuple(_rat(images[j][i]) for j in range(size)) for i in range(size)
    )


def identity_matrix(size: int) -> tuple:
    return tuple(
        tuple(1 if i == j else 0 for j in range(size)) for i in range(size)
    )


def mat_mul(a: tuple, b: tuple) -> tuple:
    """Product with unknown propagation; None * 0 counts as 0."""
    size = len(a)
    rows = []
    for i in range(size):
        row = []
        for j in range(size):
            acc = 0
            for k in range(size):
                x, y = a[i][k], b[k][j]
                if x == 0 or y == 0:
                    continue
                if x is None or y is None:
                    acc = None
                    break
                acc += x * y
            row.append(acc)
        rows.append(tuple(row))
    return tuple(rows)


def mat_vec(a: tuple, v: tuple) -> tuple:
    out = []
    for i in range(len(a)):
        acc = 0
        for k in range(len(v)):
            x, y = a[i][k], v[k]
            if x == 0 or y == 0:
                continue
            if x is None:
                acc = None
                break
            acc += x * y
        out.append(acc)
    return tuple(out)


def is_zero_matrix(m: tuple) -> bool:
    for row in m:
        for x in row:
            if x is None:
                raise UnknownEntryError("matrix has unknown entries")
            if x != 0:
                return False
    return True


def has_unknown(m: tuple) -> bool:
    return any(x is None for row in m for x in row)


# -- the model -------------------------------------------------------------------


@dataclass
class VariationModel:
    """Variation operators for one geometry, over a fixed homology basis.

    `vanishing` declares, per component, spanning vectors for the image of its
    operator (for simple pinches: rational multiples of the vanishing cycle);
    `intersection_rows` holds dual-cycle intersection numbers against the
    basis: a simple pinch with one vanishing cycle and a row must have the
    operator that the rank-one rule `pl_operator` builds from the two.
    """

    name: str
    n: int
    basis: tuple
    ops: dict
    components: tuple
    vanishing: dict = field(default_factory=dict)
    intersection_rows: dict = field(default_factory=dict)
    boundary_K: dict = field(default_factory=dict)
    coboundary_J: dict = field(default_factory=dict)
    conventions: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ModelError(f"model name must be a string, got {echo(self.name)}")
        if type(self.n) is not int or self.n < 0:  # refuses bool too
            raise ModelError(f"n must be a nonnegative integer, got {echo(self.n)}")
        for what, names in (("basis label", self.basis),
                            ("component id", [c.id for c in self.components])):
            repeated = first_repeat(names)
            if repeated is not None:
                raise ModelError(f"{what} {cut(names[repeated])} is given twice")
        size = len(self.basis)
        self._by_id = {c.id: c for c in self.components}
        for what, keys, known, noun in (
                ("vanishing", self.vanishing, self._by_id, "component"),
                ("intersection_rows", self.intersection_rows, self._by_id, "component"),
                ("boundary_K", self.boundary_K, set(self.basis), "basis label"),
                ("coboundary_J", self.coboundary_J, set(self.basis), "basis label")):
            stray = sorted(set(keys).difference(known))
            if stray:
                raise ModelError(f"{what} names no {noun}: {cut(stray[0])}")
        if self.ops.keys() != self._by_id.keys():
            raise ModelError("ops must cover exactly the model components")
        # one pass over each operator's entries: its shape, its exactness and
        # whether it has unknown or nonzero entries
        unknown, nonzero = set(), set()
        for cid, m in self.ops.items():
            if len(m) != size or any(len(row) != size for row in m):
                raise ModelError(f"operator for {cut(cid)} is not {size}x{size}")
            for row in m:
                for x in row:
                    if x is None:
                        unknown.add(cid)
                    elif type(x) is not int and not isinstance(x, Fraction):
                        raise ModelError(f"operator for {cut(cid)} has an entry that is"
                                         f" not an exact rational: {echo(x)}")
                    elif x:
                        nonzero.add(cid)
        for comp in self.components:
            if comp.variation_known_zero and (comp.id in unknown or comp.id in nonzero):
                raise ModelError(f"{cut(comp.id)} is flagged zero but its matrix is not")
        # every vector has one entry per basis element, and only the operators
        # may leave entries unknown
        vectors = [("vanishing vector", cid, v)
                   for cid, vs in self.vanishing.items() for v in vs]
        vectors += [("intersection row", cid, row)
                    for cid, row in self.intersection_rows.items()]
        for what, cid, v in vectors:
            if len(v) != size:
                raise ModelError(f"{what} of {cut(cid)} has {len(v)} entries for a basis"
                                 f" of {size}")
            if all(map(_exact, v)):
                continue
            if any(x is None for x in v):
                raise ModelError(f"{what} of {cut(cid)} has an unknown (null) entry")
            raise ModelError(f"{what} of {cut(cid)} has an entry that is not an exact"
                             f" rational: {echo(next(x for x in v if not _exact(x)))}")
        self._check_images(unknown)
        # derived once, as `_by_id` is above: the audits read it for every word
        self._pinches = {c.id for c in self.components
                         if c.is_simple_pinch and self.vanishing.get(c.id)}

    @functools.cached_property
    def _cleared(self) -> dict:
        """Each operator's (scale, integer matrix) from `_integral`, derived on
        first use: a command that multiplies no operator clears none, and
        loading a model clears vectors only (`_check_images`)."""
        return {cid: _integral(m) for cid, m in self.ops.items()}

    def _check_images(self, unknown):
        """A simple pinch with one vanishing cycle and a row has the rank-one
        operator of the two; any other declared span holds its images.
        Operators in `unknown` have unknown entries and are not checked.

        The rank-one test refuses an int entry of the cycle c or the row r over
        the budget of `_rat`, clears c and r to integers C = cs c and R = rs r,
        and then compares each entry p/q of the operator with s c_i r_j,
        s = pl_sign(n) = +-1, as p s cs rs == C_i R_j q, on integers: no
        operator is cleared and no Fraction built."""
        sign = pl_sign(self.n)
        for comp in self.components:
            span = self.vanishing.get(comp.id)
            if span is None or comp.id in unknown:
                continue
            m = self.ops[comp.id]
            row = self.intersection_rows.get(comp.id)
            if comp.is_simple_pinch and len(span) == 1 and row is not None:
                if any(type(x) is int and abs(x) >= _ENTRY_BOUND for x in (*span[0], *row)):
                    raise ModelError("integer entry is over the budget of"
                                     f" {PARSE_DIGIT_LIMIT} digits")
                (cs, (cycle,)), (rs, (dual,)) = _integral(span), _integral((row,))
                scale = sign * cs * rs
                if any(x.numerator * scale != ci * rj * x.denominator
                       for ci, m_row in zip(cycle, m) for rj, x in zip(dual, m_row)):
                    raise ModelError(f"{cut(comp.id)}: operator is not the Picard-Lefschetz"
                                     " map pl_sign(n) * cycle * intersection row")
                continue
            pivots = _echelon(span)
            for j in range(len(self.basis)):
                col = tuple(m[i][j] for i in range(len(self.basis)))
                if any(_reduce(col, pivots)):
                    raise ModelError(
                        f"{cut(comp.id)}: image of {cut(self.basis[j])} leaves the declared span"
                    )

    def component(self, cid: str) -> LandauComponent:
        try:
            return self._by_id[cid]
        except KeyError:
            raise ModelError(f"unknown component id {echo(cid)}") from None

    def relation(self) -> HierarchyRelation:
        return hierarchy_graph(self.components)

    def basis_vector(self, label: str) -> tuple:
        idx = self.basis.index(label)
        return tuple(1 if i == idx else 0 for i in range(len(self.basis)))


def _known_zero(m) -> bool:
    """Every entry is 0 (an unknown entry, None, is not)."""
    return all(x == 0 for row in m for x in row)


def _reduce(vector, pivots) -> list:
    """`vector` minus its components along the echelon rows `pivots`, up to
    a nonzero integer factor: zero exactly when `vector` lies in their span."""
    work = list(_integral((vector,))[1][0])
    for col, prow in pivots:
        factor = work[col]
        if factor:
            lead = prow[col]
            work = [lead * w - factor * p for w, p in zip(work, prow)]
    return work


def _echelon(vectors) -> list:
    """Fraction-free row reduction (Bareiss 1968): integer (pivot column, row)
    pairs spanning the same rational space as `vectors`, each row 0 at earlier
    pivots and divided by the gcd of its entries."""
    pivots = []
    for v in vectors:
        work = _reduce(v, pivots)
        lead = next((i for i, w in enumerate(work) if w != 0), None)
        if lead is None:
            continue
        content = math.gcd(*work)
        pivots.append((lead, [w // content for w in work]))
    return pivots


# -- operator assembly and composition --------------------------------------------


def pl_operator(n: int, vanishing_cycle, dual_row) -> tuple:
    """Rank-one variation operator: sign(n) * cycle * row."""
    cycle = tuple(_rat(x) for x in vanishing_cycle)
    row = tuple(_rat(x) for x in dual_row)
    if len(cycle) != len(row):
        raise ModelError("cycle and intersection row must have equal length")
    s = pl_sign(n)
    return tuple(tuple(sc * rj for rj in row) for sc in (s * ci for ci in cycle))


def _word_product(model: VariationModel, word) -> tuple:
    """(scale, product) of the cleared operators along `word`, unknowns kept."""
    scale, result = 1, identity_matrix(len(model.basis))
    for cid in word:
        s, op = model._cleared[model.component(cid).id]
        scale, result = scale * s, mat_mul(op, result)
    return scale, result


def compose(model: VariationModel, word) -> tuple:
    """Matrix of the iterated variation along `word` (application order:
    word[0] acts first, so the product stacks right-to-left).  An entry over
    the budget of PARSE_DIGIT_LIMIT digits is refused."""
    scale, result = _word_product(model, word)
    if has_unknown(result):
        raise UnknownEntryError(
            f"word {echo(list(word))} touches entries the model leaves unknown"
        )
    if scale != 1:
        result = tuple(tuple(_rat(Fraction(x, scale)) for x in row) for row in result)
    if any(max(abs(x.numerator), x.denominator) >= _ENTRY_BOUND for row in result for x in row):
        raise ModelError(f"word {echo(list(word))} gives an entry over the budget of"
                         f" {PARSE_DIGIT_LIMIT} digits")
    return result


def apply_word(model: VariationModel, word, basis_label: str) -> tuple:
    return mat_vec(compose(model, word), model.basis_vector(basis_label))


def nilpotency_index(model: VariationModel, subset):
    """Smallest k with every length-k word over `subset` composing to zero,
    or None when there is none.

    Subspace iteration over Q: V_1 is the sum of the column spaces and
    V_{j+1} = sum_i A_i V_j is spanned by the images of all length-(j+1)
    words, so the index is the first j with V_j = 0.  As V_{j+1} lies in V_j,
    a step that keeps the dimension has met a nonzero fixed space.
    """
    ids = sorted(subset)
    for cid in ids:
        if has_unknown(model.ops[model.component(cid).id]):
            raise UnknownEntryError(f"operator for {cut(cid)} has unknown entries")
    # a positive multiple of each operator moves the same subspaces
    ops = [model._cleared[cid][1] for cid in ids]
    space = identity_matrix(len(model.basis))
    for k in count(1):
        image = [row for _, row in _echelon(mat_vec(op, v) for op in ops for v in space)]
        if not image:
            return k
        if len(image) == len(space):
            return None
        space = image


# -- audits ------------------------------------------------------------------------


@dataclass
class AuditReport:
    model: str
    max_len: int
    words_checked: int
    violations: list
    unverified: list

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self) -> dict:
        return {
            "model": self.model,
            "max_len": self.max_len,
            "words_checked": self.words_checked,
            "violations": [list(w) for w in self.violations],
            "unverified": [list(w) for w in self.unverified],
        }


# The audit counts the matrix products it builds and refuses past the first
# budget (the bubble builds 524273 at max_len 16, over a million from 17); its
# table of exact word counts is refused above the second before the walk.
AUDIT_PRODUCT_BUDGET = 1_000_000
AUDIT_COUNT_BITS_BUDGET = 1 << 24


def check_against_hierarchy(model: VariationModel, rel: HierarchyRelation | None = None,
                            max_len: int = 4) -> AuditReport:
    """Assert (one-directionally) that oracle-forced words compose to zero.

    Words whose composition runs into unknown entries are retried through the
    image-span certificate; if still undecidable they are reported as
    unverified rather than as violations.

    The words are walked depth-first in lexicographic order, each product
    built from its prefix's with one multiplication.  A prefix whose product
    is the zero matrix certifies all of its extensions, so its forced
    extensions are counted from the oracle's walk counts instead of listed,
    and a subtree without forced words is not entered.  `words_checked` still
    counts every forced word.  A ModelError refuses a walk over the budgets.
    """
    if rel is None:
        rel = model.relation()
    rule = ForcedZeroRule.of(rel, model.components)
    # a count of s letters takes at most s * ceil(log2 |C|) bits plus a 64-bit word
    letters, rows = len(rule.letters), max(max_len, 0)
    bits = (letters + 1) * ((letters - 1).bit_length() * rows * (rows + 1) // 2
                            + 64 * rows)
    if bits > AUDIT_COUNT_BITS_BUDGET:
        raise ModelError(f"an audit to {max_len} letters would keep {bits} bits of exact"
                         f" word counts, over the budget of {AUDIT_COUNT_BITS_BUDGET}")
    forced_ext = rule.forced_extensions(max_len)
    ops = {cid: m for cid, (_, m) in model._cleared.items()}
    built = count(1)

    def mul(a, b):
        if next(built) > AUDIT_PRODUCT_BUDGET:
            raise ModelError(f"an audit to {max_len} letters builds more than the"
                             f" budget of {AUDIT_PRODUCT_BUDGET} matrix products")
        return mat_mul(a, b)

    violations, unverified = [], []
    checked = 0
    stack = [((), identity_matrix(len(model.basis)), False)]  # word, product, forced
    while stack:
        word, product, forced = stack.pop()
        rem = max_len - len(word)
        if word:
            if forced:
                checked += 1
                if not has_unknown(product):
                    if not is_zero_matrix(product):
                        violations.append(word)
                elif _span_certificate(model, word, mul) is None:
                    unverified.append(word)
            if _known_zero(product):
                checked += forced_ext[rem][None if forced else word[-1]]
                continue
        if rem <= 0:
            continue
        last = word[-1] if word else None
        for cid in reversed(rule.letters):
            child_forced = forced or rule.step(last, cid) is not None
            if child_forced or forced_ext[rem - 1][cid]:
                stack.append((word + (cid,), mul(ops[cid], product),
                              child_forced))
    return AuditReport(model.name, max_len, checked, sorted(violations),
                       sorted(unverified))


def _span_certificate(model: VariationModel, word, mul):
    """The first letter of `word`, its last excepted, that is a simple pinch
    whose declared image span the rest of the word annihilates, or None.  The
    tails are built once from the cleared operators, by at most len(word) - 2
    `mul`s from the right: tails[i] is the product of word[i+1:]."""
    pinches = [i for i, cid in enumerate(word[:-1]) if cid in model._pinches]
    if not pinches:
        return None
    tails = {len(word) - 2: model._cleared[word[-1]][1]}
    for i in range(len(word) - 3, pinches[0] - 1, -1):
        tails[i] = mul(tails[i + 1], model._cleared[word[i + 1]][1])
    for i in pinches:
        if all(x == 0 for v in model.vanishing[word[i]] for x in mat_vec(tails[i], v)):
            return word[i]
    return None


def _certify_by_model(model: VariationModel, word):
    """Model-side evidence only (no oracle): True when the word provably
    composes to zero, False when it provably does not, None when the unknown
    entries leave it open."""
    product = _word_product(model, word)[1]
    if not has_unknown(product):
        zero = is_zero_matrix(product)
        return zero, "matrix product is zero" if zero else "matrix product is nonzero"
    cid = _span_certificate(model, word, mat_mul)
    if cid is not None:
        return True, f"tail of word annihilates the image span of {cid}"
    return None, "undecidable from the model data"


def word_zero_certificate(model: VariationModel, rel: HierarchyRelation, word):
    """Try to certify that the iterated variation along `word` vanishes.

    Three routes, in order: the hierarchy oracle; the full matrix product;
    and the image-span argument, where some component is a simple pinch whose
    declared image span is annihilated by the tail of the word.
    """
    word = tuple(word)
    verdict = word_vanishes(rel, model.components, word)
    if verdict.forced_zero:
        return True, f"oracle: {verdict.reason}"
    certified, reason = _certify_by_model(model, word)
    return bool(certified), reason


# -- JSON import/export -------------------------------------------------------------


def model_to_json(model: VariationModel) -> dict:
    def enc(m):
        return [[None if x is None else str(x) for x in row] for row in m]

    return {
        "name": model.name,
        "n": model.n,
        "basis": list(model.basis),
        "ops": {cid: enc(m) for cid, m in sorted(model.ops.items())},
        "components": [c.describe() for c in model.components],
        "vanishing": {
            cid: [[str(x) for x in v] for v in vs]
            for cid, vs in sorted(model.vanishing.items())
        },
        "intersection_rows": {
            cid: [str(x) for x in row]
            for cid, row in sorted(model.intersection_rows.items())
        },
        "boundary_K": {b: sorted(s) for b, s in sorted(model.boundary_K.items())},
        "coboundary_J": {b: sorted(s) for b, s in sorted(model.coboundary_J.items())},
        "conventions": dict(model.conventions),
    }


def _names(value, what: str) -> list:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ModelError(f"malformed model document: {what} must be a list of"
                         f" strings, got {echo(value)}")
    return value


def model_from_json(data) -> VariationModel:
    # each distinct entry text is read once; the memo lives for this document
    texts = {}

    def rat(x):
        if type(x) is not str:
            return _rat(x)
        value = texts.get(x)
        if value is None:
            value = texts[x] = _rat(x)
        return value

    try:
        comps = tuple(
            LandauComponent(
                id=c["id"],
                defining=parse(c["defining"]),
                **{key: frozenset(_names(c[key], f"{cut(c['id'])} {key}"))
                   for key in ("type_J", "type_K", "simple_J", "simple_K")},
                pinch=c["pinch"],
                parity=c["parity"],
                variation_known_zero=c["variation_known_zero"],
            )
            for c in data["components"]
        )
        conventions = data.get("conventions", {})
        if not isinstance(conventions, dict):
            raise ModelError("malformed model document: conventions must be an"
                             f" object, got {echo(conventions)}")
        ops = {
            cid: tuple(tuple(map(rat, row)) for row in m)
            for cid, m in data["ops"].items()
        }
        return VariationModel(
            name=data["name"],
            n=data["n"],
            basis=tuple(_names(data["basis"], "basis")),
            ops=ops,
            components=comps,
            vanishing={
                cid: tuple(tuple(map(rat, v)) for v in vs)
                for cid, vs in data.get("vanishing", {}).items()
            },
            intersection_rows={
                cid: tuple(map(rat, row))
                for cid, row in data.get("intersection_rows", {}).items()
            },
            **{key: {b: frozenset(_names(s, f"{key} of {cut(b)}"))
                     for b, s in data.get(key, {}).items()}
               for key in ("boundary_K", "coboundary_J")},
            conventions=conventions,
        )
    except (KeyError, IndexError, TypeError, AttributeError) as exc:
        raise ModelError(f"malformed model document: {exc}") from exc


# -- builtin fixture models -----------------------------------------------------------


def _rank_one_ops(n: int, comps, vanishing: dict, rows: dict) -> dict:
    """Every operator by the rank-one rule from its cycle and row; a component
    with no vanishing cycle has a zero row, so its operator is zero."""
    return {c.id: pl_operator(n, vanishing[c.id][0] if c.id in vanishing
                              else (0,) * len(rows[c.id]), rows[c.id])
            for c in comps}


def _sets(**labels) -> dict:
    """Basis label -> the hypersurface ids given space-separated."""
    return {label: frozenset(ids.split()) for label, ids in labels.items()}


def _logarithm_model() -> VariationModel:
    t = Polynomial.var("t")
    comps = (
        LandauComponent.of("l0", t, LINEAR, "A1 A2", known_zero=True),
        LandauComponent.of("l1", t - 1, LINEAR, "A1", "B2"),
        LandauComponent.of("linf", Polynomial.var("t_inv"), LINEAR, "A1", "B1"),
    )
    vanishing = {"l1": ((0, 1),), "linf": ((0, 1),)}
    rows = {"l0": (0, 0), "l1": (-1, 0), "linf": (-1, 0)}
    return VariationModel(
        name="logarithm", n=1, basis=("sigma", "nu"), components=comps,
        ops=_rank_one_ops(1, comps, vanishing, rows), vanishing=vanishing,
        intersection_rows=rows,
        boundary_K=_sets(sigma="B1 B2", nu=""),
        coboundary_J=_sets(sigma="", nu="A1"),
    )


def _bubble_model() -> VariationModel:
    m1, m2 = Polynomial.var("m1"), Polynomial.var("m2")
    psq = Polynomial.var("psq")
    comps = (
        LandauComponent.of("l1", m1 * m1, LINEAR, "A2", "B2"),
        LandauComponent.of("l2", m2 * m2, LINEAR, "A2", "B1"),
        LandauComponent.of("lD+", psq - (m1 + m2) ** 2, QUADRATIC, "A2", parity=0),
        LandauComponent.of("lD-", psq - (m1 - m2) ** 2, QUADRATIC, "A2", parity=0),
        LandauComponent.of("lp", psq, LINEAR, "A1 A2", known_zero=True),
    )
    nu_delta = (0, -1, 1)  # nu2 - nu1
    vanishing = {"l1": ((0, 1, 0),), "l2": ((0, 0, 1),), "lD+": (nu_delta,),
                 "lD-": (nu_delta,)}
    rows = {"l1": (1, 0, 0), "l2": (-1, 0, 0), "lD+": (-1, -1, 1), "lD-": (0, -1, 1),
            "lp": (0, 0, 0)}
    return VariationModel(
        name="bubble", n=1, basis=("sigma", "nu1", "nu2"), components=comps,
        ops=_rank_one_ops(1, comps, vanishing, rows), vanishing=vanishing,
        intersection_rows=rows,
        boundary_K=_sets(sigma="B1 B2", nu1="", nu2=""),
        coboundary_J=_sets(sigma="", nu1="A2", nu2="A2"),
    )


def _dilog_model() -> VariationModel:
    t = Polynomial.var("t")
    comps = (
        LandauComponent.of("l0", t, GENERAL, "A1 A2 A3 A4 A5", "B3 B4", "A3"),
        LandauComponent.of("l1", t - 1, LINEAR, "A3", "B3 B4"),
        LandauComponent.of("linf", Polynomial.var("t_inv"), GENERAL, "A3 A4 A5",
                           "B1 B2 B3 B4", "A3"),
    )
    ops = {
        "l0": matrix_from_images([(0, 0, 0), (0, 0, 1), (0, 0, 0)]),
        "l1": matrix_from_images([(0, -1, 0), (0, 0, 0), (0, 0, 0)]),
        # fixed by the loop relation: the monodromies around 0, 1, infinity
        # compose to the identity
        "linf": matrix_from_images([(0, 1, 0), (0, 0, -1), (0, 0, 0)]),
    }
    return VariationModel(
        name="dilog", n=2, basis=("sigma", "nu_p1", "nu_p0"), ops=ops,
        components=comps,
        vanishing={"l1": ((0, 1, 0),), "l0": ((0, 0, 1),)},
        boundary_K=_sets(sigma="B1 B2 B3 B4", nu_p1="B3 B4", nu_p0=""),
        coboundary_J=_sets(sigma="", nu_p1="A3", nu_p0="A3"),
        conventions={"var_infinity": "inverse of the composite loop around 0 then 1"},
    )


# sign convention for the off-diagonal double variations of the massless
# triangle; they are determined only up to sign
_EPS_CYCLIC = {(1, 2): 1, (2, 3): 1, (3, 1): 1, (2, 1): -1, (3, 2): -1, (1, 3): -1}


def _triangle_model() -> VariationModel:
    from .landau import fixture_landau

    comps = tuple(fixture_landau("massless-triangle"))
    basis = ("sigma", "nu1", "nu2", "nu3", "mu")
    size = len(basis)
    ops = {}
    for i in (1, 2, 3):
        images = []
        # sigma -> nu_i
        sigma_img = [0] * size
        sigma_img[i] = 1
        images.append(tuple(sigma_img))
        for j in (1, 2, 3):
            if j == i:
                images.append((0,) * size)
            else:
                images.append((0, 0, 0, 0, _EPS_CYCLIC[(i, j)]))
        images.append((0,) * size)  # mu -> 0
        ops[f"l{i}"] = matrix_from_images(images)
    ops["ldelta"] = ((None,) * size,) * size  # every entry unknown
    return VariationModel(
        name="massless-triangle", n=2, basis=basis, ops=ops, components=comps,
        vanishing={
            "ldelta": ((0, 0, 0, 0, 2),),  # nu_delta = 2*mu
            "l1": ((0, 1, 0, 0, 0), (0, 0, 0, 0, 1)),
            "l2": ((0, 0, 1, 0, 0), (0, 0, 0, 0, 1)),
            "l3": ((0, 0, 0, 1, 0), (0, 0, 0, 0, 1)),
        },
        boundary_K=_sets(sigma="B1 B2 B3 B12 B13 B23", nu1="B12 B13", nu2="B12 B23",
                         nu3="B13 B23", mu=""),
        coboundary_J=_sets(sigma="", nu1="A2", nu2="A2", nu3="A2", mu="A2"),
        conventions={"epsilon": "cyclic (+1 on (1,2),(2,3),(3,1))"},
    )


_BUILTIN = {
    "logarithm": _logarithm_model,
    "bubble": _bubble_model,
    "dilog": _dilog_model,
    "massless-triangle": _triangle_model,
}


def builtin_model(name: str) -> VariationModel:
    try:
        builder = _BUILTIN[name]
    except KeyError:
        raise ModelError(
            f"unknown model {name!r}; choose from {sorted(_BUILTIN)}"
        ) from None
    return builder()
