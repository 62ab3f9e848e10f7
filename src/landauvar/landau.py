"""Landau-variety components and their type bookkeeping.

Components of the Landau variety are codimension-one loci in parameter space,
each recorded with a defining polynomial, the hypersurfaces participating in
the critical set (its type), the subset of those that are indispensable (its
simple type), the pinch kind, and the parity that controls repeated-variation
vanishing.  One-loop graphs get the full closed-form component list from the
Gram/Cayley determinants; two-loop and massless graphs are covered by fixture
lists that encode the blowup geometry as data.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction

from .graphs import FeynmanGraph, contract, icecream_graph, symanzik_F
from .poly import (Polynomial, PolyMatrix, cut, divides, echo, principal_minors,
                   resultant)

LINEAR = "linear"
QUADRATIC = "quadratic"
GENERAL = "general"


class LandauError(ValueError):
    pass


class EliminationDegenerateError(LandauError):
    """Raised when the iterated resultant collapses to the zero polynomial."""


def _ids(ids) -> frozenset:
    return frozenset(ids.split() if isinstance(ids, str) else ids)


@dataclass(frozen=True)
class LandauComponent:
    """One codimension-one singularity of the parameter family.

    `type_J` / `type_K` list the A- resp. B-hypersurface ids meeting the
    critical set; `simple_J` / `simple_K` the ones whose removal destroys
    criticality.  `parity` is fiber dimension minus stratum codimension,
    defined for linear (always -1) and quadratic pinches only.
    """

    id: str
    defining: Polynomial
    type_J: frozenset
    type_K: frozenset
    simple_J: frozenset
    simple_K: frozenset
    pinch: str
    parity: int | None = None
    variation_known_zero: bool = False

    def __post_init__(self):
        if self.pinch not in (LINEAR, QUADRATIC, GENERAL):
            raise LandauError(f"bad pinch kind {echo(self.pinch)}")
        if self.parity is not None and type(self.parity) is not int:  # bool too
            raise LandauError(f"{cut(self.id)}: parity must be an integer,"
                              f" got {echo(self.parity)}")
        if not self.simple_J <= self.type_J or not self.simple_K <= self.type_K:
            raise LandauError(f"{cut(self.id)}: simple type must refine the type")
        if self.pinch == LINEAR and self.parity != -1:
            raise LandauError(f"{cut(self.id)}: linear pinch has parity -1")
        if self.pinch == QUADRATIC and (self.parity is None or self.parity < 0):
            raise LandauError(f"{cut(self.id)}: quadratic pinch needs parity n-m >= 0")
        if self.pinch == GENERAL and self.parity is not None:
            raise LandauError(f"{cut(self.id)}: parity undefined for general critical sets")
        if self.variation_known_zero and not (
            self.pinch == LINEAR and (not self.type_K or not self.type_J)
        ):
            raise LandauError(
                f"{cut(self.id)}: variation_known_zero requires a pure-type linear pinch"
            )

    @classmethod
    def of(cls, cid, defining, pinch, J, K="", simple_J="", parity=None,
           known_zero=False) -> LandauComponent:
        """A component whose hypersurface ids are given space-separated, or as
        an iterable where they come from a graph's edge ids.  A simple pinch's
        simple type is its type, and a linear pinch has parity -1; a general
        pinch has simple type (`simple_J`, {})."""
        J, K = _ids(J), _ids(K)
        if pinch == GENERAL:
            return cls(cid, defining, J, K, _ids(simple_J), frozenset(), pinch, parity,
                       known_zero)
        return cls(cid, defining, J, K, J, K, pinch, -1 if pinch == LINEAR else parity,
                   known_zero)

    @property
    def is_simple_pinch(self) -> bool:
        return self.pinch in (LINEAR, QUADRATIC)

    def describe(self) -> dict:
        return {
            "id": self.id,
            "defining": str(self.defining),
            "type_J": sorted(self.type_J),
            "type_K": sorted(self.type_K),
            "simple_J": sorted(self.simple_J),
            "simple_K": sorted(self.simple_K),
            "pinch": self.pinch,
            "parity": self.parity,
            "variation_known_zero": self.variation_known_zero,
        }


@dataclass(frozen=True)
class OneLoopMatrices:
    """Gram matrix M and the bordered Cayley matrix S' of its massless part."""

    edge_order: tuple          # edge ids along the cycle
    M: PolyMatrix
    Sprime: PolyMatrix
    s_names: dict              # (i, j) 1-based positions -> invariant variable
    channel_substitution: dict  # s variable -> Polynomial in channel symbols


def _cycle_order(g: FeynmanGraph):
    """Edges of the single loop in traversal order, plus the vertex w_k
    between consecutive edges e_k and e_{k+1} (cyclically)."""
    if g.loop_number != 1:
        raise LandauError("graph is not one-loop")
    degree = {v: 0 for v in g.vertices}
    for e in g.edges:
        degree[e.ends[0]] += 1
        degree[e.ends[1]] += 1
    if any(d != 2 for d in degree.values()):  # else, connected and one-loop, g is a cycle
        raise LandauError("one-loop graph must be a single cycle")
    order = [g.edges[0]]
    current = g.edges[0].ends[1]
    between = [current]
    while len(order) < len(g.edges):
        e = next(e for e in g.edges if e not in order and current in e.ends)
        order.append(e)
        current = e.ends[1] if e.ends[0] == current else e.ends[0]
        between.append(current)
    return tuple(order), tuple(between)


def gram_matrix(g: FeynmanGraph) -> OneLoopMatrices:
    """M_ii = m_i^2, M_ij = (m_i^2 + m_j^2 + s_ij)/2 along the loop order.

    The s_ij are fresh invariant variables; `channel_substitution` re-expresses
    them through the graph's momentum channels as s_ij = -(p_i+...+p_{j-1})^2.
    Each entry is a sum of the halves m_i^2/2 and s_ij/2, each made once.
    """
    edges, between = _cycle_order(g)
    n1 = len(edges)
    half = Fraction(1, 2)
    s_names, subst, half_s = {}, {}, {}
    for i in range(1, n1 + 1):
        for j in range(i + 1, n1 + 1):
            name = f"s{i}{j}"
            s_names[(i, j)] = name
            half_s[i, j] = half_s[j, i] = Polynomial.var(name) * half
            momenta = frozenset(
                p for v in between[i - 1:j - 1] for p in g.legs_at(v)
            )
            sym = g.channel_symbol(momenta)
            subst[name] = Polynomial.zero() if sym is None else -Polynomial.var(sym)
    masses = [Polynomial.var(e.mass_sq) for e in edges]
    half_m = [m * half for m in masses]
    zero, one = Polynomial.zero(), Polynomial.const(1)
    m_rows = [[masses[i] if i == j else half_m[i] + half_m[j] + half_s[i + 1, j + 1]
               for j in range(n1)] for i in range(n1)]
    sp_rows = [[zero] + [one] * n1] + [
        [one] + [zero if i == j else half_s[i + 1, j + 1] for j in range(n1)]
        for i in range(n1)]
    return OneLoopMatrices(
        edge_order=tuple(e.id for e in edges),
        M=PolyMatrix(m_rows),
        Sprime=PolyMatrix(sp_rows),
        s_names=s_names,
        channel_substitution=subst,
    )


def _simple_pinch(cid, defining, j_ids, k_ids, linear, parity) -> LandauComponent:
    """The one-loop component {defining = 0}, a principal minor of M or S':
    a simple pinch, so type and simple type coincide.  The minor is never
    zero: at s_ij = -m_i^2 - m_j^2 a Gram minor is diagonal, and at s_ij = 2
    a bordered Cayley minor on k >= 2 edges is (-1)^k k."""
    return LandauComponent.of(cid, defining, LINEAR if linear else QUADRATIC, j_ids, k_ids,
                              parity=parity, known_zero=linear and not k_ids)


def oneloop_landau(g: FeynmanGraph) -> list:
    """All Landau components of a generic one-loop graph.

    For every proper edge subset I the quotient graph G/I contributes a first
    type component {det M_I = 0} meeting A_2 and the B_e with e in I, and
    (unless only one edge remains) a second type component {det S'_I = 0}
    also meeting A_1.  Every critical point is a simple pinch, so type and
    simple type coincide.  Output is sorted by (|I|, I).  All the minors of
    M come from one packing of M, and all those of S' from one of S'.
    """
    mats = gram_matrix(g)
    n1 = len(mats.edge_order)
    n = n1 - 1
    subsets = [list(s) for size in range(n1)
               for s in itertools.combinations(mats.edge_order, size)]
    subsets.sort(key=lambda s: (len(s), sorted(s)))
    keeps = [[k for k, e in enumerate(mats.edge_order) if e not in I] for I in subsets]
    # S' keeps its bordering row 0, and has no component for a single edge
    second = iter(principal_minors(mats.Sprime, [[0] + [k + 1 for k in keep]
                                                 for keep in keeps if len(keep) > 1]))
    components = []
    for I, det_m in zip(subsets, principal_minors(mats.M, keeps)):
        suffix = "" if not I else "/" + "".join(sorted(I))
        k_ids = frozenset(f"B{e}" for e in I)
        # first type: critical points of the quadric A_2 restricted to B^I
        components.append(_simple_pinch(f"lF{suffix}", det_m, "A2", k_ids, len(I) == n,
                                        n - 1 - len(I)))
        # second type: critical points of A_1 cap A_2 over B^I
        if len(I) < n:
            components.append(_simple_pinch(f"lFU{suffix}", next(second), "A1 A2", k_ids,
                                            len(I) == n - 1, n - len(I)))
    return components


def split_component(comp: LandauComponent, factors, substitution=None,
                    suffixes=None) -> list:
    """Split one component into branch components with the given defining
    factors.  The factor product must reproduce the (substituted) defining
    polynomial up to a nonzero rational, which is verified exactly."""
    defining = comp.defining
    if substitution:
        defining = defining.substitute(substitution)
    product = Polynomial.const(1)
    for f in factors:
        product = product * f
    ratio = divides(product, defining)
    if ratio is None or not ratio.is_constant() or ratio.constant_value() == 0:
        raise LandauError(f"{cut(comp.id)}: supplied factors do not divide the defining"
                          " polynomial")
    if suffixes is None:
        suffixes = [f".{i+1}" for i in range(len(factors))]
    return [replace(comp, id=comp.id + suffix, defining=factor)
            for factor, suffix in zip(factors, suffixes)]


def bubble_split(components: list, g: FeynmanGraph) -> list:
    """For a two-edge one-loop graph, split the top first-type component into
    the normal and pseudo threshold branches p^2 = (m_1 +- m_2)^2."""
    if g.loop_number != 1 or len(g.edges) != 2:
        raise LandauError("branch split is built in for two-edge loops only")
    mats = gram_matrix(g)
    e1, e2 = g.edges  # the cycle order of a two-edge loop is its edge order
    chan = mats.channel_substitution[mats.s_names[(1, 2)]]
    if chan.is_zero():
        raise LandauError("two-edge loop has no momentum channel")
    p_sq = -chan
    m1, m2 = Polynomial.var(e1.mass), Polynomial.var(e2.mass)
    substitution = {
        e1.mass_sq: m1 * m1,
        e2.mass_sq: m2 * m2,
        mats.s_names[(1, 2)]: chan,
    }
    factors = [p_sq - (m1 + m2) ** 2, p_sq - (m1 - m2) ** 2]
    out = []
    for comp in components:
        if comp.id == "lF":
            out.extend(split_component(comp, factors, substitution, ["+", "-"]))
        else:
            out.append(comp)
    return out


def eliminate_critical_values(F: Polynomial, fiber_vars, chart=None) -> Polynomial:
    """Eliminate the fiber variables from {F, dF/dx_i} by iterated resultants.

    The zero locus of the result contains every parameter value over which the
    dehomogenized F has a critical point; extraneous factors are allowed.  A
    result that collapses to the zero polynomial is reported as degenerate.
    """
    chart = dict(chart or {})
    f = F.substitute(chart) if chart else F
    remaining = [v for v in fiber_vars if v not in chart]
    if not remaining:
        raise LandauError("no fiber variables left after the chart binding")
    if len(remaining) > 2:
        raise LandauError("at most 2 fiber variables are supported")

    def elim(a: Polynomial, b: Polynomial, var: str) -> Polynomial:
        da, db = a.degree_in(var), b.degree_in(var)
        if da == 0 and db == 0:
            raise LandauError(f"nothing to eliminate in {var}")
        if db == 0:
            return b  # already free of var; vanishing is still necessary
        if da == 0:
            return a
        return resultant(a, b, var)

    if len(remaining) == 1:
        x = remaining[0]
        result = elim(f, f.derivative(x), x)
    else:
        x, y = remaining
        fx, fy = f.derivative(x), f.derivative(y)
        rx = elim(f, fx, x)
        ry = elim(f, fy, x)
        result = elim(rx, ry, y)
        if result.is_zero():
            # alternative pairing from the same critical system
            ry2 = elim(fx, fy, x)
            result = elim(rx, ry2, y)
    if result.is_zero():
        raise EliminationDegenerateError("iterated resultant vanished identically")
    return result


def icecream_ellA12() -> Polynomial:
    """Defining polynomial of the exceptional-divisor singularity of the ice
    cream cone: the quotient-bubble F evaluated at the unique critical chart
    point x3 = -(m4^2-p2^2)/(m3^2-p3^2), with denominators cleared."""
    quotient = contract(icecream_graph(), {"1", "2"})
    f_quot = symanzik_F(quotient).substitute({"x4": 1})
    m3sq, m4sq = Polynomial.var("m3sq"), Polynomial.var("m4sq")
    p2sq, p3sq = Polynomial.var("p2sq"), Polynomial.var("p3sq")
    num = p2sq - m4sq          # x3 = num / den
    den = m3sq - p3sq
    coeffs = f_quot.coefficients_in("x3")
    d = len(coeffs) - 1
    result = Polynomial.zero()
    for e, c in enumerate(coeffs):
        result = result + c * num ** e * den ** (d - e)
    return result


def icecream_ellA12_printed() -> Polynomial:
    """The closed form of the same component, kept as an independent record."""
    p1sq = Polynomial.var("p1sq")
    p2sq, p3sq = Polynomial.var("p2sq"), Polynomial.var("p3sq")
    m3sq, m4sq = Polynomial.var("m3sq"), Polynomial.var("m4sq")
    return (
        p1sq * (m3sq - p3sq) * (m4sq - p2sq)
        + (m3sq * p2sq - m4sq * p3sq) * (m3sq - m4sq + p2sq - p3sq)
    )


def _kallen(a: Polynomial, b: Polynomial, c: Polynomial) -> Polynomial:
    """The Kallen function a^2 + b^2 + c^2 - 2ab - 2ac - 2bc."""
    return a ** 2 + b ** 2 + c ** 2 - 2 * a * b - 2 * a * c - 2 * b * c


def _triangle_fixture() -> list:
    p = {i: Polynomial.var(f"p{i}sq") for i in (1, 2, 3)}
    comps = [LandauComponent.of(f"l{i}", p[i], GENERAL, "A1 A2", K, "A2")
             for i, K in ((1, "B1 B12 B13"), (2, "B2 B12 B23"), (3, "B3 B13 B23"))]
    comps.append(LandauComponent.of("ldelta", _kallen(p[1], p[2], p[3]), QUADRATIC,
                                    "A1 A2", parity=0))
    return comps


def _sunrise_fixture() -> list:
    psq = Polynomial.var("psq")
    m = {i: Polynomial.var(f"m{i}") for i in (1, 2, 3)}
    comps = [LandauComponent.of("lp", psq, GENERAL, "A1 A2 A12 A13 A23", simple_J="A2")]
    for i, j, k in ((1, 2, 3), (2, 1, 3), (3, 1, 2)):
        comps.append(LandauComponent.of(f"l{i}", m[i] * m[i], GENERAL, f"A1 A2 A{j}{k}",
                                        f"B{j} B{k} B{j}{k}", "A2"))
    for alpha, beta in itertools.product((1, -1), repeat=2):
        name = f"l{'+' if alpha > 0 else '-'}{'+' if beta > 0 else '-'}"
        comps.append(LandauComponent.of(
            name, psq - (m[1] + alpha * m[2] + beta * m[3]) ** 2, QUADRATIC, "A2",
            parity=1,  # fiber dim 2, node of the cubic on the stratum A2
        ))
    return comps


def _icecream_fixture() -> list:
    p1sq, p2sq, p3sq = (Polynomial.var(f"p{i}sq") for i in (1, 2, 3))
    return [
        LandauComponent.of("lA12", icecream_ellA12_printed(), QUADRATIC, "A2 A12",
                           parity=1),  # fiber dim 3, stratum A2 cap A12
        LandauComponent.of("lB12", _kallen(p1sq, Polynomial.var("m3sq"),
                                           Polynomial.var("m4sq")),
                           GENERAL, "A2 A12", "B1 B2 B12", "A2"),
        # the critical line passes through the collision point of the triple
        # intersection on the exceptional divisor, so A12 is in the type; only
        # A2 is indispensable
        LandauComponent.of("ldelta", _kallen(p1sq, p2sq, p3sq), GENERAL, "A1 A2 A12",
                           simple_J="A2"),
    ]


_FIXTURES = {
    "massless-triangle": _triangle_fixture,
    "sunrise": _sunrise_fixture,
    "icecream-partial": _icecream_fixture,
}


def fixture_landau(name: str) -> list:
    """Hard-coded Landau component lists for the blown-up fixture geometries."""
    try:
        builder = _FIXTURES[name]
    except KeyError:
        raise LandauError(
            f"unknown fixture {name!r}; choose from {sorted(_FIXTURES)}"
        ) from None
    return builder()
