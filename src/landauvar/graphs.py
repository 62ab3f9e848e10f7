"""Feynman graphs and their Symanzik polynomials.

A graph is a connected multigraph whose edges carry a Schwinger variable and a
mass symbol, and whose vertices carry external momentum labels.  The first
Symanzik polynomial sums over spanning trees, the second over spanning
2-forests with the squared momentum flowing through the cut; the printed sign
convention is ``F = F0 + U * sum_e m_e^2 x_e`` with ``F0`` carrying a minus
sign on each channel invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .poly import Polynomial, _accumulate, _raw, cut, echo, first_repeat, var_name


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class Edge:
    id: str
    ends: tuple  # (vertex, vertex)
    mass: str    # mass symbol, e.g. "m1"; squared symbol is f"{mass}sq"
    var: str     # Schwinger variable name, e.g. "x1"

    @property
    def mass_sq(self) -> str:
        return f"{self.mass}sq"

    def is_self_loop(self) -> bool:
        return self.ends[0] == self.ends[1]


def components(vertices, edges) -> dict:
    """Map each vertex to the first vertex of its connected class, with
    `edges` given as endpoint pairs."""
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    first = {}
    return {v: first.setdefault(find(v), v) for v in vertices}


class FeynmanGraph:
    """Connected multigraph with masses, Schwinger variables and legs."""

    def __init__(self, vertices, edges, legs=None, channels=None):
        self.vertices = tuple(dict.fromkeys(vertices))
        self.edges = tuple(edges)
        self.legs = tuple(legs or ())  # (vertex, momentum symbol) pairs
        # frozenset of momentum labels -> name of the channel's invariant
        self.channels = {frozenset(k): v for k, v in (channels or {}).items()}
        self._validate()
        self.momenta = frozenset(p for _, p in self.legs)

    def _validate(self):
        vset = set(self.vertices)
        if not vset:
            raise GraphError("graph needs at least one vertex")
        for e in self.edges:
            if e.ends[0] not in vset or e.ends[1] not in vset:
                raise GraphError(f"edge {cut(e.id)} has unknown endpoint")
        if first_repeat([e.var for e in self.edges]) is not None:
            raise GraphError("edge variable names must be pairwise distinct")
        if first_repeat([e.id for e in self.edges]) is not None:
            raise GraphError("edge ids must be pairwise distinct")
        for v, _ in self.legs:
            if v not in vset:
                raise GraphError(f"leg attached to unknown vertex {cut(v)}")
        momenta = [p for _, p in self.legs]
        repeated = first_repeat(momenta)
        if repeated is not None:
            raise GraphError(f"malformed graph document: leg momentum {cut(momenta[repeated])}"
                             " is given twice")
        classes = components(self.vertices, (e.ends for e in self.edges))
        if len(set(classes.values())) != 1:
            raise GraphError("graph must be connected")

    @property
    def loop_number(self) -> int:
        return len(self.edges) - len(self.vertices) + 1

    def legs_at(self, vertex) -> tuple:
        return tuple(p for v, p in self.legs if v == vertex)

    def channel_symbol(self, subset: frozenset):
        """Invariant name for a momentum subset, or None when it vanishes (the
        empty or full set); a subset and its complement name the same one,
        which must be a variable name."""
        if not subset or subset == self.momenta:
            return None
        for side in (subset, self.momenta - subset):
            if side in self.channels:
                return var_name(self.channels[side])
        raise GraphError(f"no invariant symbol for channel {cut(sorted(subset))}")

    # -- combinatorics -------------------------------------------------------

    def spanning_forests(self, k: int) -> list:
        """Spanning forests of k trees as (edge ids, vertices of the tree
        holding the first vertex), sorted by edge ids."""
        ids = frozenset(e.id for e in self.edges)
        return [(ids - {e.id for e in outside},
                 frozenset(v for i, v in enumerate(self.vertices) if side >> i & 1))
                for outside, side in self._forests(k)]

    def _forests(self, k: int):
        """Yield each spanning forest of k trees, sorted by edge ids, as (the
        edges outside it, the vertices of the tree holding the first vertex as
        a bitmask, bit i for vertex i): deletion-contraction over the edges
        sorted by id, on a union-find by size without path compression, so
        that one undo reverses a contraction (Westbrook and Tarjan, 1989)."""
        need, edges = len(self.vertices) - k, sorted(self.edges, key=lambda e: e.id)
        index = {v: i for i, v in enumerate(self.vertices)}
        ends = [(index[e.ends[0]], index[e.ends[1]]) for e in edges]
        parent = list(range(len(index)))
        mask = [1 << i for i in parent]  # the vertices of a class, at its root

        def find(v):
            while parent[v] != v:
                v = parent[v]
            return v

        taken, outside, i = [], [], 0  # taken: (edge index, root merged, root kept, deletions)
        while True:
            while len(taken) < need and len(outside) <= len(edges) - need:  # not too many deleted
                a, b = find(ends[i][0]), find(ends[i][1])
                if a == b:
                    outside.append(edges[i])
                else:
                    if mask[a].bit_count() > mask[b].bit_count():
                        a, b = b, a
                    parent[a], mask[b] = b, mask[b] | mask[a]
                    taken.append((i, a, b, len(outside)))
                i += 1
            if len(taken) == need:
                yield outside + edges[i:], mask[find(0)]
            if not taken:
                return
            i, a, b, deleted = taken.pop()  # the last contraction: its edge is deleted
            parent[a], mask[b] = a, mask[b] ^ mask[a]
            outside[deleted:] = [edges[i]]  # in place of the deletions after it
            i += 1

    def __repr__(self):
        return (f"FeynmanGraph(|V|={len(self.vertices)}, |E|={len(self.edges)}, "
                f"h1={self.loop_number})")


# U sums over the tau(G) spanning trees and F over at most tau(G) * (|V| - 1)
# spanning 2-forests (a tree less one edge) plus tau(G) * |E| mass terms, so
# tau(G) * (|V| - 1 + |E|) bounds the terms of F, and of U once G has an edge.
# `symanzik_U` counts the trees as it walks them and refuses a graph at the
# first tree t with t * (|V| - 1 + |E|) over this many terms, and `symanzik_F`
# builds U before it walks any 2-forest.  `symanzik` takes about 0.8 s on the
# 6-loop ladder (93152 terms) and 0.85 s on the theta graph of two 30-edge
# paths and one edge (115200); the 7-loop ladder (401968) and K7 (453789,
# about 6 s) are refused at trees 4055 and 5556, in about 0.05 s.
SYMANZIK_TERM_BUDGET = 150000


def symanzik_U(g: FeynmanGraph) -> Polynomial:
    """First Symanzik polynomial: sum over spanning trees of prod_{e not in T} x_e."""
    terms, one = {}, Fraction(1)
    width, budget = len(g.vertices) - 1 + len(g.edges), SYMANZIK_TERM_BUDGET
    for t, (outside, _) in enumerate(g._forests(1), 1):
        if t * width > budget:  # a product, so that a graph with no edge (width 0) passes
            raise GraphError(
                f"graph with at least {t} spanning trees, {len(g.vertices)} vertices and"
                f" {len(g.edges)} edges is over the budget of {budget} Symanzik terms:"
                f" tau(G) * (|V| - 1 + |E|) >= {t * width}")
        _accumulate(terms, tuple(sorted((e.var, 1) for e in outside)), one)
    return _raw(terms)


def symanzik_F(g: FeynmanGraph, u: Polynomial | None = None) -> Polynomial:
    """Second Symanzik polynomial F = F0 + U * sum_e m_e^2 x_e; a caller that
    already holds U = symanzik_U(g) passes it as `u`, so that the spanning
    trees are not enumerated again.  F0's terms may cancel a mass term, when
    a channel is named like a mass symbol."""
    if u is None:  # first, so that a graph over the term budget walks no 2-forest
        u = symanzik_U(g)
    bit = {v: 1 << i for i, v in enumerate(g.vertices)}
    at = sum({bit[v] for v, _ in g.legs})  # the vertices carrying a leg
    symbols = {}  # the vertices of `at` on a side -> the invariant of its channel
    terms, one, minus_one = {}, Fraction(1), Fraction(-1)
    for outside, side in g._forests(2):
        if side & at not in symbols:
            symbols[side & at] = g.channel_symbol(frozenset(p for v, p in g.legs if bit[v] & side))
        if (sym := symbols[side & at]) is not None:
            powers = dict.fromkeys((e.var for e in outside), 1)
            powers[sym] = powers.get(sym, 0) + 1
            _accumulate(terms, tuple(sorted(powers.items())), minus_one)
    mass_part = {}  # sum_e m_e^2 x_e
    for e in g.edges:
        powers = {var_name(e.mass_sq): 1}
        powers[var_name(e.var)] = powers.get(e.var, 0) + 1
        _accumulate(mass_part, tuple(sorted(powers.items())), one)
    return _raw(terms) + u * _raw(mass_part)


def contract(g: FeynmanGraph, edge_ids) -> FeynmanGraph:
    """Quotient graph G/I: delete the edges of I and identify their endpoints
    componentwise, each class named by its first vertex.  Self-loops in I are
    rejected."""
    ids = set(edge_ids)
    unknown = ids - {e.id for e in g.edges}
    if unknown:
        raise GraphError(f"unknown edges {cut(sorted(unknown))}")
    if ids == {e.id for e in g.edges}:
        raise GraphError("cannot contract every edge")
    for e in g.edges:
        if e.id in ids and e.is_self_loop():
            raise GraphError(f"cannot contract self-loop {cut(e.id)}")
    remap = components(g.vertices, (e.ends for e in g.edges if e.id in ids))
    vertices = tuple(dict.fromkeys(remap[v] for v in g.vertices))
    edges = tuple(
        Edge(e.id, (remap[e.ends[0]], remap[e.ends[1]]), e.mass, e.var)
        for e in g.edges if e.id not in ids
    )
    legs = tuple((remap[v], p) for v, p in g.legs)
    return FeynmanGraph(vertices, edges, legs, dict(g.channels))


def _text(value, field: str, edge=None) -> str:
    if isinstance(value, str):
        return value
    where = field if edge is None else f"edge {cut(edge)} {field}"
    raise GraphError(f"malformed graph document: {where} must be a string, got {echo(value)}")


def _list(value, field: str, length=None) -> list:
    if isinstance(value, list) and length in (None, len(value)):
        return value
    shape = "a list" if length is None else f"a list of {length} vertices"
    raise GraphError(f"malformed graph document: {field} must be {shape}, got {echo(value)}")


def load_graph(data) -> FeynmanGraph:
    """Build a FeynmanGraph from the JSON document schema.

    Schema: {"vertices": [...], "edges": [{"id","ends","mass","var"}, ...],
    "legs": [{"vertex","momentum"}, ...], "channels": {"p1": "p1sq", ...}};
    channel keys join momentum labels with '+'.  Every name is a string.
    """
    try:
        vertices = [_text(v, "vertex") for v in _list(data["vertices"], "vertices")]
        edges = []
        for e in _list(data["edges"], "edges"):
            eid = _text(e["id"], "edge id")
            ends = tuple(_text(v, "endpoint", eid)
                         for v in _list(e["ends"], f"edge {cut(eid)} ends", 2))
            edges.append(Edge(eid, ends, _text(e["mass"], "mass", eid),
                              _text(e["var"], "var", eid)))
        legs = [(_text(l["vertex"], "leg vertex"), _text(l["momentum"], "leg momentum"))
                for l in _list(data.get("legs", []), "legs")]
        channels = data.get("channels", {})
        if not isinstance(channels, dict):
            raise GraphError(
                f"malformed graph document: channels must be an object, got {echo(channels)}")
        channels = {
            frozenset(key.split("+")): _text(sym, f"channel {cut(key)} symbol")
            for key, sym in channels.items()
        }
        return FeynmanGraph(vertices, edges, legs, channels)
    except (KeyError, IndexError, TypeError) as exc:
        raise GraphError(f"malformed graph document: {exc}") from exc


# -- builtin graphs ------------------------------------------------------------


def _builtin(vertices: str, ends, legs: str, channels: dict) -> FeynmanGraph:
    """A builtin graph: edge i, counted from 1, joins the vertices ends[i-1]
    and has id "i", mass mi and variable xi; leg k enters legs[k-1] and
    carries pk.  Vertex lists are given space-separated."""
    return load_graph({
        "vertices": vertices.split(),
        "edges": [{"id": f"{i}", "ends": pair.split(), "mass": f"m{i}", "var": f"x{i}"}
                  for i, pair in enumerate(ends, 1)],
        "legs": [{"vertex": v, "momentum": f"p{k}"} for k, v in enumerate(legs.split(), 1)],
        "channels": channels,
    })


def bubble_graph() -> FeynmanGraph:
    return _builtin("v1 v2", ["v1 v2", "v2 v1"], "v1 v2", {"p1": "psq"})


def triangle_graph() -> FeynmanGraph:
    # edge i sits opposite the vertex with incoming momentum p_i
    return _builtin("v1 v2 v3", ["v2 v3", "v3 v1", "v1 v2"], "v1 v2 v3",
                    {"p1": "p1sq", "p2": "p2sq", "p3": "p3sq"})


def sunrise_graph() -> FeynmanGraph:
    return _builtin("v1 v2", ["v1 v2"] * 3, "v1 v2", {"p1": "psq"})


def icecream_graph() -> FeynmanGraph:
    # p1 enters the lone vertex of the loop gamma = {1,2}; p2 and p3 enter the
    # two vertices shared with the cup {3,4}
    return _builtin("v0 v1 v2", ["v1 v2", "v2 v1", "v0 v2", "v0 v1"], "v0 v1 v2",
                    {"p1": "p1sq", "p2": "p2sq", "p3": "p3sq"})


BUILTIN_GRAPHS = {
    "bubble": bubble_graph,
    "triangle": triangle_graph,
    "sunrise": sunrise_graph,
    "icecream": icecream_graph,
}
