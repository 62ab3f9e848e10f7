import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landauvar.graphs import (
    Edge,
    FeynmanGraph,
    GraphError,
    bubble_graph,
    components,
    contract,
    icecream_graph,
    load_graph,
    sunrise_graph,
    symanzik_F,
    symanzik_U,
    triangle_graph,
)
from landauvar.poly import Polynomial, PolynomialError, divides, parse

ALL_FIXTURES = {
    "bubble": bubble_graph,
    "triangle": triangle_graph,
    "sunrise": sunrise_graph,
    "icecream": icecream_graph,
}


def trees(g):
    return [tree for tree, _ in g.spanning_forests(1)]


def test_spanning_trees():
    assert trees(bubble_graph()) == [frozenset({"1"}), frozenset({"2"})]
    assert len(trees(triangle_graph())) == 3
    assert trees(sunrise_graph()) == [
        frozenset({"1"}), frozenset({"2"}), frozenset({"3"})
    ]


def test_components_names_each_class_by_its_first_vertex():
    vertices = ["a", "b", "c", "d"]
    assert components(vertices, []) == {v: v for v in vertices}
    classes = components(vertices, [("c", "b")])
    assert classes == {"a": "a", "b": "b", "c": "b", "d": "d"}
    assert components(vertices, [("c", "b"), ("d", "a"), ("d", "d")]) == {
        "a": "a", "b": "b", "c": "b", "d": "a"}


# -- reference oracles: the enumerators and the contraction that
# `spanning_forests` and `components` replaced, kept to cross-check them -------


def spanning_trees_oracle(g):
    """All spanning trees as frozensets of edge ids (deletion-contraction)."""
    comp = {v: v for v in g.vertices}

    def find(c, v):
        while c[v] != v:
            v = c[v]
        return v

    def rec(edges, comp, n_comp):
        if n_comp == 1:
            return [frozenset()]
        if not edges:
            return []
        e, rest = edges[0], edges[1:]
        a, b = find(comp, e.ends[0]), find(comp, e.ends[1])
        trees = rec(rest, comp, n_comp)  # delete e
        if a != b:  # contract e
            comp2 = dict(comp)
            comp2[a] = b
            trees += [t | {e.id} for t in rec(rest, comp2, n_comp - 1)]
        return trees

    return sorted(rec(list(g.edges), comp, len(g.vertices)),
                  key=lambda t: sorted(t))


def forests_oracle(g, k=2):
    """Spanning forests with exactly k trees, as (edge ids, vertex side), by
    brute force over all edge subsets of the right size; at k = 2 this is
    the former `two_forests`."""
    want = len(g.vertices) - k
    if want < 0:
        return []
    out = []
    for combo in itertools.combinations(g.edges, want):
        comp = {v: v for v in g.vertices}

        def find(v):
            while comp[v] != v:
                v = comp[v]
            return v

        acyclic = True
        for e in combo:
            a, b = find(e.ends[0]), find(e.ends[1])
            if a == b:
                acyclic = False
                break
            comp[a] = b
        if not acyclic:
            continue
        roots = {find(v) for v in g.vertices}
        if len(roots) != k:
            continue
        side = frozenset(v for v in g.vertices
                         if find(v) == find(g.vertices[0]))
        out.append((frozenset(e.id for e in combo), side))
    return sorted(out, key=lambda fs: sorted(fs[0]))


def reference_symanzik(g):
    """U and F as the recursive enumerator, each class map rebuilt at every
    contraction, and the Polynomial sums that the union-find rewrite replaced
    computed them; kept to cross-check their terms and the order of those."""
    first = g.vertices[0]

    def spanning_forests(k):
        need = len(g.vertices) - k
        if need < 0:
            return []
        out = []

        def rec(i, classes, chosen):
            if len(chosen) == need:
                side = frozenset(v for v, c in classes.items() if c == first)
                out.append((frozenset(chosen), side))
                return
            if len(g.edges) - i < need - len(chosen):
                return
            e = g.edges[i]
            a, b = classes[e.ends[0]], classes[e.ends[1]]
            if a != b:  # each class is named by its first vertex
                name = next(v for v in g.vertices if v in (a, b))
                rec(i + 1, {v: name if c in (a, b) else c for v, c in classes.items()},
                    chosen + [e.id])
            rec(i + 1, classes, chosen)

        rec(0, {v: v for v in g.vertices}, [])
        return sorted(out, key=lambda fs: sorted(fs[0]))

    def product_outside(forest):
        return Polynomial.monomial(1, {e.var: 1 for e in g.edges if e.id not in forest})

    u = sum((product_outside(tree) for tree, _ in spanning_forests(1)), Polynomial())
    at = frozenset(v for v, _ in g.legs)
    symbols = {}
    f0 = Polynomial()
    for forest, side in spanning_forests(2):
        key = side & at
        if key not in symbols:
            symbols[key] = g.channel_symbol(frozenset(p for v, p in g.legs if v in key))
        sym = symbols[key]
        if sym is not None:
            f0 = f0 - Polynomial.var(sym) * product_outside(forest)
    mass_part = sum((Polynomial.var(e.mass_sq) * Polynomial.var(e.var) for e in g.edges),
                    Polynomial())
    return u, f0 + u * mass_part


def contract_oracle(g, ids):
    """Vertices, edges and legs of G/I by the former private union-find."""
    parent = {v: v for v in g.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in g.edges:
        if e.id in ids:
            a, b = find(e.ends[0]), find(e.ends[1])
            if a != b:
                parent[a] = b
    rep_name = {}
    for v in g.vertices:
        rep_name.setdefault(find(v), v)
    remap = {v: rep_name[find(v)] for v in g.vertices}
    vertices = tuple(dict.fromkeys(remap[v] for v in g.vertices))
    edges = tuple(
        Edge(e.id, (remap[e.ends[0]], remap[e.ends[1]]), e.mass, e.var)
        for e in g.edges if e.id not in ids
    )
    return vertices, edges, tuple((remap[v], p) for v, p in g.legs)


@st.composite
def connected_multigraphs(draw):
    """Connected multigraphs on 1-6 shuffled vertices: a random spanning tree
    plus up to five extra edges, parallel edges and self-loops allowed, in a
    shuffled order with ids that sort differently as strings and as numbers."""
    n = draw(st.integers(min_value=1, max_value=6))
    vertices = draw(st.permutations([f"v{i}" for i in range(n)]))
    pairs = [(vertices[i], vertices[draw(st.integers(0, i - 1))])
             for i in range(1, n)]
    pairs += draw(st.lists(st.tuples(st.sampled_from(vertices),
                                     st.sampled_from(vertices)), max_size=5))
    pairs = draw(st.permutations(pairs))
    edges = [Edge(str(j + 1), ends, f"m{j + 1}", f"x{j + 1}")
             for j, ends in enumerate(pairs)]
    legs = [(v, f"p{i}") for i, v in enumerate(
        draw(st.lists(st.sampled_from(vertices), max_size=3)))]
    return FeynmanGraph(vertices, edges, legs)


@given(connected_multigraphs(), st.data())
@settings(max_examples=150, deadline=None)
def test_spanning_forests_agree_with_the_oracles(g, data):
    assert trees(g) == spanning_trees_oracle(g)
    assert g.spanning_forests(1) == forests_oracle(g, 1)
    assert g.spanning_forests(2) == forests_oracle(g, 2)
    assert g.spanning_forests(3) == forests_oracle(g, 3)
    assert len(trees(g)) == g.spanning_tree_count()
    first = g.vertices[0]
    for forest, side in g.spanning_forests(1):
        assert side == frozenset(g.vertices) and len(forest) == len(g.vertices) - 1
    for forest, side in g.spanning_forests(2):
        assert first in side and side != frozenset(g.vertices)
    contractible = [e.id for e in g.edges if not e.is_self_loop()]
    ids = set(data.draw(st.lists(st.sampled_from(contractible), unique=True)
                        if contractible else st.just([])))
    if g.edges:
        if ids == {e.id for e in g.edges}:
            ids.discard(min(ids))  # contracting every edge is refused
        q = contract(g, ids)
        assert (q.vertices, q.edges, q.legs) == contract_oracle(g, ids)


@st.composite
def graphs_with_channels(draw):
    """A graph of `connected_multigraphs` with two to four legs, several on a
    vertex, masses drawn from three names and a rare one whose square is no
    variable name, and a channel symbol for each proper momentum subset but a
    few: some symbols are named like a mass or a Schwinger variable, one is
    no variable name at all."""
    g = draw(connected_multigraphs())
    legs = [(v, f"p{i}") for i, v in enumerate(
        draw(st.lists(st.sampled_from(g.vertices), min_size=2, max_size=4)))]
    masses = st.sampled_from(["m1", "m2", "m3"] * 10 + ["1m"])
    edges = [Edge(e.id, e.ends, draw(masses), e.var) for e in g.edges]
    momenta = [p for _, p in legs]
    subsets = [c for r in range(1, len(momenta)) for c in itertools.combinations(momenta, r)]
    names = st.sampled_from(["s", "t", "m1sq", "m2sq", "x1", "x2", "x3", "bad name"])
    channels = {c: draw(names) for c in subsets if draw(st.integers(0, 3))}
    return FeynmanGraph(g.vertices, edges, legs, channels)


def outcome(build):
    """The terms of `build()` in their order, or its error's type and message."""
    try:
        return [list(p.terms.items()) for p in build()]
    except (GraphError, PolynomialError) as exc:
        return type(exc), str(exc)


@given(graphs_with_channels())
@settings(max_examples=100, deadline=None)
def test_symanzik_terms_equal_the_reference_in_order(g):
    def build():
        u = symanzik_U(g)
        return u, symanzik_F(g, u)

    assert outcome(build) == outcome(lambda: reference_symanzik(g))
    assert outcome(lambda: [symanzik_F(g)]) == outcome(lambda: reference_symanzik(g)[1:])


def test_terms_named_alike_cancel_or_add_up():
    # the bubble's F0 term -m1sq*x1*x2 cancels the mass term m1sq*x1*x2
    b = bubble_graph()
    bubble = FeynmanGraph(b.vertices, b.edges, b.legs, {("p1",): "m1sq"})
    assert str(symanzik_F(bubble)) == "m1sq*x1^2 + m2sq*x1*x2 + m2sq*x2^2"
    # the triangle's 2-forests {1} and {2} both give -x1*x2*x3
    t = triangle_graph()
    triangle = FeynmanGraph(t.vertices, t.edges, t.legs,
                            {("p1",): "x1", ("p2",): "x2", ("p3",): "m3sq"})
    assert "- 2*x1*x2*x3" in str(symanzik_F(triangle))
    for g in (bubble, triangle):
        u = symanzik_U(g)
        assert [list(u.terms.items()), list(symanzik_F(g, u).terms.items())] == [
            list(p.terms.items()) for p in reference_symanzik(g)]


def test_symanzik_U_fixtures():
    assert symanzik_U(bubble_graph()) == parse("x1 + x2")
    assert symanzik_U(sunrise_graph()) == parse("x2*x3 + x1*x3 + x1*x2")
    assert symanzik_U(icecream_graph()) == parse("x1*x2 + (x1+x2)*(x3+x4)")


def test_symanzik_F_fixtures():
    assert symanzik_F(bubble_graph()) == parse(
        "(x1+x2)*(m1sq*x1+m2sq*x2) - psq*x1*x2"
    )
    massless = symanzik_F(triangle_graph()).substitute(
        {"m1sq": 0, "m2sq": 0, "m3sq": 0}
    )
    assert massless == parse("-p1sq*x2*x3 - p2sq*x1*x3 - p3sq*x1*x2")
    assert symanzik_F(sunrise_graph()) == parse(
        "(m1sq*x1 + m2sq*x2 + m3sq*x3)*(x2*x3+x1*x3+x1*x2) - psq*x1*x2*x3"
    )
    u = "(x1*x2 + (x1+x2)*(x3+x4))"
    assert symanzik_F(icecream_graph()) == parse(
        f"x1*x2*(-p2sq*x4 - p3sq*x3) - p1sq*(x1+x2)*x3*x4"
        f" + {u}*(m1sq*x1+m2sq*x2+m3sq*x3+m4sq*x4)"
    )


def test_homogeneity():
    for g in (bubble_graph(), triangle_graph(), sunrise_graph(), icecream_graph()):
        xvars = {e.var for e in g.edges}
        h1 = g.loop_number
        assert symanzik_U(g).is_homogeneous(h1, xvars)
        assert symanzik_F(g).is_homogeneous(h1 + 1, xvars)


def test_contract_icecream_to_bubble():
    g = contract(icecream_graph(), {"1", "2"})
    assert len(g.vertices) == 2 and len(g.edges) == 2
    assert {e.id for e in g.edges} == {"3", "4"}
    assert g.loop_number == 1
    f = symanzik_F(g)
    assert f == parse("(x3+x4)*(m3sq*x3+m4sq*x4) - p1sq*x3*x4")


def test_contract_triangle_edge():
    g = contract(triangle_graph(), {"3"})
    assert len(g.vertices) == 2 and len(g.edges) == 2 and g.loop_number == 1


def test_contract_identity_and_errors():
    g = bubble_graph()
    same = contract(g, set())
    assert symanzik_U(same) == symanzik_U(g)
    with pytest.raises(GraphError):
        contract(g, {"1", "2"})
    with pytest.raises(GraphError, match=re.escape("unknown edges ['9']")):
        contract(g, {"1", "9"})
    loopy = load_graph({
        "vertices": ["v"],
        "edges": [{"id": "1", "ends": ["v", "v"], "mass": "m1", "var": "x1"}],
        "legs": [],
        "channels": {},
    })
    with pytest.raises(GraphError):
        contract(loopy, {"1"})
    tadpole = FeynmanGraph(["u", "v"], [Edge("1", ("u", "v"), "m1", "x1"),
                                        Edge("2", ("v", "v"), "m2", "x2")])
    with pytest.raises(GraphError, match="^cannot contract self-loop 2$"):
        contract(tadpole, {"2"})


def test_restriction_property():
    # U and F restrict to the quotient-graph polynomials on x_e = 0
    for name, builder in ALL_FIXTURES.items():
        g = builder()
        for e in g.edges:
            if e.is_self_loop():
                continue
            quotient = contract(g, {e.id})
            assert symanzik_U(g).substitute({e.var: 0}) == symanzik_U(quotient), (name, e.id)
            assert symanzik_F(g).substitute({e.var: 0}) == symanzik_F(quotient), (name, e.id)


def test_icecream_subgraph_factorization_mod_u2():
    # in the chart x = (u, u*v, x3, 1) the second Symanzik polynomial is
    # U_gamma * F_{G/gamma} to first order in u
    g = icecream_graph()
    f = symanzik_F(g)
    u, v = Polynomial.var("u"), Polynomial.var("v")
    chart = f.substitute({"x1": u, "x2": u * v, "x4": 1})
    coeffs = chart.coefficients_in("u")
    assert coeffs[0].is_zero()
    u_gamma = 1 + v  # (x1 + x2)/u in the chart
    f_quotient = symanzik_F(contract(g, {"1", "2"})).substitute({"x4": 1})
    assert coeffs[1] == u_gamma * f_quotient
    assert divides(u_gamma, coeffs[1]) is not None


def test_momentum_conservation_channels():
    # a 2-forest cutting the full external set contributes nothing
    g = load_graph({
        "vertices": ["a", "b"],
        "edges": [
            {"id": "1", "ends": ["a", "b"], "mass": "m1", "var": "x1"},
            {"id": "2", "ends": ["a", "b"], "mass": "m2", "var": "x2"},
        ],
        "legs": [{"vertex": "a", "momentum": "p1"}, {"vertex": "a", "momentum": "p2"}],
        "channels": {},
    })
    # both legs sit on one side of every cut, so no invariant is needed
    f = symanzik_F(g)
    assert f == parse("(x1+x2)*(m1sq*x1+m2sq*x2)")


def test_missing_channel_symbol_errors():
    g = load_graph({
        "vertices": ["a", "b"],
        "edges": [
            {"id": "1", "ends": ["a", "b"], "mass": "m1", "var": "x1"},
            {"id": "2", "ends": ["a", "b"], "mass": "m2", "var": "x2"},
        ],
        "legs": [{"vertex": "a", "momentum": "p1"}, {"vertex": "b", "momentum": "p2"}],
        "channels": {},
    })
    with pytest.raises(GraphError):
        symanzik_F(g)
    # the error names the first 2-forest, in sorted order, without a symbol:
    # forest {1} cuts {p1, p2} from p3, {2} cuts p1 and {3} cuts {p1, p3}
    triangle = {
        "vertices": ["a", "b", "c"],
        "edges": [{"id": str(i), "ends": ends, "mass": f"m{i}", "var": f"x{i}"}
                  for i, ends in enumerate((["a", "b"], ["b", "c"], ["c", "a"]), 1)],
        "legs": [{"vertex": v, "momentum": f"p{i}"} for i, v in enumerate("abc", 1)],
    }
    for channels, named in (({"p1": "s1"}, "['p1', 'p2']"),
                            ({"p1": "s1", "p3": "s3"}, "['p1', 'p3']")):
        with pytest.raises(GraphError, match=re.escape(f"channel {named}")):
            symanzik_F(load_graph({**triangle, "channels": channels}))


def test_symanzik_F_names_each_side_of_a_cut_once(monkeypatch):
    # 20000 legs at one vertex of a 64-edge cycle: every 2-forest puts all the
    # legs on one side or none, so two channels are looked up, not 2016
    vertices = [f"v{i}" for i in range(64)]
    edges = [Edge(str(i), (v, vertices[(i + 1) % 64]), f"m{i}", f"x{i}")
             for i, v in enumerate(vertices)]
    g = FeynmanGraph(vertices, edges, [("v32", f"p{k}") for k in range(20000)])
    calls = []
    lookup = FeynmanGraph.channel_symbol
    monkeypatch.setattr(FeynmanGraph, "channel_symbol",
                        lambda self, subset: calls.append(subset) or lookup(self, subset))
    u = symanzik_U(g)
    f = symanzik_F(g, u)
    assert sorted(map(len, calls)) == [0, 20000]
    assert f == u * sum((Polynomial.var(e.mass_sq) * Polynomial.var(e.var) for e in edges),
                        Polynomial())


def test_graph_validation():
    with pytest.raises(GraphError):
        load_graph({"vertices": ["a", "b"], "edges": [], "legs": [], "channels": {}})
    with pytest.raises(GraphError):
        load_graph({
            "vertices": ["a"],
            "edges": [{"id": "1", "ends": ["a", "zz"], "mass": "m", "var": "x"}],
        })
    with pytest.raises(GraphError):
        load_graph({
            "vertices": ["a", "b"],
            "edges": [
                {"id": "1", "ends": ["a", "b"], "mass": "m1", "var": "x1"},
                {"id": "2", "ends": ["a", "b"], "mass": "m2", "var": "x1"},
            ],
        })
    # a graph built in code may repeat an unhashable edge id
    with pytest.raises(GraphError, match="edge ids must be pairwise distinct"):
        FeynmanGraph(["a", "b"], [Edge(["e"], ("a", "b"), "m1", "x1"),
                                  Edge(["e"], ("a", "b"), "m2", "x2")])
