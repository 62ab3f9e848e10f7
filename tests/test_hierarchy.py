import itertools

import pytest

from landauvar.graphs import bubble_graph, triangle_graph
from landauvar.hierarchy import (
    HierarchyError,
    HierarchyRelation,
    compatible,
    hierarchy_graph,
    to_dot,
    word_vanishes,
)
from landauvar.landau import bubble_split, oneloop_landau
from landauvar.variation import builtin_model


def bubble_components():
    return list(builtin_model("bubble").components)


def by_id(comps):
    return {c.id: c for c in comps}


def test_compatible_bubble_examples():
    c = by_id(bubble_components())
    # arrow l2 -> lD (either threshold branch)
    assert compatible(c["lD+"], c["l2"])
    # reverse is blocked: the simple boundary of l2 is not in lD's type
    assert not compatible(c["l2"], c["lD+"])
    # quadratic even-parity self-compatibility
    assert compatible(c["lD+"], c["lD+"])
    # linear self veto
    assert not compatible(c["l1"], c["l1"])


def test_bubble_relation_matches_diagram():
    g = bubble_graph()
    comps = bubble_split(oneloop_landau(g), g)
    rel = hierarchy_graph(comps)
    # the printed diagram, read as arrows source -> target
    # (l1 = lF/2, l2 = lF/1, lDelta+- = lF+-, lp = lFU)
    diagram = HierarchyRelation(rel.nodes, frozenset({
        ("lF/1", "lF+"), ("lF/1", "lF-"),
        ("lF/2", "lF+"), ("lF/2", "lF-"),
        ("lF+", "lF+"), ("lF+", "lF-"), ("lF+", "lFU"),
        ("lF-", "lF-"), ("lF-", "lF+"), ("lF-", "lFU"),
    }))
    assert rel.reachability() == diagram.reachability()
    assert ("lF+", "lF+") in rel.edges and ("lF-", "lF-") in rel.edges
    assert ("lF+", "lF-") in rel.edges and ("lF-", "lF+") in rel.edges


TRIANGLE_FIGURE_ARROWS = {
    ("lF/12", "lF/1"), ("lF/12", "lF/2"),
    ("lF/13", "lF/1"), ("lF/13", "lF/3"),
    ("lF/23", "lF/2"), ("lF/23", "lF/3"),
    ("lF/1", "lF"), ("lF/1", "lFU/1"), ("lF/1", "lF/1"),
    ("lF/2", "lF"), ("lF/2", "lFU/2"), ("lF/2", "lF/2"),
    ("lF/3", "lF"), ("lF/3", "lFU/3"), ("lF/3", "lF/3"),
    ("lFU/1", "lFU"), ("lFU/2", "lFU"), ("lFU/3", "lFU"),
    ("lF", "lFU"),
    ("lFU", "lFU"),
}


def test_triangle_relation_matches_figure():
    comps = oneloop_landau(triangle_graph())
    rel = hierarchy_graph(comps)
    figure = HierarchyRelation(rel.nodes, frozenset(TRIANGLE_FIGURE_ARROWS))
    assert rel.reachability() == figure.reachability()
    self_loops = {s for s, t in rel.edges if s == t}
    assert self_loops == {"lF/1", "lF/2", "lF/3", "lFU"}
    linear_ids = {c.id for c in comps if c.pinch == "linear"}
    assert not (self_loops & linear_ids)


def test_word_vanishes_bubble():
    comps = bubble_components()
    rel = hierarchy_graph(comps)
    assert not word_vanishes(rel, comps, ("l2", "lD+")).forced_zero
    v = word_vanishes(rel, comps, ("lD+", "l1"))
    assert v.forced_zero and "lD+ -> l1" in v.reason
    v = word_vanishes(rel, comps, ("l2", "lp", "lD+"))
    assert v.forced_zero and "lp" in v.reason
    with pytest.raises(HierarchyError):
        word_vanishes(rel, comps, ("nope",))


def test_word_vanishes_monotone_under_append():
    comps = bubble_components()
    rel = hierarchy_graph(comps)
    ids = sorted(c.id for c in comps)
    for length in (1, 2, 3):
        for word in itertools.product(ids, repeat=length):
            if word_vanishes(rel, comps, word).forced_zero:
                for extra in ids:
                    assert word_vanishes(rel, comps, word + (extra,)).forced_zero


def test_simple_pinch_monotonicity():
    # along unconstrained words of simple pinches, the A-sets grow and the
    # B-sets shrink; strictly across linear pinches
    for comps in (bubble_components(), oneloop_landau(triangle_graph())):
        rel = hierarchy_graph(comps)
        lookup = by_id(comps)
        ids = sorted(lookup)
        for word in itertools.product(ids, repeat=3):
            if word_vanishes(rel, comps, word).forced_zero:
                continue
            for a, b in zip(word, word[1:]):
                ca, cb = lookup[a], lookup[b]
                assert ca.type_J <= cb.type_J
                assert cb.type_K <= ca.type_K
                if ca.pinch == "linear" or cb.pinch == "linear":
                    assert ca.type_J < cb.type_J or cb.type_K < ca.type_K


def reference_compatible(target, source):
    """Independent restatement of the simple-pinch rules: containments plus
    the linear strictness refinements and the odd-parity repetition veto."""
    if not (source.type_J <= target.type_J and target.type_K <= source.type_K):
        return False
    if source.pinch == "linear" and target.type_K == source.type_K:
        return False
    if target.pinch == "linear" and target.type_J == source.type_J:
        return False
    if target.id == source.id:
        n_minus_m = source.parity
        if n_minus_m % 2 != 0:
            return False
    return True


def test_compatible_reduces_to_simple_pinch_rules():
    for comps in (bubble_components(), oneloop_landau(triangle_graph())):
        assert all(c.is_simple_pinch for c in comps)
        for tgt in comps:
            for src in comps:
                assert compatible(tgt, src) == reference_compatible(tgt, src), (
                    tgt.id, src.id,
                )


def test_linear_target_veto_needs_the_same_a_type():
    from landauvar.landau import LINEAR, QUADRATIC, LandauComponent
    from landauvar.poly import parse

    source = LandauComponent.of("s", parse("s"), QUADRATIC, "A2", "B1 B2", parity=0)
    # every containment holds, but a linear target must gain an A-hypersurface
    assert not compatible(LandauComponent.of("t", parse("t"), LINEAR, "A2", "B1"), source)
    assert compatible(LandauComponent.of("t", parse("t"), LINEAR, "A1 A2", "B1"), source)


def test_icecream_delta_may_follow_lA12():
    # the double variation "first lA12, then ldelta" is the one survivor of
    # the exceptional-divisor constraints: the oracle must not force it
    from landauvar.landau import fixture_landau

    comps = fixture_landau("icecream-partial")
    rel = hierarchy_graph(comps)
    assert not word_vanishes(rel, comps, ("lA12", "ldelta")).forced_zero
    # repeating the odd-parity pinch itself is forced
    assert word_vanishes(rel, comps, ("lA12", "lA12")).forced_zero


def test_icecream_b12_is_not_simple():
    # the bubble-type singularity keeps only A2 in its simple type, so no
    # boundary-compatibility constraint fires against the other components:
    # the naive "reduced singularities follow their subgraph" rule fails here
    from landauvar.landau import fixture_landau

    comps = fixture_landau("icecream-partial")
    rel = hierarchy_graph(comps)
    assert not word_vanishes(rel, comps, ("lA12", "lB12")).forced_zero
    assert not word_vanishes(rel, comps, ("ldelta", "lB12")).forced_zero


def test_general_components_skip_vetoes():
    # non-isolated critical sets get the containment test only: the dilog
    # arrow from t=0 into the linear pinch at t=1 exists
    comps = list(builtin_model("dilog").components)
    c = by_id(comps)
    assert compatible(c["l1"], c["l0"])
    assert compatible(c["l0"], c["l0"])  # no parity veto for general kind


def test_dot_export():
    comps = bubble_components()
    rel = hierarchy_graph(comps)
    dot = to_dot(rel, comps)
    assert dot.startswith("digraph hierarchy {") and dot.endswith("}")
    assert '"l2" -> "lD+";' in dot
    assert dot.count("->") == len(rel.edges)
    # self-loops are rendered
    assert '"lD+" -> "lD+";' in dot


def test_duplicate_ids_rejected():
    comps = bubble_components()
    with pytest.raises(HierarchyError):
        hierarchy_graph(comps + [comps[0]])


def test_single_even_quadratic_gets_self_edge():
    from landauvar.landau import LandauComponent
    from landauvar.poly import parse

    comp = LandauComponent(
        id="q", defining=parse("t"), type_J=frozenset({"A1"}),
        type_K=frozenset(), simple_J=frozenset({"A1"}), simple_K=frozenset(),
        pinch="quadratic", parity=0,
    )
    rel = hierarchy_graph([comp])
    assert rel.edges == frozenset({("q", "q")})
    odd = LandauComponent(
        id="q", defining=parse("t"), type_J=frozenset({"A1"}),
        type_K=frozenset(), simple_J=frozenset({"A1"}), simple_K=frozenset(),
        pinch="quadratic", parity=1,
    )
    assert hierarchy_graph([odd]).edges == frozenset()
