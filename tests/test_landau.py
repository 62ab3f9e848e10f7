import random
from fractions import Fraction

import pytest

from landauvar.graphs import bubble_graph, sunrise_graph, symanzik_F, triangle_graph, load_graph
from landauvar.landau import (
    EliminationDegenerateError,
    LandauComponent,
    LandauError,
    bubble_split,
    eliminate_critical_values,
    fixture_landau,
    gram_matrix,
    icecream_ellA12,
    icecream_ellA12_printed,
    oneloop_landau,
    split_component,
)
from landauvar.poly import Polynomial, determinant, divides, parse, resultant


def test_gram_matrix_bubble():
    mats = gram_matrix(bubble_graph())
    assert mats.M[0, 0] == parse("m1sq")
    assert mats.M[1, 1] == parse("m2sq")
    assert mats.M[0, 1] == parse("m1sq + m2sq + s12") * Fraction(1, 2)
    assert mats.M[0, 1] == mats.M[1, 0]
    det = determinant(mats.M)
    det_p = det.substitute({"s12": -Polynomial.var("psq")})
    delta = parse("(m1sq+m2sq-psq)^2 - 4*m1sq*m2sq")
    assert det_p * (-4) == delta
    # Cayley matrix border
    assert mats.Sprime[0, 0] == Polynomial.zero()
    assert mats.Sprime[0, 1] == Polynomial.const(1)
    assert mats.Sprime[1, 0] == Polynomial.const(1)
    # channel substitution sends s12 to -psq
    assert mats.channel_substitution["s12"] == -Polynomial.var("psq")


def test_gram_matrix_tadpole():
    g = load_graph({
        "vertices": ["v"],
        "edges": [{"id": "1", "ends": ["v", "v"], "mass": "m1", "var": "x1"}],
        "legs": [],
        "channels": {},
    })
    mats = gram_matrix(g)
    assert determinant(mats.M) == parse("m1sq")
    comps = oneloop_landau(g)
    assert [c.id for c in comps] == ["lF"]
    assert comps[0].defining == parse("m1sq")
    assert comps[0].pinch == "linear"


def test_gram_matrix_rejects_multiloop():
    with pytest.raises(LandauError):
        gram_matrix(sunrise_graph())


def test_oneloop_bubble_components():
    comps = {c.id: c for c in oneloop_landau(bubble_graph())}
    assert set(comps) == {"lF", "lFU", "lF/1", "lF/2"}
    # l1 = {m1^2 = 0} with the pinch on A2 cap B2
    l1 = comps["lF/2"]
    assert l1.defining == parse("m1sq")
    assert l1.pinch == "linear" and l1.type_K == frozenset({"B2"})
    l2 = comps["lF/1"]
    assert l2.defining == parse("m2sq")
    assert l2.pinch == "linear" and l2.type_K == frozenset({"B1"})
    ld = comps["lF"]
    assert ld.pinch == "quadratic" and ld.parity == 0 and ld.type_K == frozenset()
    lp = comps["lFU"]
    assert lp.defining == parse("s12")
    assert lp.pinch == "linear" and lp.variation_known_zero
    assert lp.type_J == frozenset({"A1", "A2"})
    # every defining polynomial involves only kinematic symbols
    for c in comps.values():
        assert not c.defining.is_zero()
        assert not any(v.startswith("x") for v in c.defining.variables)


def test_oneloop_triangle_components():
    comps = oneloop_landau(triangle_graph())
    assert len(comps) == 11
    by_id = {c.id: c for c in comps}
    n = 2
    for c in comps:
        size = 0 if "/" not in c.id else len(c.id.split("/")[1])
        if c.id.startswith("lFU"):
            assert (c.pinch == "linear") == (size == n - 1), c.id
            if c.pinch == "quadratic":
                assert c.parity == n - size
        else:
            assert (c.pinch == "linear") == (size == n), c.id
            if c.pinch == "quadratic":
                assert c.parity == n - 1 - size
    # tadpole-level components read off the masses, bubble-level the channels
    assert by_id["lF/12"].defining == parse("m3sq")
    assert by_id["lFU/1"].defining == parse("s23")
    # self-loop pattern of the hierarchy figure: even parity quadratics only
    even = {c.id for c in comps if c.pinch == "quadratic" and c.parity % 2 == 0}
    assert even == {"lF/1", "lF/2", "lF/3", "lFU"}


def box_graph():
    return load_graph({
        "vertices": ["v1", "v2", "v3", "v4"],
        "edges": [
            {"id": "1", "ends": ["v1", "v2"], "mass": "m1", "var": "x1"},
            {"id": "2", "ends": ["v2", "v3"], "mass": "m2", "var": "x2"},
            {"id": "3", "ends": ["v3", "v4"], "mass": "m3", "var": "x3"},
            {"id": "4", "ends": ["v4", "v1"], "mass": "m4", "var": "x4"},
        ],
        "legs": [{"vertex": f"v{i}", "momentum": f"p{i}"} for i in (1, 2, 3, 4)],
        "channels": {"p1": "p1sq", "p2": "p2sq", "p3": "p3sq", "p4": "p4sq",
                     "p1+p2": "s", "p2+p3": "t"},
    })


def test_gram_quotient_consistency():
    # deleting rows/columns of M must reproduce the Gram matrix that the
    # contracted graph builds for itself, once both sides use channel symbols
    from landauvar.graphs import contract
    import itertools

    for g in (triangle_graph(), box_graph()):
        mats = gram_matrix(g)
        pos = {eid: i for i, eid in enumerate(mats.edge_order)}
        ids = [e.id for e in g.edges]
        subsets = [{i} for i in ids]
        if len(ids) == 4:
            subsets += [set(c) for c in itertools.combinations(ids, 2)]
        for I in subsets:
            if len(ids) - len(I) < 2:
                continue
            drop = [pos[e] for e in I]
            det_sub = determinant(mats.M.submatrix(drop, drop)).substitute(
                mats.channel_substitution
            )
            qmats = gram_matrix(contract(g, I))
            det_quot = determinant(qmats.M).substitute(qmats.channel_substitution)
            assert det_sub == det_quot, I


def test_oneloop_box_reflexivity_pattern():
    # self-loops sit on first-type components with n-|I| odd and second-type
    # components with n-|I| even; n = 3 for the box
    from landauvar.hierarchy import hierarchy_graph

    comps = oneloop_landau(box_graph())
    assert len(comps) == 26
    rel = hierarchy_graph(comps)
    self_loops = {s for s, t in rel.edges if s == t}
    n = 3
    expected = set()
    for c in comps:
        size = 0 if "/" not in c.id else len(c.id.split("/")[1])
        if c.id.startswith("lFU"):
            if (n - size) % 2 == 0:
                expected.add(c.id)
        elif (n - size) % 2 == 1:
            expected.add(c.id)
    assert self_loops == expected


def test_bubble_split():
    g = bubble_graph()
    comps = bubble_split(oneloop_landau(g), g)
    ids = [c.id for c in comps]
    assert "lF+" in ids and "lF-" in ids and "lF" not in ids
    plus = next(c for c in comps if c.id == "lF+")
    assert plus.defining == parse("psq - (m1+m2)^2")
    assert plus.pinch == "quadratic" and plus.parity == 0


def test_split_component_rejects_bad_factors():
    comp = LandauComponent(
        id="l", defining=parse("x^2 - 1"), type_J=frozenset({"A"}),
        type_K=frozenset(), simple_J=frozenset({"A"}), simple_K=frozenset(),
        pinch="quadratic", parity=0,
    )
    out = split_component(comp, [parse("x-1"), parse("x+1")])
    assert [c.defining for c in out] == [parse("x-1"), parse("x+1")]
    with pytest.raises(LandauError):
        split_component(comp, [parse("x-2"), parse("x+1")])


def test_eliminate_double_root_family():
    e = eliminate_critical_values(parse("x^2 - t"), ["x"])
    assert divides(Polynomial.var("t"), e) is not None


def test_eliminate_bubble_contains_delta():
    f = parse("(x1+x2)*(m1sq*x1+m2sq*x2) - psq*x1*x2")
    e = eliminate_critical_values(f, ["x1", "x2"], {"x1": 1})
    delta = parse("(m1sq+m2sq-psq)^2 - 4*m1sq*m2sq")
    assert divides(delta, e) is not None


def test_eliminate_errors():
    with pytest.raises(LandauError):
        eliminate_critical_values(parse("x + y + z"), ["x", "y", "z"])
    with pytest.raises(LandauError):
        eliminate_critical_values(parse("t"), ["x"], {"x": 1})


def test_eliminate_two_fiber_branches(monkeypatch):
    from landauvar import landau

    calls = []
    real = landau.resultant
    monkeypatch.setattr(landau, "resultant",
                        lambda a, b, var: calls.append(var) or real(a, b, var))
    # the first pairing vanishes, so the alternative one is taken, and vanishes too
    with pytest.raises(EliminationDegenerateError):
        eliminate_critical_values(parse("x^2 + y^2"), ["x", "y"])
    assert calls == ["x", "y", "y"]
    # F and dF/dy share the root x = 0, so the first pairing vanishes; the
    # alternative one finds t = 0, where F has its critical point x = 0
    calls.clear()
    assert eliminate_critical_values(parse("3*x^2*y + 2*t*x"), ["x", "y"]) == parse("12*t^2")
    assert calls == ["x", "x", "x"]
    # both resultants in x are free of y
    with pytest.raises(LandauError, match="^nothing to eliminate in y$"):
        eliminate_critical_values(parse("(x*y - 1)^2"), ["x", "y"])
    # dF/dx = 3 is free of x, and so is the eliminant: no resultant is taken
    calls.clear()
    assert eliminate_critical_values(parse("t*y^2 + 3*x"), ["x", "y"]) == 3
    assert calls == []


def test_eliminate_degenerate_reported():
    # a square factor makes every pairing vanish identically
    f = parse("(x - t)^2 * (x - 1)^2")
    with pytest.raises(EliminationDegenerateError):
        eliminate_critical_values(f, ["x"])


def test_sunrise_eliminant_vanishes_on_factor_points(sunrise_eliminant):
    # independent of the divisibility route: pick random rational points on
    # each expected Landau factor and evaluate the eliminant exactly
    rng = random.Random(7)
    e = sunrise_eliminant

    def eval_at(psq, m1, m2, m3):
        return e.substitute({"psq": psq, "m1": m1, "m2": m2, "m3": m3})

    for _ in range(20):
        m1, m2, m3 = (Fraction(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(3))
        # masses vanishing
        assert eval_at(Fraction(rng.randint(1, 30)), 0, m2, m3).is_zero()
        assert eval_at(Fraction(rng.randint(1, 30)), m1, 0, m3).is_zero()
        assert eval_at(Fraction(rng.randint(1, 30)), m1, m2, 0).is_zero()
        # momentum vanishing
        assert eval_at(0, m1, m2, m3).is_zero()
        # the four thresholds
        for a in (1, -1):
            for b in (1, -1):
                psq = (m1 + a * m2 + b * m3) ** 2
                assert eval_at(psq, m1, m2, m3).is_zero(), (a, b)


def _resultant_inputs(f, fibers) -> list:
    """Each polynomial that `eliminate_critical_values` takes a resultant of,
    with the variable it eliminates."""
    x = fibers[0]

    def eliminated(b):
        # like `elim`, a derivative already free of x passes through unchanged
        return b if b.degree_in(x) == 0 else resultant(f, b, x)

    inputs = [(f, x), (f.derivative(x), x)]
    if len(fibers) == 2:
        y = fibers[1]
        inputs.append((f.derivative(y), x))
        inputs += [(eliminated(f.derivative(v)), y) for v in (x, y)]
    return inputs


def assert_elimination_specialises(f, fibers, chart, eliminant, seed, points=2):
    """The elimination oracle: for each parameter of `eliminant` in turn, fix
    every other one at seeded rational points where no leading coefficient
    vanishes; the specialised eliminant must equal, up to a nonzero constant,
    the eliminant of the specialised F."""
    rng = random.Random(seed)
    # fixing a point that keeps every degree below specialises each Sylvester
    # matrix, and so each resultant, entry by entry
    inputs = _resultant_inputs(f.substitute(chart), [v for v in fibers if v not in chart])
    params = eliminant.variables
    assert params and set(params) <= set(f.variables) - set(fibers)
    for kept in params:
        fixed = [v for v in params if v != kept]
        checked = 0
        for _ in range(50 * points):
            point = {v: Fraction(rng.choice([-1, 1]) * rng.randint(1, 12), rng.randint(1, 5))
                     for v in fixed}
            if any(p.substitute(point).degree_in(v) != p.degree_in(v) for p, v in inputs):
                continue
            special = eliminant.substitute(point)
            again = eliminate_critical_values(f.substitute(point), fibers, chart)
            assert special.variables == (kept,)
            mono = next(iter(again.terms))
            ratio = special.terms.get(mono, 0) / again.terms[mono]
            assert ratio != 0 and special == again * ratio, (kept, point)
            checked += 1
            if checked == points:
                break
        assert checked == points, kept


def test_sunrise_elimination_specialises(sunrise_family, sunrise_eliminant):
    assert_elimination_specialises(sunrise_family, ["x1", "x2", "x3"], {"x3": 1},
                                   sunrise_eliminant, seed=12)


@pytest.mark.parametrize("graph, fixed, chart, seed", [
    (sunrise_graph, {"m2sq": 4}, {"x3": 1}, 13),
    (bubble_graph, {}, {"x1": 1}, 14),
    (triangle_graph, {}, {"x3": 1}, 15),
    # F is linear in x1 when m1sq = 0, so dF/dx1 is free of x1
    (triangle_graph, {"m1sq": 0}, {"x3": 1}, 16),
])
def test_eliminations_specialise(graph, fixed, chart, seed):
    g = graph()
    f, fibers = symanzik_F(g).substitute(fixed), [e.var for e in g.edges]
    eliminant = eliminate_critical_values(f, fibers, chart)
    assert_elimination_specialises(f, fibers, chart, eliminant, seed=seed)


def test_sunrise_threshold_nodes_are_critical():
    # at psq = (m1 + a*m2 + b*m3)^2 the cubic has a node at
    # [a*b*m2*m3 : b*m1*m3 : a*m1*m2]: F and its gradient vanish identically
    from landauvar.graphs import sunrise_graph, symanzik_F

    m1, m2, m3 = (Polynomial.var(n) for n in ("m1", "m2", "m3"))
    f = symanzik_F(sunrise_graph()).substitute(
        {"m1sq": m1 * m1, "m2sq": m2 * m2, "m3sq": m3 * m3}
    )
    for a in (1, -1):
        for b in (1, -1):
            point = {
                "x1": a * b * m2 * m3,
                "x2": b * m1 * m3,
                "x3": a * m1 * m2,
                "psq": (m1 + a * m2 + b * m3) ** 2,
            }
            assert f.substitute(point).is_zero(), (a, b)
            for x in ("x1", "x2", "x3"):
                assert f.derivative(x).substitute(point).is_zero(), (a, b, x)


def test_icecream_ellA12_matches_printed():
    got = icecream_ellA12()
    printed = icecream_ellA12_printed()
    q = divides(printed, got)
    assert q is not None and q.is_constant() and q.constant_value() != 0
    assert divides(got, printed) is not None


def test_icecream_ellA12_degenerations():
    printed = icecream_ellA12_printed()
    partial = printed.substitute({"p2sq": Polynomial.var("m4sq")})
    assert partial == parse("(m3sq*m4sq - m4sq*p3sq)*(m3sq - p3sq)")
    msq = Polynomial.var("msq")
    full = printed.substitute(
        {"m3sq": msq, "m4sq": msq, "p2sq": msq, "p3sq": msq}
    )
    assert full.is_zero()


def test_triangle_collision_points_on_both_hypersurfaces():
    # the two points whose collision defines the second-type singularity lie
    # on U = F = 0; verified exactly modulo r^2 = delta
    from landauvar.graphs import symanzik_U, symanzik_F

    p1, p2, p3 = (Polynomial.var(f"p{i}sq") for i in (1, 2, 3))
    r = Polynomial.var("r")
    delta = (p1 ** 2 + p2 ** 2 + p3 ** 2
             - 2 * p1 * p2 - 2 * p1 * p3 - 2 * p2 * p3)

    def reduce_mod_root(p):
        while p.degree_in("r") >= 2:
            coeffs = p.coefficients_in("r")
            out = coeffs[0] + coeffs[1] * r
            for k in range(2, len(coeffs)):
                out = out + coeffs[k] * delta * (r ** (k - 2))
            p = out
        return p

    u = symanzik_U(triangle_graph())
    f = symanzik_F(triangle_graph()).substitute(
        {"m1sq": 0, "m2sq": 0, "m3sq": 0}
    )
    for sign in (1, -1):
        Q = {
            "x1": -p1 + p2 - p3 + sign * r,
            "x2": p1 - p2 - p3 - sign * r,
            "x3": 2 * p3,
        }
        assert reduce_mod_root(u.substitute(Q)).is_zero()
        assert reduce_mod_root(f.substitute(Q)).is_zero()


def test_fixture_lists():
    tri = fixture_landau("massless-triangle")
    assert len(tri) == 4
    l1 = next(c for c in tri if c.id == "l1")
    assert l1.type_J == frozenset({"A1", "A2"})
    assert l1.type_K == frozenset({"B1", "B12", "B13"})
    assert l1.simple_J == frozenset({"A2"}) and l1.simple_K == frozenset()
    ld = next(c for c in tri if c.id == "ldelta")
    assert ld.pinch == "quadratic" and ld.parity == 0
    assert ld.simple_J == frozenset({"A1", "A2"})

    sun = fixture_landau("sunrise")
    assert len(sun) == 8
    assert {c.id for c in sun} == {"lp", "l1", "l2", "l3", "l++", "l+-", "l-+", "l--"}
    lab = next(c for c in sun if c.id == "l+-")
    assert lab.pinch == "quadratic" and lab.type_J == frozenset({"A2"})
    l3 = next(c for c in sun if c.id == "l3")
    assert l3.type_J == frozenset({"A1", "A2", "A12"})
    assert l3.type_K == frozenset({"B1", "B2", "B12"})
    lp = next(c for c in sun if c.id == "lp")
    assert lp.type_J == frozenset({"A1", "A2", "A12", "A13", "A23"})

    ice = fixture_landau("icecream-partial")
    assert len(ice) == 3
    la = next(c for c in ice if c.id == "lA12")
    assert la.type_J == la.simple_J == frozenset({"A2", "A12"})
    assert la.pinch == "quadratic"
    lb = next(c for c in ice if c.id == "lB12")
    assert lb.type_J == frozenset({"A2", "A12"})
    assert lb.type_K == frozenset({"B1", "B2", "B12"})
    assert lb.simple_J == frozenset({"A2"}) and lb.simple_K == frozenset()
    ld = next(c for c in ice if c.id == "ldelta")
    assert ld.type_J == frozenset({"A1", "A2", "A12"})
    assert ld.simple_J == frozenset({"A2"})

    with pytest.raises(LandauError):
        fixture_landau("nope")


def test_fixture_definings_tie_back_to_generators():
    # the triangle's second-type discriminant is the Cayley determinant of
    # the generated one-loop machinery, up to a rational factor
    mats = gram_matrix(triangle_graph())
    det_sp = determinant(mats.Sprime).substitute(mats.channel_substitution)
    delta = next(
        c for c in fixture_landau("massless-triangle") if c.id == "ldelta"
    ).defining
    q = divides(delta, det_sp)
    assert q is not None and q.is_constant() and q.constant_value() != 0
    # the ice cream bubble singularity is the quotient graph's first-type
    # determinant
    from landauvar.graphs import contract, icecream_graph

    qmats = gram_matrix(contract(icecream_graph(), {"1", "2"}))
    det_q = determinant(qmats.M).substitute(qmats.channel_substitution)
    b12 = next(
        c for c in fixture_landau("icecream-partial") if c.id == "lB12"
    ).defining
    q = divides(b12, det_q)
    assert q is not None and q.is_constant() and q.constant_value() != 0


def test_component_invariant_validation():
    with pytest.raises(LandauError):
        LandauComponent(
            id="bad", defining=parse("t"), type_J=frozenset(), type_K=frozenset(),
            simple_J=frozenset({"A1"}), simple_K=frozenset(), pinch="linear",
            parity=-1,
        )
    with pytest.raises(LandauError):
        LandauComponent(
            id="bad", defining=parse("t"), type_J=frozenset({"A1"}),
            type_K=frozenset(), simple_J=frozenset(), simple_K=frozenset(),
            pinch="linear", parity=0,
        )
    with pytest.raises(LandauError):
        LandauComponent(
            id="bad", defining=parse("t"), type_J=frozenset({"A1"}),
            type_K=frozenset({"B1"}), simple_J=frozenset(), simple_K=frozenset(),
            pinch="linear", parity=-1, variation_known_zero=True,
        )
