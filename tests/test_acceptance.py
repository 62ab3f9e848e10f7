"""Acceptance criteria, one test per criterion.

Every expected value here is either an exact symbolic identity (checked by
canonical-form equality, zero tolerance) or a discrete outcome (permutations,
windings, counts, signs).  Each test prints one PASS line; run with
``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import itertools
import random
import time
from fractions import Fraction
from math import comb, factorial

from landauvar.aomoto import (
    aomoto_components,
    aomoto_edges,
    aomoto_symbol,
    chain_sets,
    maximal_chain_value,
)
from landauvar.graphs import (
    bubble_graph,
    icecream_graph,
    sunrise_graph,
    symanzik_F,
    symanzik_U,
    triangle_graph,
)
from landauvar.hierarchy import (
    HierarchyRelation,
    hierarchy_graph,
    word_vanishes,
)
from landauvar.landau import (
    bubble_split,
    eliminate_critical_values,
    icecream_ellA12,
    icecream_ellA12_printed,
    oneloop_landau,
)
from landauvar.localhom import (
    local_rank,
    normalize_word,
    operator,
    exchange_sign,
    pairing_transfer_sign,
    pinch_config,
)
from landauvar.poly import Polynomial, divides, parse
from landauvar.tracking import Loop, ParametricRootSystem, track
from landauvar.variation import (
    apply_word,
    builtin_model,
    check_against_hierarchy,
    compose,
    is_zero_matrix,
    pl_operator,
    word_zero_certificate,
)
from test_variation import LITERAL_OPS


def ok(num, text):
    print(f"ACCEPTANCE {num:02d} PASS - {text}")


def test_c01_symanzik_fixtures():
    assert symanzik_U(bubble_graph()) == parse("x1+x2")
    assert symanzik_F(bubble_graph()) == parse(
        "(x1+x2)*(m1sq*x1+m2sq*x2) - psq*x1*x2"
    )
    massless = symanzik_F(triangle_graph()).substitute(
        {"m1sq": 0, "m2sq": 0, "m3sq": 0}
    )
    assert symanzik_U(triangle_graph()) == parse("x1+x2+x3")
    assert massless == parse("-p1sq*x2*x3 - p2sq*x1*x3 - p3sq*x1*x2")
    assert symanzik_U(sunrise_graph()) == parse("x2*x3+x1*x3+x1*x2")
    assert symanzik_F(sunrise_graph()) == parse(
        "(m1sq*x1+m2sq*x2+m3sq*x3)*(x2*x3+x1*x3+x1*x2) - psq*x1*x2*x3"
    )
    assert symanzik_U(icecream_graph()) == parse("x1*x2 + (x1+x2)*(x3+x4)")
    assert symanzik_F(icecream_graph()) == parse(
        "x1*x2*(-p2sq*x4 - p3sq*x3) - p1sq*(x1+x2)*x3*x4"
        " + (x1*x2+(x1+x2)*(x3+x4))*(m1sq*x1+m2sq*x2+m3sq*x3+m4sq*x4)"
    )
    ok(1, "Symanzik polynomials of all four fixtures match the printed forms exactly")


def test_c02_bubble_oneloop_components():
    comps = {c.id: c for c in oneloop_landau(bubble_graph())}
    assert set(comps) == {"lF", "lFU", "lF/1", "lF/2"}
    assert comps["lF/2"].defining == parse("m1sq")
    assert comps["lF/2"].pinch == "linear"
    assert comps["lF/2"].type_K == frozenset({"B2"})
    assert comps["lF/1"].defining == parse("m2sq")
    assert comps["lF/1"].pinch == "linear"
    assert comps["lF/1"].type_K == frozenset({"B1"})
    assert comps["lFU"].defining == parse("s12")
    assert comps["lFU"].pinch == "linear"
    assert comps["lFU"].type_J == frozenset({"A1", "A2"})
    assert comps["lFU"].variation_known_zero
    top = comps["lF"]
    assert top.pinch == "quadratic" and top.parity == 0
    assert top.type_J == frozenset({"A2"}) and top.type_K == frozenset()
    # det M equals -Delta/4 exactly after expressing s12 = -psq
    det_p = top.defining.substitute({"s12": -Polynomial.var("psq")})
    delta = parse("(m1sq+m2sq-psq)^2 - 4*m1sq*m2sq")
    assert det_p * Fraction(-4) == delta
    q = divides(delta, det_p * Fraction(-4))
    assert q == Polynomial.const(1)
    ok(2, "bubble Landau components and the exact det M = -Delta/4 factorization")


def test_c03_bubble_hierarchy_matches_diagram():
    g = bubble_graph()
    comps = bubble_split(oneloop_landau(g), g)
    rel = hierarchy_graph(comps)
    diagram = HierarchyRelation(rel.nodes, frozenset({
        ("lF/1", "lF+"), ("lF/1", "lF-"),
        ("lF/2", "lF+"), ("lF/2", "lF-"),
        ("lF+", "lF+"), ("lF+", "lF-"), ("lF+", "lFU"),
        ("lF-", "lF-"), ("lF-", "lF+"), ("lF-", "lFU"),
    }))
    assert rel.reachability() == diagram.reachability()
    for a, b in (("lF+", "lF+"), ("lF-", "lF-"), ("lF+", "lF-"), ("lF-", "lF+")):
        assert (a, b) in rel.edges
    # forced-zero verdicts: Var_li o Var_Delta, Var_li o Var_lp,
    # Var_li o Var_li, Var_lp o Var_lp
    for first, then in itertools.chain(
        itertools.product(("lF+", "lF-"), ("lF/1", "lF/2")),
        itertools.product(("lFU",), ("lF/1", "lF/2")),
        [("lF/1", "lF/1"), ("lF/2", "lF/2"), ("lFU", "lFU")],
    ):
        assert word_vanishes(rel, comps, (first, then)).forced_zero, (first, then)
    assert not word_vanishes(rel, comps, ("lF/1", "lF+")).forced_zero
    ok(3, "bubble hierarchy reachability equals the printed diagram, oracle verdicts agree")


TRIANGLE_FIGURE_ARROWS = frozenset({
    ("lF/12", "lF/1"), ("lF/12", "lF/2"),
    ("lF/13", "lF/1"), ("lF/13", "lF/3"),
    ("lF/23", "lF/2"), ("lF/23", "lF/3"),
    ("lF/1", "lF"), ("lF/1", "lFU/1"), ("lF/1", "lF/1"),
    ("lF/2", "lF"), ("lF/2", "lFU/2"), ("lF/2", "lF/2"),
    ("lF/3", "lF"), ("lF/3", "lFU/3"), ("lF/3", "lF/3"),
    ("lFU/1", "lFU"), ("lFU/2", "lFU"), ("lFU/3", "lFU"),
    ("lF", "lFU"), ("lFU", "lFU"),
})


def test_c04_triangle_hierarchy_matches_figure():
    comps = oneloop_landau(triangle_graph())
    assert len(comps) == 11
    rel = hierarchy_graph(comps)
    figure = HierarchyRelation(rel.nodes, TRIANGLE_FIGURE_ARROWS)
    assert rel.reachability() == figure.reachability()
    self_loops = {s for s, t in rel.edges if s == t}
    assert self_loops == {"lF/1", "lF/2", "lF/3", "lFU"}
    assert not {c.id for c in comps if c.pinch == "linear"} & self_loops
    ok(4, "massive triangle reachability equals the figure; self-loops exactly as printed")


def test_c05_bubble_variation_table():
    m = builtin_model("bubble")
    nu1 = m.basis_vector("nu1")
    nu2 = m.basis_vector("nu2")
    nud = tuple(b - a for a, b in zip(nu1, nu2))
    assert apply_word(m, ("l1",), "sigma") == tuple(-x for x in nu1)
    assert apply_word(m, ("l2",), "sigma") == nu2
    assert apply_word(m, ("lD+",), "sigma") == nud
    assert apply_word(m, ("lD-",), "sigma") == (0, 0, 0)
    for branch in ("lD+", "lD-"):
        assert apply_word(m, (branch,), "nu1") == nud
        assert apply_word(m, (branch,), "nu2") == tuple(-x for x in nud)
    for i in ("l1", "l2"):
        for nu in ("nu1", "nu2"):
            assert apply_word(m, (i,), nu) == (0, 0, 0)
    assert is_zero_matrix(m.ops["lp"])
    # rebuild every operator from its intersection row: entry-for-entry equal
    # to the literal matrices
    for cid, literal in LITERAL_OPS["bubble"].items():
        cycle = m.vanishing.get(cid, ((0, 0, 0),))[0]
        assert pl_operator(m.n, cycle, m.intersection_rows[cid]) == literal == m.ops[cid]
    assert apply_word(m, ("l2", "lD+"), "sigma") == (0, 1, -1)  # nu1 - nu2
    # "all other iterated variations vanish" at the matrix level
    for word in itertools.chain(
        itertools.product(("lD+", "lD-", "lp"), ("l1", "l2")),
        [("l1", "l1"), ("l2", "l2"), ("lp", "lp")],
    ):
        assert is_zero_matrix(compose(m, word)), word
    ok(5, "bubble variation table, rank-one rebuild, and Var_D Var_2 sigma = nu1 - nu2")


def test_c06_hierarchy_consistency_audits():
    start = time.time()
    for name in ("logarithm", "bubble", "dilog"):
        report = check_against_hierarchy(builtin_model(name), max_len=4)
        assert report.ok and not report.unverified, (name, report.violations)
    elapsed = time.time() - start
    assert elapsed < 1.0, f"audits took {elapsed:.2f}s"
    ok(6, f"zero audit violations for logarithm/bubble/dilog at max_len=4 ({elapsed:.2f}s)")


def test_c07_dilog_constraints():
    m = builtin_model("dilog")
    for word in (("l0", "l1"), ("l1", "l1"), ("linf", "l1"), ("l0", "l0")):
        assert is_zero_matrix(compose(m, word)), word
    ok(7, "dilog double variations (0,1), (1,1), (inf,1) and (0,0) all compose to zero")


def test_c08_massless_triangle_constraints():
    m = builtin_model("massless-triangle")
    rel = hierarchy_graph(m.components)
    for i in (1, 2, 3):
        certified, why = word_zero_certificate(m, rel, (f"l{i}", f"l{i}"))
        assert certified, why
        certified, why = word_zero_certificate(m, rel, ("ldelta", f"l{i}"))
        assert certified, why
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            if i == j:
                continue
            out = apply_word(m, (f"l{j}", f"l{i}"), "sigma")
            assert out[:4] == (0, 0, 0, 0) and abs(out[4]) == 1, (i, j, out)
    ok(8, "triangle: Var_i Var_i = Var_i Var_delta = 0 certified, Var_i Var_j sigma = +-mu")


def test_c09_aomoto():
    for n in (1, 2, 3, 4):
        comps = aomoto_components(n)
        assert len(comps) == comb(2 * n + 2, n + 1), n
        # edges strictly grow the Q-set and shrink the R-set, and the pure
        # components are flagged: hence no length-(n+1) word survives
        rel = aomoto_edges(n)
        lookup = {c.id: c for c in comps}
        for s, t in rel.edges:
            assert lookup[s].type_J < lookup[t].type_J
            assert lookup[t].type_K < lookup[s].type_K
        for c in comps:
            if not c.type_J or not c.type_K:
                assert c.variation_known_zero
    # exhaustive word check at low weight
    for n in (1, 2):
        comps = aomoto_components(n)
        rel = aomoto_edges(n)
        ids = [c.id for c in comps]
        for word in itertools.product(ids, repeat=n + 1):
            assert word_vanishes(rel, comps, word).forced_zero
    # sampled word check at weight 3 and 4
    rng = random.Random(5)
    for n in (3, 4):
        comps = aomoto_components(n)
        rel = aomoto_edges(n)
        ids = [c.id for c in comps]
        for _ in range(2000):
            word = tuple(rng.choice(ids) for _ in range(n + 1))
            assert word_vanishes(rel, comps, word).forced_zero
    # symbol word counts and antisymmetry
    for n in (1, 2, 3):
        assert len(aomoto_symbol(n)) == factorial(n + 1) ** 2
    n = 2
    signs = {tuple(w.letters): w.sign for w in aomoto_symbol(n)}
    for sigma in itertools.permutations(range(n + 1)):
        for tau in itertools.permutations(range(n + 1)):
            s_swap = (sigma[1], sigma[0]) + sigma[2:]
            t_swap = (tau[1], tau[0]) + tau[2:]
            base = tuple(reversed(chain_sets(n, sigma, tau)))
            assert signs[tuple(reversed(chain_sets(n, s_swap, tau)))] == -signs[base]
            assert signs[tuple(reversed(chain_sets(n, sigma, t_swap)))] == -signs[base]
    # chain values against symbol signs at weight 3
    n = 3
    signs3 = {tuple(w.letters): w.sign for w in aomoto_symbol(n)}
    perms = list(itertools.permutations(range(n + 1)))
    rng = random.Random(17)
    for _ in range(50):
        sigma, tau = rng.choice(perms), rng.choice(perms)
        value = maximal_chain_value(n, sigma, tau)
        assert value.sign == signs3[tuple(reversed(chain_sets(n, sigma, tau)))]
        assert value.weight == n
    ok(9, "Aomoto counts, vanishing of overlong words, symbol signs and chain values")


def test_c10_local_ranks():
    assert local_rank(pinch_config(1, 2, (), (1,), (2,)), 1) == 1
    cfg = pinch_config(3, 1, (1,), (), ())
    assert local_rank(cfg, 0) == 1 and local_rank(cfg, 2) == 1
    assert local_rank(pinch_config(2, 3, (1,), (2, 3), ()), 1) == 2
    assert local_rank(pinch_config(1, 2, (), (1,), (2,)), 1, "closed") == 1
    count = 0
    for n in range(0, 6):
        for m in range(1, n + 2):
            universe = list(range(1, m + 1))
            for i_size in range(m + 1):
                for I in itertools.combinations(universe, i_size):
                    rest = [u for u in universe if u not in I]
                    for j_size in range(len(rest) + 1):
                        for J in itertools.combinations(rest, j_size):
                            rest2 = [u for u in rest if u not in J]
                            for k_size in range(len(rest2) + 1):
                                for K in itertools.combinations(rest2, k_size):
                                    cfg = pinch_config(n, m, I, J, K)
                                    flip = pinch_config(n, m, I, K, J)
                                    nI = n - len(I)
                                    for d in range(-1, 2 * n + 2):
                                        assert local_rank(cfg, d, "closed") == \
                                            local_rank(flip, 2 * nI - d, "open")
                                        assert local_rank(flip, 2 * nI - d, "closed") == \
                                            local_rank(cfg, d, "open")
                                    if not K and not cfg.covers_all:
                                        # binomial sum rule of the free regime
                                        ranks = [local_rank(cfg, d)
                                                 for d in range(2 * n + 2)]
                                        assert ranks == [
                                            comb(len(J), d) if d <= len(J) else 0
                                            for d in range(2 * n + 2)
                                        ]
                                    count += 1
    ok(10, f"local homology ranks: stated regimes plus exact duality involution "
           f"({count} configs, n <= 5)")


def test_c11_sign_algebra():
    base = (
        operator("d", "1", 2),
        operator("d", "2", 3),
        operator("p", "3", 2),
        operator("w", "4", 2),
        operator("w", "5", 3),
    )
    _, canon = normalize_word(base)
    pos = {op: i for i, op in enumerate(canon)}
    orders = 0
    for perm in itertools.permutations(base):
        sign, got = normalize_word(perm)
        assert got == canon
        expected = 1
        for i, a in enumerate(perm):
            for b in perm[i + 1:]:
                if pos[a] > pos[b]:
                    expected *= exchange_sign(a, b)
        assert sign == expected
        orders += 1
    assert orders == 120
    for n in (2, 4, 6):
        for d in range(0, 7):
            assert pairing_transfer_sign(2, n, d, "partial_to_delta") == (-1) ** (1 + d)
            assert pairing_transfer_sign(2, n, d, "delta_to_partial") == (-1) ** (1 + d)
    ok(11, "operator-word exchange signs over all 120 orders; complex pairing sign (-1)^(1+d)")


def test_c12_sunrise_elimination():
    start = time.time()
    m = {i: Polynomial.var(f"m{i}") for i in (1, 2, 3)}
    f = symanzik_F(sunrise_graph()).substitute(
        {f"m{i}sq": m[i] * m[i] for i in (1, 2, 3)}
    )
    eliminant = eliminate_critical_values(f, ["x1", "x2", "x3"], {"x3": 1})
    psq = Polynomial.var("psq")
    factors = [psq, m[1] * m[1], m[2] * m[2], m[3] * m[3]]
    for a in (1, -1):
        for b in (1, -1):
            factors.append(psq - (m[1] + a * m[2] + b * m[3]) ** 2)
    remaining = eliminant
    for factor in factors:
        quotient = divides(factor, remaining)
        assert quotient is not None, f"{factor} does not divide the eliminant"
        remaining = quotient
    elapsed = time.time() - start
    assert elapsed <= 60.0, f"elimination took {elapsed:.1f}s"
    ok(12, f"sunrise eliminant exactly divisible by all eight factors ({elapsed:.1f}s)")


def test_c13_icecream_ellA12():
    got = icecream_ellA12()
    printed = icecream_ellA12_printed()
    q_forward = divides(printed, got)
    q_backward = divides(got, printed)
    assert q_forward is not None and q_backward is not None
    assert q_forward.is_constant() and q_forward.constant_value() != 0
    ok(13, "ice cream ellA12 equals the printed polynomial up to a nonzero rational")


def test_c14_bubble_monodromy():
    f = symanzik_F(bubble_graph()).substitute({"x1": 1})
    base = {"m1sq": 1, "m2sq": 4}
    # the loop centers are the roots of the split threshold components at
    # the chosen masses
    comps = {c.id: c for c in bubble_split(oneloop_landau(bubble_graph()),
                                           bubble_graph())}
    at_masses = {"m1": 1, "m2": 2}
    assert comps["lF+"].defining.substitute({**at_masses, "psq": 9}).is_zero()
    assert comps["lF-"].defining.substitute({**at_masses, "psq": 1}).is_zero()
    outcomes = []
    for steps in (256, 512):
        plus = track(ParametricRootSystem(f, "x2", base, Loop("psq", 9, 0.1, steps=steps)),
                     marked=[0], tol=1e-10)
        minus = track(ParametricRootSystem(f, "x2", base, Loop("psq", 1, 0.1, steps=steps)),
                      marked=[0], tol=1e-10)
        mass = track(ParametricRootSystem(f, "x2", {"m2sq": 4, "psq": -1},
                                          Loop("m1sq", 0, 1.0, steps=steps)),
                     marked=[0], tol=1e-10)
        assert plus.permutation == (1, 0)
        assert minus.permutation == (1, 0)
        assert mass.is_identity
        near0 = min(range(2), key=lambda i: abs(mass.start_roots[i]))
        assert mass.windings[near0][0] == 1
        assert mass.windings[1 - near0][0] == 0
        outcomes.append((plus.permutation, minus.permutation,
                         mass.permutation, tuple(map(tuple, mass.windings))))
    assert outcomes[0] == outcomes[1], "doubling the step count changed an output"
    ok(14, "bubble loops: swap, swap, identity with winding +1; stable under step doubling")
