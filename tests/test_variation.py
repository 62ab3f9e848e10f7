import copy
import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landauvar import variation
from landauvar.hierarchy import HierarchyRelation, hierarchy_graph, word_vanishes
from landauvar.landau import LINEAR, LandauComponent
from landauvar.poly import Polynomial, cut, echo, first_repeat, parse
from landauvar.variation import (
    AuditReport,
    ModelError,
    UnknownEntryError,
    VariationModel,
    _certify_by_model,
    _echelon,
    _exact,
    _integral,
    _known_zero,
    _rat,
    _reduce,
    _span_certificate,
    apply_word,
    builtin_model,
    check_against_hierarchy,
    compose,
    has_unknown,
    identity_matrix,
    is_zero_matrix,
    mat_mul,
    mat_vec,
    matrix_from_images,
    model_from_json,
    model_to_json,
    nilpotency_index,
    pl_operator,
    word_zero_certificate,
)

BUILTIN = ("logarithm", "bubble", "dilog", "massless-triangle")


def vec(model, label):
    return model.basis_vector(label)


def test_bubble_table():
    m = builtin_model("bubble")
    nu1, nu2 = vec(m, "nu1"), vec(m, "nu2")
    nud = tuple(b - a for a, b in zip(nu1, nu2))
    assert apply_word(m, ("l1",), "sigma") == tuple(-x for x in nu1)
    assert apply_word(m, ("l2",), "sigma") == nu2
    assert apply_word(m, ("lD+",), "sigma") == nud
    assert apply_word(m, ("lD-",), "sigma") == (0, 0, 0)
    for branch in ("lD+", "lD-"):
        assert apply_word(m, (branch,), "nu1") == nud
        assert apply_word(m, (branch,), "nu2") == tuple(-x for x in nud)
    for i in ("l1", "l2"):
        for j in ("nu1", "nu2"):
            assert apply_word(m, (i,), j) == (0, 0, 0)
    assert is_zero_matrix(m.ops["lp"])


def test_bubble_compose_example():
    m = builtin_model("bubble")
    # first l2, then the threshold: sigma -> nu1 - nu2
    out = apply_word(m, ("l2", "lD+"), "sigma")
    assert out == (0, 1, -1)
    assert is_zero_matrix(compose(m, ("l2", "lp", "lD+")))
    assert compose(m, ()) == identity_matrix(3)


def zero_matrix(size):
    return ((0,) * size,) * size


# the logarithm and bubble operators as literal matrices, columns the images
# of the basis elements: the oracle for the rank-one rule the builders use
LITERAL_OPS = {
    "logarithm": {
        "l0": zero_matrix(2),
        "l1": matrix_from_images([(0, 1), (0, 0)]),
        "linf": matrix_from_images([(0, 1), (0, 0)]),
    },
    "bubble": {
        "l1": matrix_from_images([(0, -1, 0), (0, 0, 0), (0, 0, 0)]),
        "l2": matrix_from_images([(0, 0, 1), (0, 0, 0), (0, 0, 0)]),
        "lD+": matrix_from_images([(0, -1, 1), (0, -1, 1), (0, 1, -1)]),
        "lD-": matrix_from_images([(0, 0, 0), (0, -1, 1), (0, 1, -1)]),
        "lp": zero_matrix(3),
    },
}


def test_pl_operator_rebuild():
    for name, literal in LITERAL_OPS.items():
        m = builtin_model(name)
        assert m.ops == literal, name
        zero = (0,) * len(m.basis)
        for cid, op in literal.items():
            cycle = m.vanishing.get(cid, (zero,))[0]
            assert pl_operator(m.n, cycle, m.intersection_rows[cid]) == op, (name, cid)


def test_model_refuses_an_operator_off_the_rank_one_rule():
    m = builtin_model("bubble")
    doubled = tuple(tuple(2 * x for x in row) for row in m.ops["l1"])
    fields = dict(name="x", n=m.n, basis=m.basis, components=m.components,
                  vanishing=m.vanishing)
    # the doubled operator keeps its image in the declared span ...
    VariationModel(ops={**m.ops, "l1": doubled}, **fields)
    # ... but is not the operator of the cycle and the row
    with pytest.raises(ModelError, match="^l1: operator is not the Picard-Lefschetz"):
        VariationModel(ops={**m.ops, "l1": doubled},
                       intersection_rows=m.intersection_rows, **fields)
    # nor is the logarithm's operator with the opposite sign
    log = builtin_model("logarithm")
    flipped = tuple(tuple(-x for x in row) for row in log.ops["linf"])
    with pytest.raises(ModelError, match="^linf: "):
        VariationModel(name="x", n=log.n, basis=log.basis, components=log.components,
                       ops={**log.ops, "linf": flipped}, vanishing=log.vanishing,
                       intersection_rows=log.intersection_rows)


def test_basis_transforms_keep_the_rank_one_rule():
    # T^-1 (s nu r) T = s (T^-1 nu)(r T): every transformed copy loads, and
    # its operators are the rule's
    rng = random.Random(11)
    for name in LITERAL_OPS:
        for _ in range(25):
            m = transformed(builtin_model(name), rng)
            for cid, (cycle,) in m.vanishing.items():
                assert m.ops[cid] == pl_operator(m.n, cycle, m.intersection_rows[cid])


def test_pl_operator_zero_row():
    assert pl_operator(1, (1, 0), (0, 0)) == zero_matrix(2)
    with pytest.raises(ModelError, match="cycle and intersection row must have equal length"):
        pl_operator(1, (1, 0), (0, 0, 1))


def test_variation_self_action_minus_two():
    # quadratic even-parity pinch sends its own vanishing cycle to -2 itself
    m = builtin_model("bubble")
    nud = (Fraction(0), Fraction(-1), Fraction(1))
    from landauvar.variation import mat_vec
    for branch in ("lD+", "lD-"):
        out = mat_vec(m.ops[branch], nud)
        assert out == tuple(-2 * x for x in nud)


def test_threshold_monodromy_is_the_tracked_swap():
    # the tracked loops around both thresholds swap the two roots; since each
    # small cycle is a tube around one root, the monodromy id + Var must act
    # as the transposition on the (nu1, nu2) block
    m = builtin_model("bubble")
    from landauvar.variation import mat_vec
    i1, i2 = m.basis.index("nu1"), m.basis.index("nu2")
    for branch in ("lD+", "lD-"):
        for src, dst in ((i1, i2), (i2, i1)):
            e = tuple(Fraction(1 if k == src else 0) for k in range(3))
            out = mat_vec(m.ops[branch], e)
            monodromy = tuple(a + b for a, b in zip(out, e))
            assert monodromy == tuple(
                Fraction(1 if k == dst else 0) for k in range(3)
            )


def test_nilpotency_indices():
    log = builtin_model("logarithm")
    assert nilpotency_index(log, [c.id for c in log.components]) == 2
    bub = builtin_model("bubble")
    assert nilpotency_index(bub, ["l1", "l2", "lp"]) == 2
    assert nilpotency_index(bub, ["lD+", "lD-"]) is None


def test_nilpotency_index_has_no_cutoff():
    # the n x n shift sends b_{i+1} to b_i: its index is n, past any fixed cutoff
    size = 12
    shift = tuple(tuple(Fraction(int(j == i + 1)) for j in range(size)) for i in range(size))
    model = VariationModel(
        name="shift", n=1, basis=tuple(f"b{i}" for i in range(size)), ops={"a0": shift},
        components=(letter("a0"),),
    )
    assert nilpotency_index(model, ["a0"]) == size


def test_audits_clean():
    for name in ("logarithm", "bubble", "dilog"):
        m = builtin_model(name)
        report = check_against_hierarchy(m, max_len=4)
        assert report.ok, (name, report.violations)
        assert not report.unverified
        assert report.words_checked > 0


def test_audit_detects_corruption():
    m = builtin_model("bubble")
    ops = dict(m.ops)
    # corrupt: make the first threshold branch survive after l1
    corrupted = [list(row) for row in ops["l1"]]
    nu1_col = m.basis.index("nu2")
    corrupted[m.basis.index("nu1")][nu1_col] = Fraction(1)  # Var_l1 nu2 = nu1
    ops["l1"] = tuple(tuple(row) for row in corrupted)
    bad = VariationModel(
        name="bubble-corrupt", n=m.n, basis=m.basis, ops=ops,
        components=m.components, intersection_rows=m.intersection_rows,
        boundary_K=m.boundary_K, coboundary_J=m.coboundary_J,
    )
    report = check_against_hierarchy(bad, max_len=2)
    assert not report.ok
    assert ("lD+", "l1") in report.violations or ("lD-", "l1") in report.violations


def test_image_span_validation():
    m = builtin_model("bubble")
    ops = dict(m.ops)
    broken = [list(row) for row in ops["l1"]]
    broken[0][0] = Fraction(1)  # image of sigma leaves span(nu1)
    ops["l1"] = tuple(tuple(row) for row in broken)
    with pytest.raises(ModelError):
        VariationModel(
            name="x", n=m.n, basis=m.basis, ops=ops, components=m.components,
            vanishing=m.vanishing,
        )


def test_known_zero_flag_enforced():
    m = builtin_model("bubble")
    ops = dict(m.ops)
    ops["lp"] = m.ops["l1"]
    with pytest.raises(ModelError):
        VariationModel(name="x", n=m.n, basis=m.basis, ops=ops,
                       components=m.components)


def test_boundary_confinement():
    # if the image of Var_l has no boundary anywhere, any later component
    # demanding a simple boundary annihilates it
    for name in ("logarithm", "bubble", "dilog"):
        m = builtin_model(name)
        size = len(m.basis)
        for comp in m.components:
            mat = m.ops[comp.id]
            image_labels = [
                m.basis[i]
                for j in range(size)
                for i in range(size)
                if mat[i][j] not in (0, None)
            ]
            if not image_labels:
                continue
            if any(m.boundary_K.get(lbl) for lbl in image_labels):
                continue
            for later in m.components:
                if later.simple_K:
                    assert is_zero_matrix(
                        compose(m, (comp.id, later.id))
                    ), (name, comp.id, later.id)


def test_dilog_constraints():
    m = builtin_model("dilog")
    for word in (("l0", "l1"), ("l1", "l1"), ("linf", "l1"), ("l0", "l0")):
        assert is_zero_matrix(compose(m, word)), word
    # the nontrivial double variation survives: first l1, then l0
    assert apply_word(m, ("l1", "l0"), "sigma") == (0, 0, -1)


def test_triangle_model_certificates():
    m = builtin_model("massless-triangle")
    rel = hierarchy_graph(m.components)
    for i in (1, 2, 3):
        assert is_zero_matrix(compose(m, (f"l{i}", f"l{i}")))
        ok, why = word_zero_certificate(m, rel, ("ldelta", f"l{i}"))
        assert ok, why
        assert "image span" in why
    # off-diagonal double variations hit +-mu
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            if i == j:
                continue
            out = apply_word(m, (f"l{j}", f"l{i}"), "sigma")
            assert out[:4] == (0, 0, 0, 0) and abs(out[4]) == 1
    # words through the partly-unknown operator fail loudly
    with pytest.raises(UnknownEntryError):
        compose(m, ("l1", "ldelta"))


def test_certificate_reports_nonzero():
    m = builtin_model("bubble")
    rel = hierarchy_graph(m.components)
    ok, why = word_zero_certificate(m, rel, ("l2", "lD+"))
    assert not ok and "nonzero" in why
    ok, why = word_zero_certificate(m, rel, ("lD+", "l1"))
    assert ok and why.startswith("oracle")


def test_model_json_roundtrip():
    m = builtin_model("bubble")
    data = model_to_json(m)
    back = model_from_json(data)
    assert back.basis == m.basis
    assert back.ops == m.ops
    assert back.vanishing == m.vanishing
    assert [c.id for c in back.components] == [c.id for c in m.components]
    report = check_against_hierarchy(back, max_len=3)
    assert report.ok
    # unknown entries survive the round trip
    tri = builtin_model("massless-triangle")
    back = model_from_json(model_to_json(tri))
    assert back.ops["ldelta"] == tri.ops["ldelta"]
    assert back.ops["l1"] == tri.ops["l1"]


def test_unknown_model_name():
    with pytest.raises(ModelError):
        builtin_model("pentagon")


def test_matrix_helpers():
    with pytest.raises(ModelError):
        matrix_from_images([(1, 0)])
    m = matrix_from_images([(0, 1), (0, 0)])
    assert m == ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)))


@pytest.mark.parametrize("text", ["007", "-0", "+3", " 3 ", "1_000", "\u0661\u0662", "6/4",
                                  "3/1", "-", "", "1/0", "0.5", "1e3", "-2.5E-3", "4e1_0",
                                  "1e4213", "1e", "1e+"])
def test_rat_reads_text_as_fraction_does(text):
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ModelError, match="not an exact rational entry"):
            _rat(text)
        return
    value = _rat(text)
    assert value == expected
    assert (type(value) is int) == (expected.denominator == 1), (text, value)


def test_rat_admits_integers_up_to_the_digit_budget():
    # the budget of a text entry, 4214 digits, holds for an integer entry too
    for value in (10 ** 4214 - 1, -(10 ** 4214 - 1)):
        assert _rat(value) == value
    for value in (10 ** 4214, -10 ** 4214):
        with pytest.raises(ModelError, match="^integer entry is over the budget of 4214 digits$"):
            _rat(value)


@pytest.mark.parametrize("value", [0.5, 1.0, True, False, complex(1, 0), [1]])
def test_rat_refuses_inexact_entries(value):
    with pytest.raises(ModelError, match="not an exact rational entry"):
        _rat(value)


@pytest.mark.parametrize("where, value, message", [
    ("ops", 0.5, "operator for l1 has an entry that is not an exact rational: 0.5"),
    ("ops", True, "operator for l1 has an entry that is not an exact rational: True"),
    ("vanishing", 1.0,
     "vanishing vector of l1 has an entry that is not an exact rational: 1.0"),
    ("intersection_rows", False,
     "intersection row of l1 has an entry that is not an exact rational: False"),
])
def test_model_refuses_entries_that_are_not_exact_rationals(where, value, message):
    m = builtin_model("bubble")
    fields = dict(name="x", n=m.n, basis=m.basis, components=m.components,
                  ops=dict(m.ops), vanishing=dict(m.vanishing),
                  intersection_rows=dict(m.intersection_rows))
    if where == "ops":
        fields["ops"]["l1"] = tuple(tuple(value if x == 0 else x for x in row)
                                    for row in m.ops["l1"])
    elif where == "vanishing":
        fields["vanishing"]["l1"] = ((0, value, 0),)
    else:
        fields["intersection_rows"]["l1"] = (1, value, 0)
    with pytest.raises(ModelError, match=f"^{message}$"):
        VariationModel(**fields)


# -- the audit against per-word enumeration ------------------------------------------


def enumerated_audit(model, rel, max_len):
    """Reference audit: list every word up to `max_len`, ask the oracle about
    each one and rebuild each forced word's product from scratch."""
    ids = sorted(c.id for c in model.components)
    violations, unverified = [], []
    checked = 0
    for length in range(1, max_len + 1):
        for word in itertools.product(ids, repeat=length):
            if not word_vanishes(rel, model.components, word).forced_zero:
                continue
            checked += 1
            certified, _ = _certify_by_model(model, word)
            if certified is False:
                violations.append(word)
            elif certified is None:
                unverified.append(word)
    return AuditReport(model.name, max_len, checked, sorted(violations),
                       sorted(unverified)).describe()


def transformed(model, rng):
    """The same model over the basis b'_i = d_i * b_p(i) for a random
    permutation p and random rational scales d: operators become T^-1 A T
    with T = P D, spans T^-1 v and intersection rows r T."""
    return model_from_json(transformed_document(model, rng))


def transformed_document(model, rng):
    """The document of `transformed(model, rng)`."""
    size = len(model.basis)
    p = rng.sample(range(size), size)
    d = [Fraction(rng.choice([1, -1, 2, 3]), rng.choice([1, 2, 5])) for _ in range(size)]
    data = model_to_json(model)
    data["basis"] = [model.basis[p[i]] for i in range(size)]
    data["ops"] = {
        cid: [[None if m[p[i]][p[j]] is None else str(m[p[i]][p[j]] * d[j] / d[i])
               for j in range(size)] for i in range(size)]
        for cid, m in model.ops.items()
    }
    data["vanishing"] = {
        cid: [[str(Fraction(v[p[i]]) / d[i]) for i in range(size)] for v in vs]
        for cid, vs in model.vanishing.items()
    }
    data["intersection_rows"] = {
        cid: [str(row[p[j]] * d[j]) for j in range(size)]
        for cid, row in model.intersection_rows.items()
    }
    return data


def relations(model):
    """The model's own relation, no arrows, only self-loops and every arrow
    (where unforced words such as l1,l1 in the bubble compose to zero)."""
    ids = tuple(sorted(c.id for c in model.components))
    return {
        "hierarchy": model.relation(),
        "empty": HierarchyRelation(ids, frozenset()),
        "self-loops": HierarchyRelation(ids, frozenset((a, a) for a in ids)),
        "complete": HierarchyRelation(ids, frozenset(itertools.product(ids, ids))),
    }


@pytest.mark.parametrize("name", BUILTIN)
def test_audit_matches_enumeration_on_builtin_models(name):
    m = builtin_model(name)
    rel = m.relation()
    for max_len in range(1, 6 if name == "bubble" else 7):
        assert check_against_hierarchy(m, max_len=max_len).describe() == \
            enumerated_audit(m, rel, max_len), max_len


@pytest.mark.parametrize("name", BUILTIN)
def test_audit_matches_enumeration_on_transformed_models(name):
    rng = random.Random(name)
    for _ in range(2):
        m = transformed(builtin_model(name), rng)
        rel = m.relation()
        for max_len in range(1, 5):
            assert check_against_hierarchy(m, max_len=max_len).describe() == \
                enumerated_audit(m, rel, max_len), max_len


@pytest.mark.parametrize("name", BUILTIN)
def test_audit_matches_enumeration_under_other_relations(name):
    m = builtin_model(name)
    for label, rel in relations(m).items():
        for max_len in range(1, 5):
            assert check_against_hierarchy(m, rel, max_len).describe() == \
                enumerated_audit(m, rel, max_len), (label, max_len)


def test_audit_violations_and_unverified_under_empty_relation():
    m = builtin_model("massless-triangle")
    report = check_against_hierarchy(m, relations(m)["empty"], max_len=4)
    assert report.words_checked == 336
    assert len(report.unverified) == 24
    assert len(report.violations) == 6


def test_audit_of_no_length_checks_nothing():
    for name in BUILTIN:
        for max_len in (0, -1):
            report = check_against_hierarchy(builtin_model(name), max_len=max_len)
            assert report.words_checked == 0, (name, max_len)
            assert report.ok and not report.unverified


def test_audit_enters_no_subtree_without_forced_words(monkeypatch):
    # the massless triangle's own relation forces no word, so no product is
    # needed at any length
    products = []
    real = variation.mat_mul
    monkeypatch.setattr(variation, "mat_mul",
                        lambda a, b: products.append(1) or real(a, b))
    report = check_against_hierarchy(builtin_model("massless-triangle"), max_len=6)
    assert report.words_checked == 0
    assert products == []


def rebuilt_span_certificate(model, word):
    """Reference image-span certificate: the tail after each simple pinch is
    rebuilt from scratch, letter by letter."""
    for i, cid in enumerate(word[:-1]):
        span = model.vanishing.get(cid)
        if model.component(cid).is_simple_pinch and span:
            tail = identity_matrix(len(model.basis))
            for later in word[i + 1:]:
                tail = mat_mul(model.ops[later], tail)
            if all(x == 0 for v in span for x in mat_vec(tail, v)):
                return cid
    return None


def test_span_certificate_shares_its_tails():
    # the tails are built from the cleared operators, as the audit builds
    # them, and the oracle multiplies the rational ones
    bubble = model_to_json(builtin_model("bubble"))
    bubble["ops"]["l1"] = [[None] * 3 for _ in range(3)]
    bubble = model_from_json(bubble)
    for m in (builtin_model("massless-triangle"), bubble,
              transformed(bubble, random.Random(4))):
        ids = sorted(m.ops)
        for length in range(1, 5):
            for word in itertools.product(ids, repeat=length):
                built = []
                cid = _span_certificate(m, word,
                                        lambda a, b: built.append(1) or mat_mul(a, b))
                assert cid == rebuilt_span_certificate(m, word), word
                assert len(built) <= max(length - 2, 0)


def test_integral_clears_denominators_and_keeps_unknowns():
    m = ((Fraction(1, 2), None, 0), (Fraction(-2, 3), 4, Fraction(5, 4)), (0, 0, None))
    assert _integral(m)[1] == ((6, None, 0), (-8, 48, 15), (0, 0, None))
    assert _integral(((None,),))[1] == ((None,),)
    assert _integral(identity_matrix(2))[1] == identity_matrix(2)


def test_audit_walk_looks_up_no_component(monkeypatch):
    # the image-span certificates of the l1-unknown bubble read the model's
    # pinch set, not one component per letter
    doc = model_to_json(builtin_model("bubble"))
    doc["ops"]["l1"] = [[None] * 3 for _ in range(3)]
    m = model_from_json(doc)
    expected = check_against_hierarchy(m, max_len=5).describe()
    assert expected["unverified"]

    def no_lookup(self, cid):
        raise AssertionError(f"the audit looked up component {cid!r}")

    monkeypatch.setattr(VariationModel, "component", no_lookup)
    assert check_against_hierarchy(m, max_len=5).describe() == expected


def test_audit_counts_every_forced_word_of_length_eight():
    report = check_against_hierarchy(builtin_model("bubble"), max_len=8)
    assert report.words_checked == 487260
    assert report.ok and not report.unverified


# -- compose against the rational product ------------------------------------------


def reference_compose(model, word):
    """Reference composition: `mat_mul` folded over the rational operators."""
    product = identity_matrix(len(model.basis))
    for cid in word:
        product = mat_mul(model.ops[cid], product)
    return product


@pytest.mark.parametrize("name", BUILTIN)
def test_compose_matches_the_rational_product(name):
    rng = random.Random(name)
    for m in [builtin_model(name)] + [transformed(builtin_model(name), rng)
                                      for _ in range(2)]:
        for length in range(5):
            for word in itertools.product(sorted(m.ops), repeat=length):
                expected = reference_compose(m, word)
                if has_unknown(expected):
                    with pytest.raises(UnknownEntryError):
                        compose(m, word)
                    continue
                got = compose(m, word)
                assert got == expected, word
                assert [str(x) for row in got for x in row] == \
                    [str(x) for row in expected for x in row], word


def test_compose_multiplies_only_integer_matrices(monkeypatch):
    m = transformed(builtin_model("bubble"), random.Random(5))
    assert any(type(x) is Fraction for op in m.ops.values() for row in op for x in row)
    entries = []
    real = variation.mat_mul
    monkeypatch.setattr(variation, "mat_mul", lambda a, b: entries.extend(
        type(x) for mat in (a, b) for row in mat for x in row) or real(a, b))
    products = [compose(m, word) for word in itertools.product(sorted(m.ops), repeat=3)]
    assert products == [reference_compose(m, word)
                        for word in itertools.product(sorted(m.ops), repeat=3)]
    assert any(type(x) is Fraction for p in products for row in p for x in row)
    assert entries and set(entries) <= {int, type(None)}, set(entries)


# -- nilpotency against per-word enumeration -----------------------------------------


def enumerated_nilpotency(ops, cutoff):
    """The first length up to `cutoff` whose words all compose to zero;
    exact with `cutoff` the basis size, which bounds any index."""
    ids = sorted(ops)
    size = len(next(iter(ops.values())))
    for k in range(1, cutoff + 1):
        products = []
        for word in itertools.product(ids, repeat=k):
            product = identity_matrix(size)
            for cid in word:
                product = mat_mul(ops[cid], product)
            products.append(product)
        if all(is_zero_matrix(p) for p in products):
            return k
    return None


def letter(cid):
    return LandauComponent(cid, Polynomial.var("t"), frozenset(), frozenset(),
                           frozenset(), frozenset(), LINEAR, -1)


@st.composite
def conjugated_nilpotent_ops(draw):
    """Strictly upper triangular integer matrices, which are jointly nilpotent,
    conjugated by one random product of rational shears and scalings."""
    size = draw(st.integers(2, 4))
    count = draw(st.integers(1, 3))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2])
    ops = {
        f"a{k}": tuple(
            tuple(Fraction(draw(entry)) if j > i else Fraction(0) for j in range(size))
            for i in range(size)
        )
        for k in range(count)
    }
    ratio = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3))
    for _ in range(draw(st.integers(1, 4))):
        i, j = draw(st.permutations(range(size)))[:2]
        c, s = draw(ratio), draw(ratio)
        # E = (I + c e_i e_j^T) scaled by s at i; E^-1 undoes the scale first
        e = [list(row) for row in identity_matrix(size)]
        e_inv = [list(row) for row in identity_matrix(size)]
        e[i][j] = c * s
        e[i][i] = s
        e_inv[i][i] = 1 / s
        e_inv[i][j] = -c
        e, e_inv = tuple(map(tuple, e)), tuple(map(tuple, e_inv))
        assert mat_mul(e, e_inv) == identity_matrix(size)
        ops = {cid: mat_mul(e_inv, mat_mul(a, e)) for cid, a in ops.items()}
    return ops


@settings(max_examples=60, deadline=None)
@given(conjugated_nilpotent_ops())
def test_nilpotency_matches_enumeration(ops):
    size = len(next(iter(ops.values())))
    model = VariationModel(
        name="random", n=1, basis=tuple(f"b{i}" for i in range(size)), ops=ops,
        components=tuple(letter(cid) for cid in sorted(ops)),
    )
    assert nilpotency_index(model, sorted(ops)) == enumerated_nilpotency(ops, size)


# -- the fraction-free span tests against rational row reduction ----------------------


def reference_reduce(vector, pivots):
    """`vector` minus its components along the echelon rows `pivots`, over Q."""
    work = list(vector)
    for col, prow in pivots:
        factor = work[col]
        if factor:
            work = [w - factor * p for w, p in zip(work, prow)]
    return work


def reference_echelon(vectors):
    """Rational row reduction: (pivot column, row) pairs spanning the same
    space as `vectors`, each row 1 at its pivot and 0 at earlier pivots."""
    pivots = []
    for v in vectors:
        work = reference_reduce(v, pivots)
        lead = next((i for i, w in enumerate(work) if w != 0), None)
        if lead is None:
            continue
        inv = Fraction(1) / work[lead]
        pivots.append((lead, [w * inv for w in work]))
    return pivots


def reference_nilpotency(ops, cutoff):
    """Subspace iteration over Q with rational operators and rows."""
    space = identity_matrix(len(next(iter(ops.values()))))
    for k in range(1, cutoff + 1):
        space = [row for _, row in reference_echelon(
            mat_vec(ops[cid], v) for cid in sorted(ops) for v in space)]
        if not space:
            return k
    return None


rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 7))


@st.composite
def spans_and_vectors(draw):
    """A list of vectors with zero and repeated members, and a vector that is
    often a rational combination of them."""
    size = draw(st.integers(1, 4))
    vector = st.tuples(*[rationals] * size)
    span = draw(st.lists(vector, max_size=4))
    span += [(Fraction(0),) * size] * draw(st.integers(0, 1))
    span += draw(st.lists(st.sampled_from(span), max_size=2)) if span else []
    span = draw(st.permutations(span))
    if span and draw(st.booleans()):
        coeffs = draw(st.lists(rationals, min_size=len(span), max_size=len(span)))
        query = tuple(sum(c * v[i] for c, v in zip(coeffs, span)) for i in range(size))
    else:
        query = draw(vector)
    return span, query


@settings(max_examples=100, deadline=None, derandomize=True)
@given(spans_and_vectors())
def test_in_span_matches_rational_reduction(case):
    span, vector = case
    assert any(_reduce(vector, _echelon(span))) == \
        any(reference_reduce(vector, reference_echelon(span)))


def test_each_declared_span_is_echeloned_once(monkeypatch):
    echelons = []
    echelon = variation._echelon

    def counted(span):
        echelons.append(span)
        return echelon(span)

    monkeypatch.setattr(variation, "_echelon", counted)
    for name in BUILTIN:
        model = builtin_model(name)
        echelons.clear()
        transformed(model, random.Random(0))
        # the rank-one rule checks a simple pinch without echeloning its span
        assert len(echelons) <= len(model.vanishing), name


@st.composite
def rational_ops(draw):
    """Operators with rational entries and many zeros, nilpotent or not."""
    size = draw(st.integers(1, 4))
    entry = st.one_of(st.just(Fraction(0)), rationals)
    return {f"a{k}": tuple(tuple(draw(entry) for _ in range(size)) for _ in range(size))
            for k in range(draw(st.integers(1, 3)))}


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.one_of(conjugated_nilpotent_ops(), rational_ops()))
def test_nilpotency_matches_rational_reduction(ops):
    size = len(next(iter(ops.values())))
    model = VariationModel(
        name="random", n=1, basis=tuple(f"b{i}" for i in range(size)), ops=ops,
        components=tuple(letter(cid) for cid in sorted(ops)),
    )
    assert nilpotency_index(model, sorted(ops)) == reference_nilpotency(ops, size)


def test_nilpotency_refuses_unknown_entries():
    m = builtin_model("massless-triangle")
    assert nilpotency_index(m, ["l1", "l2", "l3"]) == 3
    with pytest.raises(UnknownEntryError, match="ldelta"):
        nilpotency_index(m, ["l1", "ldelta"])


# -- the model reader against the one it replaced -------------------------------------
#
# `reference_model_from_json` is the reader that put every entry through `_rat`
# and compared each rank-one operator with the product `pl_operator` builds,
# kept verbatim (its checks as `ReferenceModel`'s) as an oracle for the fields,
# the entry types and every refusal.


class ReferenceModel(VariationModel):
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
        for cid, m in self.ops.items():
            if len(m) != size or any(len(row) != size for row in m):
                raise ModelError(f"operator for {cut(cid)} is not {size}x{size}")
            inexact = [x for row in m for x in row if x is not None and not _exact(x)]
            if inexact:
                raise ModelError(f"operator for {cut(cid)} has an entry that is not an"
                                 f" exact rational: {echo(inexact[0])}")
        for comp in self.components:
            if comp.variation_known_zero and not _known_zero(self.ops[comp.id]):
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
            if any(x is None for x in v):
                raise ModelError(f"{what} of {cut(cid)} has an unknown (null) entry")
            inexact = [x for x in v if not _exact(x)]
            if inexact:
                raise ModelError(f"{what} of {cut(cid)} has an entry that is not an exact"
                                 f" rational: {echo(inexact[0])}")
        self._check_images()
        # derived once, as `_by_id` is above: the audits read it for every word
        self._pinches = {c.id for c in self.components
                         if c.is_simple_pinch and self.vanishing.get(c.id)}

    def _check_images(self):
        """A simple pinch with one vanishing cycle and a row has the rank-one
        operator of the two; any other declared span holds its images."""
        for comp in self.components:
            span = self.vanishing.get(comp.id)
            m = self.ops[comp.id]
            if span is None or has_unknown(m):
                continue
            row = self.intersection_rows.get(comp.id)
            if comp.is_simple_pinch and len(span) == 1 and row is not None:
                if m != pl_operator(self.n, span[0], row):
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


def reference_names(value, what: str) -> list:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ModelError(f"malformed model document: {what} must be a list of"
                         f" strings, got {echo(value)}")
    return value


def reference_model_from_json(data) -> VariationModel:
    try:
        comps = tuple(
            LandauComponent(
                id=c["id"],
                defining=parse(c["defining"]),
                **{key: frozenset(reference_names(c[key], f"{cut(c['id'])} {key}"))
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
            cid: tuple(tuple(_rat(x) for x in row) for row in m)
            for cid, m in data["ops"].items()
        }
        return ReferenceModel(
            name=data["name"],
            n=data["n"],
            basis=tuple(reference_names(data["basis"], "basis")),
            ops=ops,
            components=comps,
            vanishing={
                cid: tuple(tuple(_rat(x) for x in v) for v in vs)
                for cid, vs in data.get("vanishing", {}).items()
            },
            intersection_rows={
                cid: tuple(_rat(x) for x in row)
                for cid, row in data.get("intersection_rows", {}).items()
            },
            **{key: {b: frozenset(reference_names(s, f"{key} of {cut(b)}"))
                     for b, s in data.get(key, {}).items()}
               for key in ("boundary_K", "coboundary_J")},
            conventions=conventions,
        )
    except (KeyError, IndexError, TypeError, AttributeError) as exc:
        raise ModelError(f"malformed model document: {exc}") from exc


def read_outcome(reader, data):
    """The fields of reader(data), each entry with its type, or the type and
    message of its error."""
    try:
        m = reader(copy.deepcopy(data))
    except ModelError as exc:
        return type(exc), str(exc)

    def typed(rows):
        return [[(x, type(x)) for x in row] for row in rows]

    return (m.name, m.n, m.basis, m.components, m.boundary_K, m.coboundary_J,
            m.conventions, list(m.ops), {cid: typed(op) for cid, op in m.ops.items()},
            {cid: typed(vs) for cid, vs in m.vanishing.items()},
            {cid: typed([row]) for cid, row in m.intersection_rows.items()})


def reader_documents():
    """The builtins' documents, 20 seeded transformed copies, and each of
    these with its integral entries as JSON numbers instead of text."""
    rng = random.Random(31)
    docs = [model_to_json(builtin_model(name)) for name in BUILTIN]
    docs += [transformed_document(builtin_model(BUILTIN[k % len(BUILTIN)]), rng)
             for k in range(20)]

    def numbers(rows):
        return [[int(x) if isinstance(x, str) and Fraction(x).denominator == 1 else x
                 for x in row] for row in rows]

    return docs + [{**d, "ops": {cid: numbers(m) for cid, m in d["ops"].items()},
                    "vanishing": {cid: numbers(vs) for cid, vs in d["vanishing"].items()},
                    "intersection_rows": {cid: numbers([row])[0]
                                          for cid, row in d["intersection_rows"].items()}}
                   for d in docs]


def entries(m):
    """Every entry of m's operators, vanishing vectors and intersection rows."""
    yield from (x for op in m.ops.values() for row in op for x in row)
    yield from (x for vs in m.vanishing.values() for v in vs for x in v)
    yield from (x for row in m.intersection_rows.values() for x in row)


def test_reader_equals_the_reference_on_builtin_and_transformed_documents():
    for data in reader_documents():
        outcome = read_outcome(model_from_json, data)
        assert outcome == read_outcome(reference_model_from_json, data), data["name"]
        m = model_from_json(data)
        assert all(x is None or type(x) is (int if x.denominator == 1 else Fraction)
                   for x in entries(m)), data["name"]


def mutated(data, places, value):
    """A copy of `data` with the entries at `places` ((field, key, i, j)
    with j None for an intersection row) set to `value`."""
    data = copy.deepcopy(data)
    for field, key, i, j in places:
        if j is None:
            data[field][key][i] = value
        else:
            data[field][key][i][j] = value
    return data


def test_reader_refuses_as_the_reference_does():
    bubble = model_to_json(builtin_model("bubble"))
    over = "1" + "0" * variation.PARSE_DIGIT_LIMIT
    cases = [
        # one rank-one entry nudged by 1/7
        (mutated(bubble, [("ops", "lD+", 0, 1)], str(Fraction(bubble["ops"]["lD+"][0][1])
                                                     + Fraction(1, 7))),
         "lD+: operator is not the Picard-Lefschetz map pl_sign(n) * cycle * intersection row"),
        # "1/0" in two operators: the first is reported
        (mutated(bubble, [("ops", "l2", 1, 2), ("ops", "l1", 0, 0)], "1/0"),
         "not an exact rational entry: '1/0'"),
        # an over-budget entry text, repeated
        (mutated(bubble, [("ops", "l1", 2, 1), ("ops", "lp", 0, 0),
                          ("vanishing", "l2", 0, 1)], over),
         f"entry {variation.echo(over)} is over the budget of 4214 digits"),
        # a `true` entry
        (mutated(bubble, [("intersection_rows", "l2", 1, None)], True),
         "not an exact rational entry: True"),
        # an unknown entry in an operator flagged zero
        (mutated(bubble, [("ops", "lp", 1, 1)], None), "lp is flagged zero but its matrix is not"),
    ]
    for data, message in cases:
        assert read_outcome(model_from_json, data) == (ModelError, message)
        assert read_outcome(reference_model_from_json, data) == (ModelError, message)


def test_reader_equals_the_reference_on_mutated_documents():
    # seeded mutations of every entry field, refused or not, and of rows' shapes
    rng = random.Random(7)
    pool = ["1/0", True, False, None, 0.5, "x", [1], {"a": 1}, "0", "2", "-3/2", "1e3",
            "1" + "0" * variation.PARSE_DIGIT_LIMIT, 10 ** 4300, 3, "1/7", "007", " 4 "]
    docs = reader_documents()
    for _ in range(300):
        data = copy.deepcopy(rng.choice(docs))
        for _ in range(rng.randint(1, 3)):
            field = rng.choice(["ops", "vanishing", "intersection_rows"])
            if not data[field]:
                continue
            key = rng.choice(sorted(data[field]))
            rows = data[field][key] if field != "intersection_rows" else [data[field][key]]
            row = rng.choice(rows)
            if rng.random() < 0.1:
                row.pop()
            elif rng.random() < 0.3 and row[0] is not None and isinstance(row[0], str):
                row[0] = str(Fraction(row[0]) + Fraction(rng.choice([-1, 1]), 7))
            else:
                row[rng.randrange(len(row))] = rng.choice(pool)
        assert read_outcome(model_from_json, data) == \
            read_outcome(reference_model_from_json, data)


def test_model_built_directly_refuses_an_over_budget_rank_one_vector_as_the_reference_does():
    # no `_rat` reads the cycle or the row of a model built without JSON
    m = builtin_model("bubble")
    cycle, row = m.vanishing["lD+"][0], m.intersection_rows["lD+"]
    over = "integer entry is over the budget of 4214 digits"
    off = "lD+: operator is not the Picard-Lefschetz map pl_sign(n) * cycle * intersection row"
    for vanishing, rows, message in [
            (((10 ** 4214, *cycle[1:]),), row, over),
            (((-10 ** 4214, *cycle[1:]),), row, over),
            ((cycle,), (*row[:-1], -10 ** 4214), over),
            ((cycle,), (*row[:-1], 10 ** 4214 - 1), off)]:
        fields = dict(name="x", n=m.n, basis=m.basis, components=m.components, ops=m.ops,
                      vanishing={**m.vanishing, "lD+": vanishing},
                      intersection_rows={**m.intersection_rows, "lD+": rows})
        for model in (VariationModel, ReferenceModel):
            with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
                model(**fields)
