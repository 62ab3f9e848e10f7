import itertools
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landauvar.localhom import (
    _KIND_ORDER as KIND_ORDER,
    LocalHomologyError,
    Operator,
    PinchConfig,
    UnsupportedConfiguration,
    exchange_sign,
    local_rank,
    normalize_word,
    operator,
    pairing_transfer_sign,
    parse_word,
    partialK_reduction_sign,
    pinch_config,
    pl_sign,
    swap_sign,
    vanishing_cycle_sign,
)


def all_configs(n_max):
    for n in range(0, n_max + 1):
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
                                    yield pinch_config(n, m, I, J, K)


def test_rank_regime_examples():
    # relative boundary present and all hypersurfaces used: one class, in the
    # dimension of the stratum
    assert local_rank(pinch_config(1, 2, (), (1,), (2,)), 1) == 1
    assert local_rank(pinch_config(1, 2, (), (1,), (2,)), 0) == 0
    # vanishing sphere S^2 of a quadratic pinch
    cfg = pinch_config(3, 1, (1,), (), ())
    assert local_rank(cfg, 0) == 1 and local_rank(cfg, 2) == 1
    assert local_rank(cfg, 1) == 0
    # linear pinch with two deleted hypersurfaces: rank |J| in middle degree
    assert local_rank(pinch_config(2, 3, (1,), (2, 3), ()), 1) == 2
    # closed variant of the concentrated case
    assert local_rank(pinch_config(1, 2, (), (1,), (2,)), 1, "closed") == 1


def test_rank_vanishing_for_proper_subsets_with_K():
    assert local_rank(pinch_config(3, 3, (1,), (), (2,)), 2) == 0
    assert local_rank(pinch_config(3, 3, (), (1,), (2,)), 1) == 0


def test_degenerate_sphere_has_rank_two():
    # m = n: the vanishing sphere is two points
    cfg = pinch_config(2, 2, (1, 2), (), ())
    assert local_rank(cfg, 0) == 2
    assert local_rank(cfg, 1) == 0


def test_duality_involution():
    for cfg in all_configs(5):
        flipped = pinch_config(cfg.n, cfg.m, cfg.I, cfg.K, cfg.J)
        top = 2 * cfg.n
        for d in range(-1, top + 2):
            closed = local_rank(cfg, d, "closed")
            assert closed == local_rank(flipped, 2 * (cfg.n - len(cfg.I)) - d, "open")
            # applying the transform twice restores the open ranks
            assert local_rank(flipped, 2 * (cfg.n - len(cfg.I)) - d, "closed") == \
                local_rank(cfg, d, "open")


def test_closed_variant_builds_no_config(monkeypatch):
    cfg = pinch_config(3, 3, (1,), (2,), (3,))
    ranks = [local_rank(cfg, d, "closed") for d in range(6)]

    def refuse(self):
        raise AssertionError("a PinchConfig was built")

    monkeypatch.setattr(PinchConfig, "__post_init__", refuse)
    assert [local_rank(cfg, d, "closed") for d in range(6)] == ranks == [0, 0, 1, 0, 0, 0]


def test_sum_rule_binomial():
    # K empty, I cup J proper: the generating function of ranks is (1+z)^|J|
    for cfg in all_configs(4):
        if cfg.K or cfg.covers_all:
            continue
        sizeJ = len(cfg.J)
        ranks = [local_rank(cfg, d) for d in range(0, 2 * cfg.n + 2)]
        assert ranks[: sizeJ + 1] == [comb(sizeJ, d) for d in range(sizeJ + 1)]
        assert all(r == 0 for r in ranks[sizeJ + 1:])


def test_euler_characteristic_case_iv():
    # direct evaluation of the decomposition: sphere part plus point part
    for cfg in all_configs(5):
        if cfg.K or not cfg.covers_all:
            continue
        sizeJ = len(cfg.J)
        total = sum(
            (-1) ** d * local_rank(cfg, d) for d in range(0, 2 * cfg.n + 2)
        )
        if cfg.is_linear:
            sphere_chi = 0
        else:
            r = cfg.n - cfg.m
            sphere_chi = (-1) ** sizeJ * (1 + (-1) ** r)
        points_chi = sum((-1) ** d * comb(sizeJ, d) for d in range(sizeJ))
        assert total == sphere_chi + points_chi, cfg


def test_config_validation():
    with pytest.raises(UnsupportedConfiguration):
        pinch_config(1, 3, (), (), ())  # m > n+1
    with pytest.raises(UnsupportedConfiguration):
        pinch_config(2, 2, (1,), (1,), ())  # not disjoint
    with pytest.raises(UnsupportedConfiguration):
        pinch_config(2, 2, (5,), (), ())  # out of range
    with pytest.raises(UnsupportedConfiguration):
        local_rank(pinch_config(1, 2, (), (), ()), 0, "weird")


def test_normalize_word_examples():
    sign, canon = normalize_word(parse_word("p2 p1"))
    assert sign == -1
    assert [str(op) for op in canon] == ["p1", "p2"]
    sign, canon = normalize_word(parse_word("d2 d1"))
    assert sign == -1  # both codimension 2: (-1)^{1*1}
    assert normalize_word(()) == (1, ())


def test_normalize_word_canonical_order():
    sign, canon = normalize_word(parse_word("p1 w2:r=2 d3:r=2"))
    kinds = [op.kind for op in canon]
    assert kinds == ["delta", "partial", "pi"]


def test_normalize_same_surface_square_kept():
    word = parse_word("p1 p1")
    sign, canon = normalize_word(word)
    assert sign == 1 and canon == word
    with pytest.raises(LocalHomologyError):
        normalize_word(parse_word("p1 d1"))


def test_exchange_rule_table():
    # the six stated commutation rules
    d2 = operator("d", "a", 2)
    d3 = operator("d", "b", 3)
    p = operator("p", "c")
    p2 = operator("p", "d")
    w2 = operator("w", "e", 2)
    w3 = operator("w", "f", 3)
    assert exchange_sign(p, p2) == -1
    assert exchange_sign(d2, d3) == (-1) ** ((2 - 1) * (3 - 1))
    assert exchange_sign(p, d3) == (-1) ** (3 - 1)
    assert exchange_sign(d2, w3) == (-1) ** ((2 - 1) * 3)
    assert exchange_sign(p, w3) == (-1) ** 3
    assert exchange_sign(w2, w3) == (-1) ** (2 * 3)


def _pair_sign_oracle(word, canon):
    """Product of exchange signs over pairs whose relative order flips."""
    sign = 1
    pos = {op: i for i, op in enumerate(canon)}
    for i, a in enumerate(word):
        for b in word[i + 1:]:
            if pos[a] > pos[b]:
                sign *= exchange_sign(a, b)
    return sign


def test_normalize_word_sign_over_all_orders():
    base = parse_word("d1 d2:r=3 p3 p4 w5:r=2")
    _, canon = normalize_word(base)
    for perm in itertools.permutations(base):
        sign, got = normalize_word(perm)
        assert got == canon
        assert sign == _pair_sign_oracle(perm, canon)


@st.composite
def operator_words(draw):
    size = draw(st.integers(min_value=0, max_value=6))
    kinds = ["d", "p", "w"]
    ops = []
    for i in range(size):
        ops.append(operator(draw(st.sampled_from(kinds)), str(i),
                            draw(st.integers(min_value=1, max_value=4))))
    return tuple(ops)


@given(operator_words())
@settings(max_examples=60, deadline=None)
def test_normalize_idempotent_and_consistent(word):
    sign, canon = normalize_word(word)
    again_sign, again = normalize_word(canon)
    assert again == canon and again_sign == 1
    assert sign == _pair_sign_oracle(word, canon)


def reference_normalize_word(word) -> tuple:
    """The bubble sort that `normalize_word` replaced: the oracle for its
    canonical word, its sign and its refusals."""
    ops = list(word)
    sign = 1

    def key(op):
        return (KIND_ORDER[op.kind], op.surface)

    changed = True
    while changed:
        changed = False
        for i in range(len(ops) - 1):
            if key(ops[i]) > key(ops[i + 1]):
                sign *= exchange_sign(ops[i], ops[i + 1])
                ops[i], ops[i + 1] = ops[i + 1], ops[i]
                changed = True
    return sign, tuple(ops)


@st.composite
def words_repeating_surfaces(draw):
    surfaces = draw(st.lists(st.sampled_from(["1", "2", "10", "a"]),
                             min_size=1, max_size=4, unique=True))
    return tuple(operator(draw(st.sampled_from("dpw")), draw(st.sampled_from(surfaces)),
                          draw(st.integers(min_value=1, max_value=4)))
                 for _ in range(draw(st.integers(min_value=0, max_value=10))))


def surfaces_with_an_inverted_pair(word) -> set:
    return {a.surface for i, a in enumerate(word) for b in word[i + 1:]
            if a.surface == b.surface and KIND_ORDER[a.kind] > KIND_ORDER[b.kind]}


@given(words_repeating_surfaces())
@settings(max_examples=200, deadline=None)
def test_normalize_word_matches_the_bubble_sort(word):
    try:
        expected = reference_normalize_word(word)
    except LocalHomologyError as exc:
        with pytest.raises(LocalHomologyError) as got:
            normalize_word(word)
        if len(surfaces_with_an_inverted_pair(word)) == 1:
            assert str(got.value) == str(exc)
        return
    assert not surfaces_with_an_inverted_pair(word)
    assert normalize_word(word) == expected


def test_normalize_word_names_the_first_operator_out_of_kind_order():
    # da breaks surface a's kind order before db breaks b's; the bubble
    # sort meets the pair on surface b first
    word = parse_word("pa pb da db")
    with pytest.raises(LocalHomologyError, match="surface 'a'"):
        normalize_word(word)
    with pytest.raises(LocalHomologyError, match="surface 'b'"):
        reference_normalize_word(word)


@pytest.mark.parametrize("n", [20000, 20002])
def test_normalize_word_sorts_a_long_word_in_one_pass(n):
    # distinct surfaces in descending order, all of odd degree: every pair
    # is inverted and each exchange gives -1
    word = tuple(operator("p", f"{i:05d}") for i in reversed(range(n)))
    sign, canon = normalize_word(word)
    assert sign == (-1) ** (n * (n - 1) // 2)
    assert canon == word[::-1]


def test_simple_signs():
    assert vanishing_cycle_sign(0) == 1
    assert vanishing_cycle_sign(2) == -1
    assert vanishing_cycle_sign(4) == 1
    assert pl_sign(1) == -1
    assert pl_sign(2) == 1
    assert pl_sign(3) == 1
    assert partialK_reduction_sign(1, 1) == 1
    assert partialK_reduction_sign(5, 0) == 1
    assert partialK_reduction_sign(2, 2) == -1
    with pytest.raises(LocalHomologyError, match=r"\|J\| must be nonnegative"):
        vanishing_cycle_sign(-1)
    with pytest.raises(LocalHomologyError, match="fiber dimension must be nonnegative"):
        pl_sign(-1)
    for n, size_k in ((-1, 0), (0, -1)):
        with pytest.raises(LocalHomologyError, match="arguments must be nonnegative"):
            partialK_reduction_sign(n, size_k)


def test_pairing_transfer_signs():
    assert pairing_transfer_sign(2, 4, 1, "delta_to_partial") == 1
    assert pairing_transfer_sign(2, 4, 0, "delta_to_partial") == -1
    assert pairing_transfer_sign(3, 4, 1, "delta_to_partial") == -1
    for n in (2, 4, 6):
        for d in range(7):
            assert pairing_transfer_sign(2, n, d, "partial_to_delta") == (-1) ** (1 + d)
            # complex-hypersurface case: both directions agree
            assert pairing_transfer_sign(2, n, d, "delta_to_partial") == (-1) ** (1 + d)
    with pytest.raises(LocalHomologyError):
        pairing_transfer_sign(2, 2, 1, "sideways")
    assert swap_sign(4, 2) == 1 and swap_sign(4, 1) == -1


def test_operator_validation():
    with pytest.raises(LocalHomologyError):
        Operator("boundary-ish", "1", 2)
    with pytest.raises(LocalHomologyError):
        operator("d", "1", 0)
    with pytest.raises(LocalHomologyError):
        parse_word("q1")
