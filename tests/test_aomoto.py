import itertools
import random
from math import comb, factorial

import pytest

from landauvar.aomoto import (
    AomotoError,
    SignedWord,
    aomoto_components,
    aomoto_edges,
    aomoto_symbol,
    chain_sets,
    component_id,
    maximal_chain_value,
)
from landauvar.hierarchy import hierarchy_graph, word_vanishes


def test_small_weights_are_built_once_and_each_call_has_its_own_list(capsys):
    import hashlib

    from landauvar import aomoto
    from landauvar.cli import main
    from test_cli import SYMBOL_DIGESTS

    def printed(*argv):
        assert main(list(argv)) == 0
        return capsys.readouterr().out

    aomoto._cached_components.cache_clear()
    for n in (2, 5):
        expected = printed("aomoto", "components", "--n", str(n), "--format", "json")
        aomoto_components(n).clear()
        assert printed("aomoto", "components", "--n", str(n), "--format", "json") == expected
        assert aomoto_components(n) is not aomoto_components(n)
    # weight 2 was built once for its five calls, and weight 5, over the cached
    # weights, on each call
    info = aomoto._cached_components.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 4, 1)
    for fmt in ("text", "json"):
        for _ in range(2):
            out = printed("aomoto", "symbol", "--n", "3", "--format", fmt)
            assert hashlib.sha256(out.encode()).hexdigest() == SYMBOL_DIGESTS["3", fmt]


def test_component_counts():
    for n in (1, 2, 3, 4):
        comps = aomoto_components(n)
        assert len(comps) == comb(2 * n + 2, n + 1)
    assert len(aomoto_components(1)) == 6
    assert len(aomoto_components(2)) == 20
    with pytest.raises(AomotoError):
        aomoto_components(0)


def test_pure_components_have_zero_variation():
    comps = {c.id: c for c in aomoto_components(1)}
    assert comps[component_id((0, 1), ())].variation_known_zero
    assert comps[component_id((), (0, 1))].variation_known_zero
    assert not comps[component_id((0,), (1,))].variation_known_zero
    for c in comps.values():
        assert c.pinch == "linear"


def test_edges_strict_inclusions():
    rel = aomoto_edges(1)
    comps = {c.id: c for c in aomoto_components(1)}
    # the only move from l_{0|1} adds 1 to I and empties J
    src = component_id((0,), (1,))
    assert rel.successors(src) == [component_id((0, 1), ())]
    # no self-edges anywhere, J can never grow
    for s, t in rel.edges:
        assert s != t
        I_s = comps[s].type_J
        I_t = comps[t].type_J
        K_s = comps[s].type_K
        K_t = comps[t].type_K
        assert I_s < I_t and K_t < K_s


def test_edges_agree_with_generic_relation():
    for n in (1, 2):
        comps = aomoto_components(n)
        assert aomoto_edges(n).edges == hierarchy_graph(comps).edges


def test_longest_admissible_word_is_n_fold():
    # the longest word the oracle does not force to zero has n components:
    # chains strictly grow I and must avoid the pure (zero-variation) cases
    n = 2
    rel = aomoto_edges(n)
    comps = {c.id: c for c in aomoto_components(n)}
    usable = [cid for cid, c in comps.items() if not c.variation_known_zero]
    longest = 1
    stack = [(cid, 1) for cid in usable]
    while stack:
        node, depth = stack.pop()
        longest = max(longest, depth)
        for nxt in rel.successors(node):
            if not comps[nxt].variation_known_zero:
                stack.append((nxt, depth + 1))
    assert longest == n


def test_symbol_n1_words():
    words = aomoto_symbol(1)
    rendered = {(w.sign, w.letters[0]) for w in words}
    f = frozenset
    assert rendered == {
        (1, (f({0}), f({1}))),
        (-1, (f({0}), f({0}))),
        (-1, (f({1}), f({1}))),
        (1, (f({1}), f({0}))),
    }


def test_symbol_counts_and_lengths():
    for n in (1, 2, 3):
        words = aomoto_symbol(n)
        assert len(words) == factorial(n + 1) ** 2
        assert all(len(w.letters) == n for w in words)


def test_symbol_antisymmetry_under_transposition():
    n = 2
    words = {tuple(w.letters): w.sign for w in aomoto_symbol(n)}
    for sigma in itertools.permutations(range(n + 1)):
        for tau in itertools.permutations(range(n + 1)):
            swapped = (sigma[1], sigma[0]) + sigma[2:]
            w1 = tuple(reversed(chain_sets(n, sigma, tau)))
            w2 = tuple(reversed(chain_sets(n, swapped, tau)))
            assert w1 != w2  # the chain determines the permutation pair
            assert words[w2] == -words[w1]


def test_symbol_words_are_admissible_chains():
    for n in (1, 2):
        comps = aomoto_components(n)
        rel = aomoto_edges(n)
        for w in aomoto_symbol(n):
            verdict = word_vanishes(rel, comps, w.component_sequence())
            assert not verdict.forced_zero, w


def test_all_longer_words_forced_zero():
    n = 1
    comps = aomoto_components(n)
    rel = aomoto_edges(n)
    ids = [c.id for c in comps]
    for word in itertools.product(ids, repeat=n + 1):
        assert word_vanishes(rel, comps, word).forced_zero, word


def test_longer_words_forced_zero_sampled_n2():
    n = 2
    comps = aomoto_components(n)
    rel = aomoto_edges(n)
    ids = [c.id for c in comps]
    rng = random.Random(3)
    for _ in range(300):
        word = tuple(rng.choice(ids) for _ in range(n + 1))
        assert word_vanishes(rel, comps, word).forced_zero, word


def test_symbol_equals_the_per_pair_construction():
    # `aomoto_symbol` builds its words from per-permutation tables; the
    # per-pair chain and chain value are the oracle, word by word in order
    for n in (1, 2, 3, 4):
        perms = list(itertools.permutations(range(n + 1)))
        expected = [
            SignedWord(maximal_chain_value(n, sigma, tau).sign,
                       tuple(reversed(chain_sets(n, sigma, tau))))
            for sigma in perms for tau in perms
        ]
        assert aomoto_symbol(n) == expected


def test_chain_value_signs_match_symbol():
    n = 3
    words = {}
    for w in aomoto_symbol(n):
        words[tuple(w.letters)] = w.sign
    rng = random.Random(11)
    perms = list(itertools.permutations(range(n + 1)))
    for _ in range(50):
        sigma, tau = rng.choice(perms), rng.choice(perms)
        value = maximal_chain_value(n, sigma, tau)
        letters = tuple(reversed(chain_sets(n, sigma, tau)))
        assert value.sign == words[letters]
        assert value.weight == n
    assert maximal_chain_value(n, tuple(range(n + 1)), tuple(range(n + 1))).sign == 1
    ident = tuple(range(n + 1))
    swapped = (1, 0) + ident[2:]
    assert maximal_chain_value(n, ident, swapped).sign == -1
    with pytest.raises(AomotoError):
        maximal_chain_value(2, (0, 1), (0, 1, 2))


def test_word_multiset_invariant_under_relabeling():
    n = 2
    base = sorted(
        (w.sign, tuple(sorted((tuple(sorted(I)), tuple(sorted(J))) for I, J in w.letters)))
        for w in aomoto_symbol(n)
    )
    relabel = {0: 2, 1: 0, 2: 1}
    relabeled = sorted(
        (
            w.sign,
            tuple(sorted(
                (tuple(sorted(relabel[i] for i in I)), tuple(sorted(relabel[j] for j in J)))
                for I, J in w.letters
            )),
        )
        for w in aomoto_symbol(n)
    )
    assert base == relabeled
