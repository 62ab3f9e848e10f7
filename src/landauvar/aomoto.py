"""Singularity structure of Aomoto polylogarithms of weight n.

Components of the Landau variety correspond to pairs of index sets (I, J)
with |I| + |J| = n + 1, each a linear pinch whose defining equation is the
determinant of the submatrix of hyperplane columns.  The maximal iterated
variations pick up one new Q-index and drop one R-index per step, so they are
labelled by pairs of permutations; the weight-n part of the symbol is the
signed sum over all such chains.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations, permutations
from operator import getitem

from .hierarchy import HierarchyRelation
from .landau import LINEAR, LandauComponent
from .poly import Polynomial, permutation_sign


class AomotoError(ValueError):
    pass


def _digits(indices) -> str:
    return "".join(str(i) for i in sorted(indices))


def component_id(I, J) -> str:
    return f"l_I{_digits(I)}_J{_digits(J)}"


def letter_id(I, J) -> str:
    return f"det_t_I{_digits(I)}_J{_digits(J)}"


def _index_pairs(n: int) -> list:
    """The pairs (I, J) of index sets in 0..n with |I| + |J| = n + 1, by |I|
    and then lexicographically."""
    if n < 1:
        raise AomotoError("weight must be at least 1")
    universe = range(n + 1)
    return [(I, J) for size_i in range(n + 2) for I in combinations(universe, size_i)
            for J in combinations(universe, n + 1 - size_i)]


# weights 1-4 (348 components, about 0.45 MB together) are built once per process;
# a larger weight is built on each call, so that no process keeps weight 7's
# 12870 components (about 25 MB) after its caller is done with them
_CACHED_WEIGHT = 4


def aomoto_components(n: int) -> list:
    """All C(2n+2, n+1) codimension-one components for weight n; the pure
    cases I empty or J empty have identically zero variation.  Each call
    returns a new list; the components of weights 1-4 are built once per
    process."""
    if 1 <= n <= _CACHED_WEIGHT:
        return list(_cached_components(n))
    return _build_components(n)


@functools.lru_cache(maxsize=_CACHED_WEIGHT, typed=True)
def _cached_components(n: int) -> tuple:
    return tuple(_build_components(n))


def _build_components(n: int) -> list:
    return [LandauComponent.of(component_id(I, J), Polynomial.var(letter_id(I, J)), LINEAR,
                               [f"Q{i}" for i in I], [f"R{j}" for j in J],
                               known_zero=not I or not J)
            for I, J in _index_pairs(n)]


def aomoto_edges(n: int) -> HierarchyRelation:
    """Arrows l_{IJ} -> l_{I'J'} exactly for strict inclusions I' > I and
    J' < J; no self-edges.  (Coincides with the generic relation on these
    components, since every pinch is linear.)"""
    data = [(component_id(I, J), frozenset(I), frozenset(J)) for I, J in _index_pairs(n)]
    edges = frozenset((cid, cid2) for cid, I, J in data for cid2, I2, J2 in data
                      if I < I2 and J2 < J)
    return HierarchyRelation(nodes=tuple(sorted(cid for cid, _, _ in data)), edges=edges)


@dataclass(frozen=True)
class SignedWord:
    """One length-n tensor word of the symbol: letters left to right, the
    rightmost letter is the first variation of the chain."""

    sign: int
    letters: tuple  # of (frozenset I, frozenset J)

    def component_sequence(self) -> tuple:
        """Component ids in application order (right to left)."""
        return tuple(component_id(I, J) for I, J in reversed(self.letters))

    def __str__(self):
        return _word_text(self.sign, map(_letter_text, self.letters))


def _word_text(sign: int, texts) -> str:
    return ("+ " if sign > 0 else "- ") + " (x) ".join(texts)


def _letter_text(letter) -> str:
    I, J = letter
    return f"a[{_digits(I)}|{_digits(J)}]"


def chain_sets(n: int, sigma, tau) -> list:
    """(I_k, J_k) for k = 1..n: I_k grows along sigma, J_k shrinks along tau."""
    _check_perm(n, sigma)
    _check_perm(n, tau)
    out = []
    for k in range(1, n + 1):
        I = frozenset(sigma[:k])
        J = frozenset(tau[k:])
        out.append((I, J))
    return out


def symbol_walk(n: int, render=lambda letter: letter) -> Iterator:
    """(sign, letters) for each of the ((n+1)!)^2 words of weight n, sorted by
    (sigma, tau): word (sigma, tau) is the chain `chain_sets(n, sigma, tau)`
    read from k = n down to k = 1, signed by `maximal_chain_value`, and each
    letter (I, J) is given as `render((I, J))`.  The tables are built before
    this returns: each permutation's parity and index sets, and each letter's
    rendering, once, shared by all the words that use them."""
    if n < 1:
        raise AomotoError("weight must be at least 1")
    perms = list(permutations(range(n + 1)))
    ks = range(n, 0, -1)  # leftmost letter is k = n
    sets = {}  # one frozenset per index set

    def index_set(indices):
        s = frozenset(indices)
        return sets.setdefault(s, s)

    grows = [(permutation_sign(p), [index_set(p[:k]) for k in ks]) for p in perms]
    shrinks = [(permutation_sign(p), tuple(index_set(p[k:]) for k in ks)) for p in perms]
    letter = {I: {J: render((I, J)) for J in sets if len(I) + len(J) == n + 1} for I in sets}
    rows = [(ps, [letter[I] for I in Is]) for ps, Is in grows]
    return ((ps * pt, map(getitem, row, Js)) for ps, row in rows for pt, Js in shrinks)


def aomoto_symbol(n: int) -> list:
    """The ((n+1)!)^2 signed words of length n as `symbol_walk(n)` gives them,
    sorted by (sigma, tau); the identity pair is normalized to sign +1."""
    return [SignedWord(sign, tuple(letters)) for sign, letters in symbol_walk(n)]


def symbol_text(n: int) -> Iterator:
    """The line `f"{w}\\n"` of each word w of `aomoto_symbol(n)`, in order,
    without building the words."""
    return (_word_text(sign, texts) + "\n" for sign, texts in symbol_walk(n, _letter_text))


def _check_perm(n: int, perm):
    if sorted(perm) != list(range(n + 1)):
        raise AomotoError(f"not a permutation of 0..{n}: {perm}")


@dataclass(frozen=True)
class ChainValue:
    sign: int
    weight: int


def maximal_chain_value(n: int, sigma, tau) -> ChainValue:
    """Value of the full n-fold iterated variation for one permutation pair,
    as a signed power of 2*pi*i, normalized to + at the identity pair."""
    _check_perm(n, sigma)
    _check_perm(n, tau)
    return ChainValue(permutation_sign(sigma) * permutation_sign(tau), n)
