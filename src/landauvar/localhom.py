"""Local homology ranks at linear/quadratic pinches and sign bookkeeping.

The rank calculator covers the four regimes of the local model: with relative
boundary components present the groups are concentrated in a single degree;
without them the answer stacks binomial point contributions on top of the
homology of the vanishing sphere.  The closed-pair variant is the open one
with the roles of deleted and relative hypersurfaces swapped and the degree
reflected at n-|I|.

Words of boundary, coboundary and intersection operators commute up to signs
fixed by their homological degrees; `normalize_word` sorts a word into the
canonical "all coboundaries, then boundaries, then intersections" order and
accumulates the exchange sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .poly import permutation_sign

DELTA = "delta"      # Leray coboundary, degree r-1
PARTIAL = "partial"  # partial boundary, degree -1
PI = "pi"            # transverse intersection, degree -r

_KIND_ORDER = {DELTA: 0, PARTIAL: 1, PI: 2}
_KIND_ALIASES = {"d": DELTA, "p": PARTIAL, "w": PI}


class LocalHomologyError(ValueError):
    pass


class UnsupportedConfiguration(LocalHomologyError):
    pass


@dataclass(frozen=True)
class PinchConfig:
    """Local pinch model: n fiber dimensions, m hypersurfaces (linear when
    m = n+1), and a disjoint distribution I, J, K of (a subset of) them."""

    n: int
    m: int
    I: frozenset
    J: frozenset
    K: frozenset

    def __post_init__(self):
        if not (1 <= self.m <= self.n + 1):
            raise UnsupportedConfiguration(f"need 1 <= m <= n+1, got m={self.m}, n={self.n}")
        universe = set(range(1, self.m + 1))
        for name, part in (("I", self.I), ("J", self.J), ("K", self.K)):
            if not set(part) <= universe:
                raise UnsupportedConfiguration(f"{name} must index hypersurfaces 1..m")
        if self.I & self.J or self.I & self.K or self.J & self.K:
            raise UnsupportedConfiguration("I, J, K must be pairwise disjoint")

    @property
    def is_linear(self) -> bool:
        return self.m == self.n + 1

    @property
    def covers_all(self) -> bool:
        return len(self.I) + len(self.J) + len(self.K) == self.m


def pinch_config(n, m, I=(), J=(), K=()):
    return PinchConfig(n, m, frozenset(I), frozenset(J), frozenset(K))


def _sphere_rank(r: int, k: int) -> int:
    # H_k of the real r-sphere; the 0-sphere is two points
    if k < 0:
        return 0
    if r == 0:
        return 2 if k == 0 else 0
    return 1 if k in (0, r) else 0


def local_rank(cfg: PinchConfig, degree: int, variant: str = "open") -> int:
    """Rank of the local homology group of the pinch model in one degree.

    open: H_degree(W cap S^I minus S_J, S_K); closed: the pair with the ball
    boundary added, obtained by swapping J and K and reflecting the degree at
    n - |I|.
    """
    nI = cfg.n - len(cfg.I)
    J, K = cfg.J, cfg.K
    if variant == "closed":
        J, K = K, J
        degree = 2 * nI - degree
    elif variant != "open":
        raise UnsupportedConfiguration(f"unknown variant {variant!r}")
    if degree < 0:
        return 0
    if K:
        if not cfg.covers_all:
            return 0
        return 1 if degree == nI else 0
    sizeJ = len(J)
    if not cfg.covers_all:
        return comb(sizeJ, degree) if degree <= sizeJ else 0
    # K empty and I,J cover everything: vanishing-sphere part plus the
    # coboundaries of points over proper subsets of J
    sphere = 0 if cfg.is_linear else _sphere_rank(cfg.n - cfg.m, degree - sizeJ)
    points = comb(sizeJ, degree) if degree < sizeJ else 0
    return sphere + points


@dataclass(frozen=True)
class Operator:
    kind: str
    surface: str
    codim: int = 2

    def __post_init__(self):
        if self.kind not in (DELTA, PARTIAL, PI):
            raise LocalHomologyError(f"unknown operator kind {self.kind!r}")
        if self.codim < 1:
            raise LocalHomologyError("codimension must be positive")

    @property
    def degree(self) -> int:
        if self.kind == DELTA:
            return self.codim - 1
        if self.kind == PARTIAL:
            return -1
        return -self.codim

    def __str__(self):
        tag = {DELTA: "d", PARTIAL: "p", PI: "w"}[self.kind]
        return f"{tag}{self.surface}" + (f":r={self.codim}" if self.codim != 2 else "")


def operator(kind: str, surface: str, codim: int = 2) -> Operator:
    try:
        return Operator(_KIND_ALIASES[kind], surface, codim)
    except KeyError:
        raise LocalHomologyError(f"unknown operator kind {kind!r}") from None


def parse_word(text: str) -> tuple:
    """Parse 'd1 p2 d3:r=2' style operator words."""
    ops = []
    for token in text.split():
        body, _, opt = token.partition(":")
        codim = 2
        if opt:
            if not opt.startswith("r="):
                raise LocalHomologyError(f"bad option {opt!r}")
            try:
                codim = int(opt[2:])
            except ValueError:
                raise LocalHomologyError(
                    f"operator {token!r}: r={opt[2:]} must be an integer") from None
        kind, surface = body[0], body[1:]
        if not surface:
            raise LocalHomologyError(f"operator {token!r} needs a surface id")
        ops.append(operator(kind, surface, codim))
    return tuple(ops)


def exchange_sign(a: Operator, b: Operator) -> int:
    """Sign picked up when two adjacent operators on distinct surfaces swap."""
    if a.surface == b.surface:
        raise LocalHomologyError(
            f"cannot commute operators on the same surface {a.surface!r}"
        )
    return -1 if (a.degree * b.degree) % 2 else 1


def normalize_word(word) -> tuple:
    """Stable-sort into canonical order (coboundaries, boundaries, intersections;
    each block by surface id), signed by `exchange_sign` over the pairs it inverts.
    Refused where an operator follows one on its surface of a later kind; the
    error names the surface of the first such operator in the word."""
    # exchange_sign is -1 exactly for two odd degrees, so the sign is that of
    # the sort restricted to the odd-degree operators, ranked in word order
    ops, kinds, odd = tuple(word), {}, {}
    for i, op in enumerate(ops):
        if _KIND_ORDER[kinds.get(op.surface, DELTA)] > _KIND_ORDER[op.kind]:
            raise LocalHomologyError(
                f"cannot commute operators on the same surface {op.surface!r}")
        kinds[op.surface] = op.kind
        if op.degree % 2:
            odd[i] = len(odd)
    order = sorted(range(len(ops)), key=lambda i: (_KIND_ORDER[ops[i].kind], ops[i].surface))
    return permutation_sign([odd[i] for i in order if i in odd]), tuple(ops[i] for i in order)


def vanishing_cycle_sign(size_j: int) -> int:
    """Orientation factor relating the vanishing cycle to the ordered
    iterated coboundary-of-boundary of the vanishing cell."""
    if size_j < 0:
        raise LocalHomologyError("|J| must be nonnegative")
    return -1 if (size_j * (size_j - 1) // 2) % 2 else 1


def pl_sign(n: int) -> int:
    """Overall sign of the rank-one variation formula in fiber dimension n."""
    if n < 0:
        raise LocalHomologyError("fiber dimension must be nonnegative")
    return -1 if ((n + 1) * (n + 2) // 2) % 2 else 1


def partialK_reduction_sign(n: int, size_k: int) -> int:
    """Sign from rewriting the dual-cycle pairing through |K| boundaries."""
    if n < 0 or size_k < 0:
        raise LocalHomologyError("arguments must be nonnegative")
    return -1 if (n * size_k + size_k * (size_k + 1) // 2) % 2 else 1


def pairing_transfer_sign(r: int, n: int, d: int, direction: str) -> int:
    """Sign moving a coboundary (or boundary) across the intersection pairing;
    `d` is the degree of the class on the coboundary side."""
    if direction == "delta_to_partial":
        expo = 1 + (r - 1) * (n - d)
    elif direction == "partial_to_delta":
        expo = 1 + d + n
    else:
        raise LocalHomologyError(f"unknown direction {direction!r}")
    return -1 if expo % 2 else 1


def swap_sign(n: int, d: int) -> int:
    """Sign for exchanging the two arguments of the intersection pairing."""
    return -1 if (d * (n - d)) % 2 else 1
