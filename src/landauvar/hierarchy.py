"""Compatibility relation between Landau components and the vanishing oracle.

An edge (l, l') in the relation means that the iterated variation "first
around l, then around l'" is not excluded; the oracle only ever certifies
vanishing, never non-vanishing.  Arrows require the simple type of the later
component to fit inside the type of the earlier one, with extra vetoes for
linear pinches and for odd-parity repetitions; components with non-isolated
critical sets ("general") get the containment test only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product

from .landau import LINEAR, LandauComponent


class HierarchyError(ValueError):
    pass


@dataclass(frozen=True)
class HierarchyRelation:
    nodes: tuple
    edges: frozenset  # ordered pairs (source, target): target <= source

    def successors(self, node: str) -> list:
        return sorted(t for s, t in self.edges if s == node)

    def reachable_from(self, node: str) -> frozenset:
        """Nodes reachable by a directed path of length >= 1."""
        seen = set()
        frontier = [t for s, t in self.edges if s == node]
        while frontier:
            cur = frontier.pop()
            if cur in seen:
                continue
            seen.add(cur)
            frontier.extend(self.successors(cur))
        return frozenset(seen)

    def reachability(self) -> dict:
        return {v: self.reachable_from(v) for v in self.nodes}

    def describe(self) -> dict:
        return {"nodes": list(self.nodes),
                "edges": [[s, t] for s, t in sorted(self.edges)]}


@dataclass(frozen=True)
class Verdict:
    forced_zero: bool
    reason: str | None = None


def compatible(target: LandauComponent, source: LandauComponent) -> bool:
    """True iff the variation around `target` may follow the one around
    `source`, i.e. target <= source in the component relation."""
    if not target.simple_K <= source.type_K:
        return False
    if not source.simple_J <= target.type_J:
        return False
    # the refinement vetoes are proved for simple pinches only
    if target.is_simple_pinch and source.is_simple_pinch:
        if source.pinch == LINEAR and target.type_K == source.type_K:
            return False
        if target.pinch == LINEAR and target.type_J == source.type_J:
            return False
        if (
            target.id == source.id
            and source.parity is not None
            and source.parity % 2 != 0
        ):
            return False
    return True


def hierarchy_graph(components) -> HierarchyRelation:
    """Full pairwise relation over the given components, self-edges included."""
    comps = list(components)
    ids = [c.id for c in comps]
    if len(set(ids)) != len(ids):
        raise HierarchyError("duplicate component ids")
    edges = frozenset(
        (src.id, tgt.id) for src, tgt in product(comps, comps) if compatible(tgt, src)
    )
    return HierarchyRelation(nodes=tuple(sorted(ids)), edges=edges)


@dataclass(frozen=True)
class ForcedZeroRule:
    """The oracle's forced-zero rule over one relation.

    A word is forced to zero when one of its letters has identically zero
    variation or two consecutive letters are not an arrow.  The unforced words
    are therefore exactly the walks along arrows between the other ("live")
    components, which is how `forced_extensions` counts the forced ones.
    """

    letters: tuple        # sorted component ids
    known_zero: frozenset
    edges: frozenset

    @classmethod
    def of(cls, rel: HierarchyRelation, components) -> ForcedZeroRule:
        comps = list(components)
        return cls(
            letters=tuple(sorted(c.id for c in comps)),
            known_zero=frozenset(c.id for c in comps if c.variation_known_zero),
            edges=rel.edges,
        )

    def step(self, last, cid) -> str | None:
        """Why appending `cid` to an unforced word ending in `last` (None for
        the empty word) forces it to zero, or None when it stays unforced."""
        if cid in self.known_zero:
            return f"variation around {cid} is identically zero"
        if last is not None and (last, cid) not in self.edges:
            return f"no arrow {last} -> {cid}"
        return None

    def forced_extensions(self, length: int) -> list:
        """ext[r][a]: how many of the words that extend an unforced word ending
        in `a` by 1 to r letters are forced.  At s letters that is |C|^s minus
        the s-step walks from `a` into live letters, the extensions that stay
        unforced.  ext[r][None] counts every extension, for a forced word."""
        live = [b for b in self.letters if b not in self.known_zero]
        walks = dict.fromkeys(self.letters, 1)
        ext = [dict.fromkeys((*self.letters, None), 0)]
        for s in range(1, length + 1):
            walks = {a: sum(walks[b] for b in live if (a, b) in self.edges)
                     for a in self.letters}
            words = len(self.letters) ** s
            ext.append({a: ext[-1][a] + words - walks.get(a, 0) for a in ext[-1]})
        return ext


def word_vanishes(rel: HierarchyRelation, components, word) -> Verdict:
    """Oracle for the iterated variation along `word` (application order).

    forced_zero when some component has identically zero variation or some
    consecutive pair is not an arrow of the relation; otherwise unconstrained,
    which is *not* a claim of non-vanishing.
    """
    rule = ForcedZeroRule.of(rel, components)
    for cid in word:
        if cid not in rule.letters:
            raise HierarchyError(f"unknown component id {cid!r}")
    # a zero letter anywhere outranks a missing arrow as the reason
    for last, cid in chain(((None, cid) for cid in word), zip(word, word[1:])):
        reason = rule.step(last, cid)
        if reason is not None:
            return Verdict(True, reason)
    return Verdict(False)


def to_dot(rel: HierarchyRelation, components) -> str:
    """DOT digraph with type sets in the node labels; deterministic order."""
    by_id = {c.id: c for c in components}
    # a DOT string writes a backslash \\ and a double quote \"
    escape = str.maketrans({"\\": "\\\\", '"': '\\"'})
    lines = ["digraph hierarchy {"]
    for node in rel.nodes:
        comp = by_id[node]
        text = (node, f"J={{{','.join(sorted(comp.type_J))}}}"
                      f" K={{{','.join(sorted(comp.type_K))}}}")
        # the label's line break, DOT's \n, goes in after its parts are escaped
        label = "\\n".join(part.translate(escape) for part in text)
        lines.append(f'    "{node.translate(escape)}" [label="{label}"];')
    for s, t in sorted(rel.edges):
        lines.append(f'    "{s.translate(escape)}" -> "{t.translate(escape)}";')
    lines.append("}")
    return "\n".join(lines)
