"""Write the heavy graph documents on which CI runs `landauvar symanzik`.

Usage: python tests/heavy_graphs.py DIR

Writes into DIR, as graph documents:
- cycle64.json: the 64-edge cycle with legs at v0 and v32;
- cycle64-legs.json: the same cycle with 20000 legs at v32;
- ladder6.json: the planar ladder of 6 boxes, legs at its two far corners;
- theta.json: two 30-edge paths and one edge between the hubs a and b, legs
  at a and b;
- k7.json: the complete graph on 7 vertices, legs at v0 and v6;
- ladder7.json: the planar ladder of 7 boxes, legs at its two far corners.

The first four are admitted, and CI pins their output bytes: they are within
the size budget of `landauvar.cli` (64 vertices and 64 edges) and the
Symanzik term budget of `landauvar.graphs` (150000).  The last two are within
the size budget but over the term budget, and CI checks that they are refused
with one error line.  The tier-1 tests do not run these documents: `symanzik`
on the first four takes several seconds.
"""

import json
import sys
from pathlib import Path


def document(vertices, pairs, legs, channels):
    return {
        "vertices": vertices,
        "edges": [{"id": str(k), "ends": list(ends), "mass": f"m{k}", "var": f"x{k}"}
                  for k, ends in enumerate(pairs, 1)],
        "legs": [{"vertex": v, "momentum": p} for v, p in legs],
        "channels": channels,
    }


def cycle(legs, channels):
    vertices = [f"v{k}" for k in range(64)]
    pairs = [(v, vertices[(k + 1) % 64]) for k, v in enumerate(vertices)]
    return document(vertices, pairs, legs, channels)


def ladder(loops):
    top = [f"a{k}" for k in range(loops + 1)]
    bottom = [f"b{k}" for k in range(loops + 1)]
    pairs = (list(zip(top, top[1:])) + list(zip(bottom, bottom[1:]))
             + list(zip(top, bottom)))
    return document(top + bottom, pairs, [("a0", "p1"), (bottom[-1], "p2")], {"p1": "psq"})


def theta(length):
    paths = [["a", *(f"{side}{k}" for k in range(1, length)), "b"] for side in "uw"]
    pairs = [pair for path in paths for pair in zip(path, path[1:])] + [("a", "b")]
    vertices = ["a", "b", *(v for path in paths for v in path[1:-1])]
    return document(vertices, pairs, [("a", "p1"), ("b", "p2")], {"p1": "psq"})


def complete(n):
    vertices = [f"v{k}" for k in range(n)]
    pairs = [(a, b) for k, a in enumerate(vertices) for b in vertices[k + 1:]]
    return document(vertices, pairs, [("v0", "p1"), (vertices[-1], "p2")], {"p1": "psq"})


HEAVY_GRAPHS = {
    "cycle64": cycle([("v0", "p1"), ("v32", "p2")], {"p1": "psq"}),
    "cycle64-legs": cycle([("v32", f"p{k}") for k in range(1, 20001)], {}),
    "ladder6": ladder(6),
    "theta": theta(30),
}
REFUSED_GRAPHS = {"k7": complete(7), "ladder7": ladder(7)}


if __name__ == "__main__":
    out = Path(sys.argv[1])
    out.mkdir(parents=True, exist_ok=True)
    for name, doc in (HEAVY_GRAPHS | REFUSED_GRAPHS).items():
        (out / f"{name}.json").write_text(json.dumps(doc))
