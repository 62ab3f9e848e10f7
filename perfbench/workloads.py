"""Seeded input generators for the three workloads.

Each workload has a fixed list of command shapes.  The seed chooses only
labels, integer values and placements (rotations, chart variables, basis
permutations), so every seed costs about the same.  A generator writes its
input files into a directory and returns a manifest: the seed, and one record
per command with its argv (or library call) and the `check` record that the
matching oracle in `oracles.py` reads.

Left out at this seed, because a single command would outlast a run: the
`landau oneloop` 6-gon (about 78 s), the two-fibre ice cream elimination
(more than 4 min), and the sunrise elimination with exactly one mass fixed
(about 12 s, the same Sylvester path as the fully symbolic case).
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

from oracles import aomoto_nodes, decode_ops, nilpotency, word_product

WORKLOADS = ("exact-landau", "word-audit", "monodromy")

MODELS = ("logarithm", "bubble", "dilog", "massless-triangle")


class Generator:
    """Collects commands and writes input files for one workload and seed."""

    def __init__(self, workload: str, seed: int, inputs: Path):
        self.rng = random.Random(f"{workload}:{seed}")
        self.inputs = inputs
        self.commands = []
        inputs.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, data) -> str:
        path = self.inputs / name
        path.write_text(json.dumps(data, indent=1, sort_keys=True))
        return str(path)

    def cli(self, argv, check):
        self.commands.append({"id": f"c{len(self.commands):03d}", "argv": argv,
                              "check": check})

    def call(self, call, check):
        self.commands.append({"id": f"c{len(self.commands):03d}", "call": call,
                              "check": check})

    def labels(self, prefix: str, k: int) -> list:
        """k distinct names prefix + two digits; the prefix fixes how a class
        of symbols sorts against the others, the digits are seeded."""
        return [f"{prefix}{n}" for n in self.rng.sample(range(10, 100), k)]


# -- graphs ------------------------------------------------------------------------


def cycle_graph(gen: Generator, n: int, n_masses: int, n_legs: int) -> dict:
    """One-loop n-gon: edge k joins w_k and w_{k+1}; the edges are listed in
    cycle order.  Mass symbols follow a rotated alternating pattern, legs sit
    on a seeded set of vertices, and every consecutive run of vertices gets
    its own channel symbol."""
    rng = gen.rng
    verts = gen.labels("w", n)
    masses = gen.labels("m", n_masses)
    xs = gen.labels("x", n)
    ids = [str(d) for d in rng.sample(range(1, 10), n)]
    shift = rng.randrange(n)
    edges = [{"id": ids[k], "ends": [verts[k], verts[(k + 1) % n]],
              "mass": masses[(k + shift) % n_masses], "var": xs[k]} for k in range(n)]
    leg_at = sorted(rng.sample(range(n), n_legs))
    moms = gen.labels("p", n_legs)
    legs = [{"vertex": verts[v], "momentum": p} for v, p in zip(leg_at, moms)]
    channels = {}
    names = iter(gen.labels("q", n * n))
    everything = frozenset(moms)
    for start in range(n):
        for length in range(1, n):
            run = {verts[(start + k) % n] for k in range(length)}
            sub = frozenset(l["momentum"] for l in legs if l["vertex"] in run)
            if not sub or sub == everything:
                continue
            known = {frozenset(key.split("+")) for key in channels}
            if sub in known or everything - sub in known:
                continue
            channels["+".join(sorted(sub))] = next(names)
    return {"vertices": verts, "edges": edges, "legs": legs, "channels": channels}


def banana_graph(gen: Generator, n_edges: int) -> dict:
    """Two vertices joined by n_edges edges (bubble, sunrise, ...), one leg on
    each vertex and a single channel symbol."""
    verts = gen.labels("w", 2)
    masses = gen.labels("m", n_edges)
    xs = gen.labels("x", n_edges)
    ids = [str(d) for d in gen.rng.sample(range(1, 10), n_edges)]
    moms = gen.labels("p", 2)
    edges = [{"id": ids[k], "ends": list(verts if k % 2 == 0 else verts[::-1]),
              "mass": masses[k], "var": xs[k]} for k in range(n_edges)]
    return {"vertices": verts, "edges": edges,
            "legs": [{"vertex": v, "momentum": p} for v, p in zip(verts, moms)],
            "channels": {moms[0]: gen.labels("q", 1)[0]}}


# multi-loop propagator topologies: vertex count and edge list by index
MULTILOOP = {
    "kite": (4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),
    "double-box": (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)]),
    "banana3": (2, [(0, 1), (0, 1), (1, 0), (1, 0)]),
    "mercedes": (4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 1)]),
}

# leg vertex pairs per topology, related by a symmetry of the graph
MULTILOOP_LEGS = {
    "kite": [(0, 3)],
    "double-box": [(0, 3), (2, 5)],
    "banana3": [(0, 1)],
    "mercedes": [(0, 1), (0, 2), (0, 3)],
}


def multiloop_graph(gen: Generator, name: str) -> dict:
    rng = gen.rng
    n_verts, pairs = MULTILOOP[name]
    verts = gen.labels("w", n_verts)
    masses = gen.labels("m", len(pairs))
    xs = gen.labels("x", len(pairs))
    ids = [str(d) for d in rng.sample(range(1, 10), len(pairs))]
    edges = [{"id": ids[k], "ends": [verts[a], verts[b]], "mass": masses[k], "var": xs[k]}
             for k, (a, b) in enumerate(pairs)]
    rng.shuffle(edges)
    a, b = rng.choice(MULTILOOP_LEGS[name])
    moms = gen.labels("p", 2)
    return {"vertices": verts, "edges": edges,
            "legs": [{"vertex": verts[a], "momentum": moms[0]},
                     {"vertex": verts[b], "momentum": moms[1]}],
            "channels": {moms[0]: gen.labels("q", 1)[0]}}


def _chart(assign: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in assign.items())


# -- exact-landau --------------------------------------------------------------------

# The command mix is laid out in cost classes so that the median and the
# tail percentile each fall inside a class of commands of one shape, which
# keeps them steady from seed to seed:
#   ~5 ms:    bubble eliminations and multi-loop Symanzik polynomials (24)
#   ~13 ms:   triangle `landau oneloop` and `analyze` (28)
#   ~50 ms:   triangle eliminations and sunrise with three masses fixed (20)
#   >0.02 s:  4- and 5-gons, sunrise with two or no masses fixed (10)
# (edges, distinct masses, legs) of the generated n-gons
ONELOOP_SHAPES = [(3, 3, 3)] * 14 + [(4, 4, 4), (4, 2, 4), (4, 1, 3), (5, 1, 5), (5, 2, 3)]
ANALYZE_SHAPES = [(3, 3, 3)] * 14 + [(4, 4, 4), (5, 1, 5)]
# number of sunrise masses fixed by --chart; 0 is the fully symbolic case
SUNRISE_FIXED = [0, 2, 2] + [3] * 6
BUBBLE_FIXED = [0, 1, 2] * 4
TRIANGLES = 14
SYMANZIK = ["kite", "double-box", "banana3", "mercedes"] * 3


def exact_landau(gen: Generator):
    rng = gen.rng
    for shape in ONELOOP_SHAPES:
        g = cycle_graph(gen, *shape)
        path = gen.write(f"oneloop-{len(gen.commands):03d}.json", g)
        gen.cli(["landau", "oneloop", path, "--format", "json"],
                {"kind": "oneloop", "graph": g})
    for shape in ANALYZE_SHAPES:
        g = cycle_graph(gen, *shape)
        path = gen.write(f"analyze-{len(gen.commands):03d}.json", g)
        gen.cli(["analyze", path], {"kind": "analyze", "graph": g})
    for n_edges, plan in ((3, SUNRISE_FIXED), (2, BUBBLE_FIXED)):
        for k in plan:
            g = banana_graph(gen, n_edges)
            path = gen.write(f"banana-{len(gen.commands):03d}.json", g)
            chart_var = rng.choice(g["edges"])["var"]
            fixed_edges = rng.sample(g["edges"], k)
            values = rng.sample(range(1, 10), k)
            fixed = {e["mass"] + "sq": m for e, m in zip(fixed_edges, values)}
            chart = {chart_var: 1, **{msq: m * m for msq, m in fixed.items()}}
            gen.cli(["landau", "eliminate", path, "--chart", _chart(chart),
                     "--format", "json"],
                    {"kind": "threshold_eliminant",
                     "masses": [e["mass"] + "sq" for e in g["edges"]],
                     "fixed": fixed, "psq": next(iter(g["channels"].values()))})
    for _ in range(TRIANGLES):
        g = cycle_graph(gen, 3, 3, 3)
        path = gen.write(f"triangle-{len(gen.commands):03d}.json", g)
        chart_var = rng.choice(g["edges"])["var"]
        fixed = {e["mass"] + "sq": m * m
                 for e, m in zip(g["edges"], rng.sample(range(1, 10), 3))}
        gen.cli(["landau", "eliminate", path, "--chart",
                 _chart({chart_var: 1, **fixed}), "--format", "json"],
                {"kind": "cayley_eliminant", "graph": g, "fixed": fixed,
                 "chart_var": chart_var})
    for name in SYMANZIK:
        g = multiloop_graph(gen, name)
        path = gen.write(f"symanzik-{len(gen.commands):03d}.json", g)
        gen.cli(["symanzik", path, "--format", "json"], {"kind": "symanzik", "graph": g})


# -- word-audit ----------------------------------------------------------------------

# (n, m, I, J, K, degree, variant, rank): local ranks of the paper's
# pinch regimes
HOMRANK_CASES = [
    (1, 2, (), (1,), (2,), 1, "open", 1),
    (1, 2, (), (1,), (2,), 0, "open", 0),
    (3, 1, (1,), (), (), 0, "open", 1),
    (3, 1, (1,), (), (), 2, "open", 1),
    (3, 1, (1,), (), (), 1, "open", 0),
    (2, 3, (1,), (2, 3), (), 1, "open", 2),
    (1, 2, (), (1,), (2,), 1, "closed", 1),
    (3, 3, (1,), (), (2,), 2, "open", 0),
    (2, 2, (1, 2), (), (), 0, "open", 2),
]
_SCALES = [Fraction(2), Fraction(-1), Fraction(1, 3), Fraction(-3, 2), Fraction(5, 7)]


def transform_model(table: dict, rng) -> dict:
    """The same model over the basis b'_i = d_i * b_pi(i): operators become
    T^-1 A T with T = P D, spans T^-1 v and intersection rows r T."""
    size = len(table["basis"])
    perm = list(range(size))
    rng.shuffle(perm)
    d = [rng.choice(_SCALES) for _ in range(size)]

    def op(m):
        return [[None if m[perm[i]][perm[j]] is None
                 else str(Fraction(m[perm[i]][perm[j]]) * d[j] / d[i])
                 for j in range(size)] for i in range(size)]

    out = dict(table)
    out["basis"] = [table["basis"][perm[i]] for i in range(size)]
    out["ops"] = {cid: op(m) for cid, m in table["ops"].items()}
    out["vanishing"] = {
        cid: [[str(Fraction(v[perm[i]]) / d[i]) for i in range(size)] for v in vs]
        for cid, vs in table["vanishing"].items()
    }
    out["intersection_rows"] = {
        cid: [str(Fraction(r[perm[j]]) * d[j]) for j in range(size)]
        for cid, r in table["intersection_rows"].items()
    }
    return out


def _known_word(rng, ops: dict, length: int) -> list:
    """A seeded word of the given length whose product touches no unknown
    entry (every model has such words of length 1 to 4)."""
    ids = sorted(ops)
    while True:
        word = [rng.choice(ids) for _ in range(length)]
        if all(x is not None for row in word_product(ops, word) for x in row):
            return word


# The audits of the bubble model at max-len 3 (about 13 ms) are repeated on
# EXTRA_BUBBLE_COPIES further seeded copies, so that the batch's 75th
# percentile, the tail metric, falls inside a class of commands of one cost
# instead of on the step between 9 ms and 13 ms commands.  Word lengths are
# fixed per command, so that the seed picks the letters but not the cost.
EXTRA_BUBBLE_COPIES = 8
COMPOSE_LENGTHS = (1, 2, 3, 4)
VERDICT_LENGTHS = (2, 3)
SIGNWORD_SURFACES = (3, 4, 5, 6, 4, 5)


def word_audit(gen: Generator, tables: dict):
    rng = gen.rng
    copies, paths = {}, {}
    for model in MODELS:
        copies[model] = transform_model(tables[model], rng)
        paths[model] = gen.write(f"model-{model}.json", copies[model])
    partners = {}
    for model in MODELS:
        for max_len in range(1, 7):
            partners[model, max_len] = f"c{len(gen.commands):03d}"
            gen.cli(["variation", "audit", model, "--max-len", str(max_len),
                     "--format", "json"], {"kind": "audit", "max_len": max_len})
            gen.cli(["variation", "audit", paths[model], "--max-len",
                     str(max_len), "--format", "json"],
                    {"kind": "audit", "max_len": max_len,
                     "partner": partners[model, max_len]})
    for k in range(EXTRA_BUBBLE_COPIES):
        path = gen.write(f"model-bubble-{k}.json", transform_model(tables["bubble"], rng))
        gen.cli(["variation", "audit", path, "--max-len", "3", "--format", "json"],
                {"kind": "audit", "max_len": 3, "partner": partners["bubble", 3]})
    slot = 0
    for model in MODELS:
        for table, source in ((tables[model], model),
                              (copies[model], paths[model])):
            length = COMPOSE_LENGTHS[slot % len(COMPOSE_LENGTHS)]
            slot += 1
            word = _known_word(rng, decode_ops(table), length)
            gen.cli(["variation", "compose", source, "w=" + ",".join(word),
                     "--format", "json"],
                    {"kind": "compose", "table": table, "word": word})
    for model in MODELS:
        ids = sorted(tables[model]["ops"])
        words = [[rng.choice(ids) for _ in range(VERDICT_LENGTHS[k % 2])] for k in range(4)]
        argv = ["hierarchy", "--model", model, "--format", "json"]
        for w in words:
            argv += ["--check", "word=" + ",".join(w)]
        gen.cli(argv, {"kind": "model_verdicts", "table": tables[model], "words": words})
    for n in (2, 3):
        nodes = aomoto_nodes(n)
        words = [[rng.choice(nodes) for _ in range(VERDICT_LENGTHS[k % 2])]
                 for k in range(6)]
        argv = ["hierarchy", "--aomoto", str(n), "--format", "json"]
        for w in words:
            argv += ["--check", "word=" + ",".join(w)]
        gen.cli(argv, {"kind": "aomoto_verdicts", "words": words})
    gen.cli(["hierarchy", "--aomoto", "3", "--format", "json"],
            {"kind": "aomoto_relation", "n": 3})
    for n in (2, 3):
        gen.cli(["aomoto", "hierarchy", "--n", str(n), "--format", "json"],
                {"kind": "aomoto_relation", "n": n})
    for n in (3, 4):
        gen.cli(["aomoto", "symbol", "--n", str(n)], {"kind": "aomoto_symbol", "n": n})
    for case in HOMRANK_CASES:
        n, m, I, J, K, degree, variant, rank = case
        relabel = dict(zip(range(1, m + 1), rng.sample(range(1, m + 1), m)))

        def digits(s):
            return ",".join(str(relabel[i]) for i in sorted(s))

        gen.cli(["homrank", "--n", str(n), "--m", str(m), "--I", digits(I),
                 "--J", digits(J), "--K", digits(K), "--degree", str(degree),
                 "--variant", variant], {"kind": "homrank", "rank": rank})
    for count in SIGNWORD_SURFACES:
        surfaces = rng.sample(range(1, 10), count)
        word = " ".join(rng.choice("dpw") + str(s) + rng.choice(["", "", ":r=3", ":r=1"])
                        for s in surfaces)
        gen.cli(["signword", word, "--format", "json"], {"kind": "signword", "word": word})
    for model in MODELS:
        # nilpotency_index enumerates every word up to the index (or the
        # cutoff), so its cost is fixed by the subset size and the index:
        # draw only among pairs with the same index as the first pair
        ops = decode_ops(tables[model])
        known = sorted(c for c, m in ops.items()
                       if all(x is not None for row in m for x in row))
        pairs = list(itertools.combinations(known, 2))
        index = {pair: nilpotency(ops, pair) for pair in pairs}
        subset = list(rng.choice([p for p in pairs if index[p] == index[pairs[0]]]))
        gen.call({"function": "nilpotency_index", "model": model, "subset": subset},
                 {"kind": "nilpotency", "table": tables[model], "subset": subset})


# -- monodromy -----------------------------------------------------------------------

LOOP_KINDS = ["psq-normal", "psq-pseudo", "psq-both", "psq-neither",
              "mass-winding", "mass-normal", "mass-pseudo", "mass-both", "mass-neither"]
# step counts per loop kind; with 9 kinds the median falls among the 1024
# step loops and the 90th percentile among the 4096 step loops
STEPS = [256, 256, 512, 512, 1024, 1024, 1024, 2048, 2048, 4096, 4096, 4096]
GRAPHS = 4


def _loop(kind: str, rng):
    """Loop centre and radius (integers), frozen values and the special
    points of the family in the loop parameter.

    With the chart edge c fixed to 1 the tracked variable solves
    m_t^2 x^2 + (m_c^2 + m_t^2 - p^2) x + m_c^2 = 0, whose discriminant
    vanishes at p^2 = (m_c +- m_t)^2, i.e. at m_c^2 = (m_t +- p)^2, and whose
    constant term vanishes at m_c^2 = 0."""
    param, shape = kind.split("-")
    if param == "psq":
        a, b = rng.sample(range(1, 7), 2)
        plus, minus = (a + b) ** 2, (a - b) ** 2
        zeros = []
        frozen = {"mc": a * a, "mt": b * b}
    elif shape == "winding":
        b, q = rng.randint(1, 6), rng.randint(1, 6)
        # p^2 = -q puts both discriminant zeros off the real axis at modulus b^2 + q
        zero_c = complex(b * b - q, 2 * b * q ** 0.5)
        return 0, (b * b + q) // 2 or 1, {"mt": b * b, "psq": -q}, \
            [zero_c, zero_c.conjugate()], [0]
    else:
        b, p = rng.sample(range(1, 7), 2)
        plus, minus = (b + p) ** 2, (b - p) ** 2
        zeros = [0]
        frozen = {"mt": b * b, "psq": p * p}
    gap = plus - minus
    center, radius = {
        "normal": (plus, gap // 4),
        "pseudo": (minus, gap // 4),
        "both": ((plus + minus) // 2, 3 * gap // 4),
        "neither": (plus + 3 * gap // 4, gap // 4),
    }[shape]
    return center, radius, frozen, [plus, minus], zeros


def monodromy(gen: Generator):
    rng = gen.rng
    graphs = []
    for k in range(GRAPHS):
        g = banana_graph(gen, 2)
        graphs.append((g, gen.write(f"bubble-{k}.json", g)))
    for kind, steps in itertools.product(LOOP_KINDS, STEPS):
        g, path = rng.choice(graphs)
        chart_edge, track_edge = rng.sample(g["edges"], 2)
        names = {"mc": chart_edge["mass"] + "sq", "mt": track_edge["mass"] + "sq",
                 "psq": next(iter(g["channels"].values()))}
        while True:
            center, radius, frozen, thresholds, zeros = _loop(kind, rng)
            # keep every special point well away from the circle
            margins = [abs(abs(z - center) - radius) for z in thresholds + zeros]
            if radius > 0 and min(margins) >= 0.25 * radius:
                break
        orient = rng.choice((1, -1))
        param = names["psq"] if kind.startswith("psq") else names["mc"]
        fix = {names[key]: v for key, v in frozen.items()}
        gen.cli(["track", path, "--chart", f"{chart_edge['var']}=1",
                 "--var", track_edge["var"],
                 "--loop", f"{param}:center={center},r={radius},steps={steps},"
                           f"orient={orient}",
                 "--fix", _chart(fix), "--mark", "0", "--format", "json"],
                {"kind": "track", "orientation": orient,
                 "enclosed_thresholds": sum(abs(z - center) < radius
                                            for z in thresholds),
                 "enclosed_zero": sum(abs(z - center) < radius for z in zeros)})


def interleave(commands: list) -> list:
    """Spread the commands of each kind evenly over the batch.  The commands
    that set a percentile then run at many moments of the batch instead of
    back to back, so one slow stretch of the machine cannot move them all."""
    groups = {}
    for cmd in commands:
        groups.setdefault(cmd["check"]["kind"], []).append(cmd)
    keyed = [((i + 0.5) / len(members), g, cmd)
             for g, members in enumerate(groups.values())
             for i, cmd in enumerate(members)]
    return [cmd for _, _, cmd in sorted(keyed, key=lambda t: t[:2])]


def generate(workload: str, seed: int, inputs: Path, tables=None) -> dict:
    """Write the inputs of one workload and return its manifest.  `tables`
    maps each builtin model name to its `variation table --format json`
    document, which word-audit transforms."""
    gen = Generator(workload, seed, inputs)
    if workload == "exact-landau":
        exact_landau(gen)
    elif workload == "word-audit":
        word_audit(gen, tables)
    elif workload == "monodromy":
        monodromy(gen)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return {"workload": workload, "seed": seed, "commands": interleave(gen.commands)}
