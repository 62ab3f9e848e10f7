"""Command line front end.

One binary with subcommands; flags only, no environment configuration, and
stable sorting everywhere so identical inputs give byte-identical outputs.
Exit status: 0 success, 1 domain error (bad input data, unknown fixture) or
failed audit, 2 usage error.  Each subcommand handler returns what it prints,
and `main` alone writes it to stdout.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import itertools
import json
import math
import sys
from collections.abc import Iterator

# the package's unloaded submodules: each runs its body at its first attribute
# access, so reading none of their attributes here keeps start-up to this module
from . import aomoto as aomoto_mod
from . import graphs, hierarchy, landau, localhom, poly, tracking, variation

# every error class of the package, like json.JSONDecodeError, is a ValueError
_DOMAIN_ERRORS = (ValueError, OSError)


# the one JSON writer: `--format json` prints exactly this encoder's text
_ENCODER = json.JSONEncoder(indent=2, sort_keys=True)


def _chunks(data, fmt: str):
    """The text `main` prints for `data`, as an iterator of chunks: a string
    as it is (DOT output or a rank), a handler's own iterator of text as it
    is, else JSON or the indented text form."""
    if isinstance(data, str):
        return iter((data, "\n"))
    if isinstance(data, Iterator):
        return data
    if fmt == "json":
        return itertools.chain(_ENCODER.iterencode(data), "\n")
    return _text_chunks(data)


def _text_chunks(data, indent=0):
    pad = "  " * indent
    if isinstance(data, dict):
        for key, value in data.items():
            if isinstance(value, (dict, list)):
                yield f"{pad}{key}:\n"
                yield from _text_chunks(value, indent + 1)
            else:
                yield f"{pad}{key}: {value}\n"
    else:  # a list: no handler returns any other kind of document
        lines = f"\n{pad}".join
        for value in data:
            if not isinstance(value, (dict, list)):
                yield f"{pad}{value}\n"
            elif (value and isinstance(value, list)
                  and not any(isinstance(v, (dict, list)) for v in value)):
                # a nonempty list of scalars, such as a word: one chunk
                yield f"{pad}{lines(map(format, value))}\n\n"
            else:
                yield from _text_chunks(value, indent)
                yield "\n"


def _read_json(path: str):
    """The JSON document in the file `path`; `json.load` recurses once per
    level, so one nested past the interpreter's recursion limit is refused,
    as is an integer with more digits than the interpreter converts."""
    def parse_int(text):  # JSON admits only digits: `int` fails only past its limit
        try:
            return int(text)
        except ValueError:
            digits = len(text.lstrip("-"))
            raise ValueError(f"{path}: JSON integer of {digits} digits is over the interpreter's"
                             f" limit of {sys.get_int_max_str_digits()}") from None

    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_int=parse_int)
        except RecursionError:
            raise ValueError(f"{path}: JSON document is nested too deeply") from None


# The 2-forest search of F visits about n^3/6 nodes on an n-edge cycle (43679 at
# 64 edges, 0.07 s), more than the terms it yields: the 250-edge cycle is under
# `graphs.SYMANZIK_TERM_BUDGET` (124750 terms) but takes about 3 s.  So a graph
# with more vertices or more edges than this is refused when it is loaded,
# before any forest is walked; the 6-loop ladder has 19 edges.
GRAPH_SIZE_BUDGET = 64


def _load_graph_arg(source: str) -> graphs.FeynmanGraph:
    if source in graphs.BUILTIN_GRAPHS:
        g = graphs.BUILTIN_GRAPHS[source]()
    else:
        g = graphs.load_graph(_read_json(source))
    if max(len(g.vertices), len(g.edges)) > GRAPH_SIZE_BUDGET:
        raise graphs.GraphError(
            f"graph with {len(g.vertices)} vertices and {len(g.edges)} edges is over the"
            f" size budget of {GRAPH_SIZE_BUDGET} vertices and {GRAPH_SIZE_BUDGET} edges"
        )
    return g


def _graph_summary(g: graphs.FeynmanGraph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [
            {"id": e.id, "ends": list(e.ends), "mass": e.mass, "var": e.var}
            for e in g.edges
        ],
        "legs": [{"vertex": v, "momentum": p} for v, p in g.legs],
        "loop_number": g.loop_number,
    }


def _split_word(text: str, flag: str) -> tuple:
    """A word ``id1,id2,...`` after an optional ``word=`` or ``w=``; ``word=``
    alone is the empty word."""
    letters = text.removeprefix("word=").removeprefix("w=")
    word = tuple(letters.split(",")) if letters else ()
    if "" in word:
        raise ValueError(f"{flag} {poly.cut(text)}: a word is letters joined by commas, and no"
                         " letter may be empty")
    return word


def _components_for(args) -> list:
    if args.fixture is not None:
        return landau.fixture_landau(args.fixture)
    if args.model is not None:
        return list(variation.builtin_model(args.model).components)
    if args.aomoto is not None:
        _check_aomoto_budget(args.aomoto, "hierarchy")
        return aomoto_mod.aomoto_components(args.aomoto)
    return _oneloop_components(_load_graph_arg(args.graph), split=True)


# `oneloop_landau` takes two principal minors for each of the 2^n - 1 proper
# edge subsets of an n-gon, and each further edge costs about 14x more: through
# `cli.main` on a 2-vCPU VM a 7-gon takes about 1.7 s and an 8-gon about 25 s,
# most of it in the largest minors and in printing the 8-gon's 48 MB.  `landau
# oneloop`, `hierarchy --graph` and `analyze` refuse one-loop graphs above this
# many edges.
ONELOOP_EDGE_BUDGET = 8


def _oneloop_components(g: graphs.FeynmanGraph, split: bool) -> list:
    """Landau components of a one-loop graph, the two-edge threshold split
    into its branches when `split` is set."""
    if g.loop_number == 1 and len(g.edges) > ONELOOP_EDGE_BUDGET:
        raise landau.LandauError(
            f"one-loop graph with {len(g.edges)} edges is over the budget of"
            f" {ONELOOP_EDGE_BUDGET} edges: its Landau components take"
            f" 2 * (2^{len(g.edges)} - 1) determinants"
        )
    comps = landau.oneloop_landau(g)
    if split and len(g.edges) == 2:
        comps = landau.bubble_split(comps, g)
    return comps


def _parse_assignments(text: str) -> dict:
    out = {}
    if not text:
        return out
    for item in text.split(","):
        name, _, value = item.partition("=")
        if not name or not value:
            raise ValueError(f"bad assignment {poly.echo(item)}")
        name = name.strip()
        if name in out:
            raise ValueError(f"{poly.cut(name)} is assigned twice in {poly.echo(text)}")
        out[name] = value.strip()
    return out


def _number(kind, text: str, where: str):
    """`text` read as an int, float or complex `kind`; a malformed value is
    refused with `where` (the option and the value, cut by `poly.cut`) named."""
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{where}: the value must be"
                         f" {'an integer' if kind is int else 'a number'}") from None


# A chart integer scales the eliminant's coefficients: the sunrise's grow by
# about 30 digits for each digit of x1 (600 digits at 20), and the ice cream
# under x3 and x4 of 20 digits takes about 2.7x the time and memory of one digit
# (16 s and 320 MB).  So `--chart` and `--track-chart` refuse a value written
# with more digits than this, which hold every 64-bit integer, before F is
# substituted.
CHART_DIGIT_BUDGET = 20


def _parse_bindings(text: str, f: poly.Polynomial, flag: str, kind) -> dict:
    """Bindings such as ``x1=1`` read as `kind`; each bound variable must
    occur in `f`, and an integer is written with at most CHART_DIGIT_BUDGET
    digits."""
    out = {}
    variables = f.variables
    for name, value in _parse_assignments(text).items():
        if name not in variables:
            raise ValueError(f"{flag} binds {poly.echo(name)}, which does not occur in F")
        digits = value.lstrip("+-")
        if kind is int and digits.isdecimal() and len(digits) > CHART_DIGIT_BUDGET:
            raise ValueError(f"{flag} {name}: the value has {len(digits)} digits, over the"
                             f" budget of {CHART_DIGIT_BUDGET} digits")
        out[name] = _number(kind, value, f"{flag} {name}={poly.cut(value)}")
    return out


def _parse_index_set(text: str, flag: str) -> frozenset:
    """An index set given as digits (``12``) or a comma list (``1,12``)."""
    text = (text or "").strip()
    try:
        indices = [int(part) for part in (text.split(",") if "," in text else text)]
    except ValueError:
        raise ValueError(f"{flag} {poly.cut(text)}: the value must be digits, such as 12, or a"
                         " comma list of integers, such as 1,12") from None
    if len(set(indices)) < len(indices):
        raise ValueError(f"{flag} {poly.cut(text)}: an index is repeated; give each index once")
    return frozenset(indices)


# the keys of a loop spec, each with the `tracking.Loop` field it sets and the
# kind its value is read as; `r` and `radius` name the same field
LOOP_KEYS = {"center": ("center", complex), "r": ("radius", float),
             "radius": ("radius", float), "orient": ("orientation", int),
             "steps": ("steps", int), "turns": ("turns", int)}


def _parse_loop(text: str) -> tracking.Loop:
    name, _, rest = text.partition(":")
    if not rest:
        raise ValueError("loop spec must look like psq:center=9,r=0.1")
    opts = _parse_assignments(rest)
    unknown = [key for key in opts if key not in LOOP_KEYS]
    if unknown:
        raise ValueError(f"unknown loop key {poly.echo(unknown[0])} (the keys are"
                         f" {', '.join(LOOP_KEYS)})")
    if "r" in opts and "radius" in opts:
        raise ValueError("loop gives both r and radius: give the radius once")
    fields = {field: _number(kind, opts[key], f"loop {key}={poly.cut(opts[key])}")
              for key, (field, kind) in LOOP_KEYS.items() if key in opts}
    return tracking.Loop(parameter=name, **fields)


def _load_model_arg(source: str) -> variation.VariationModel:
    if source in variation.BUILTIN_MODELS:
        return variation.builtin_model(source)
    try:
        data = _read_json(source)
    except FileNotFoundError as exc:
        raise variation.ModelError(
            f"unknown model {poly.echo(source)}; choose from {sorted(variation.BUILTIN_MODELS)}"
            f" or the path of a model document ({exc.strerror})") from None
    return variation.model_from_json(data)


# -- stages of graph -> F -> components -> hierarchy -> verdicts / audit / track ----
# (a stage that is one library call is called directly)


def _symanzik(g: graphs.FeynmanGraph) -> tuple:
    """F of `g`, and U and F as printed; the spanning trees are enumerated once."""
    u = graphs.symanzik_U(g)
    f = graphs.symanzik_F(g, u)
    return f, {"U": str(u), "F": str(f)}


def _verdicts(rel, comps, texts) -> list:
    """The oracle's verdict on each word written as ``word=id1,id2,...``."""
    out = []
    for text in texts:
        word = _split_word(text, "--check")
        verdict = hierarchy.word_vanishes(rel, comps, word)
        out.append({
            "word": list(word),
            "verdict": "forced_zero" if verdict.forced_zero else "unconstrained",
            "reason": verdict.reason,
        })
    return out


def _track(g: graphs.FeynmanGraph, f: poly.Polynomial, chart_text: str, var: str,
           loop_text: str, fix_text: str, marks: list, prefix: str,
           tol: float = 1e-10) -> dict:
    """Roots of F = `f` of `g` in `var` tracked around a loop under a chart and
    frozen values: the one stage of `track` and `analyze --track-loop`, whose
    options start with `prefix` (``--`` and ``--track-``)."""
    chart = _parse_bindings(chart_text, f, f"{prefix}chart", int)
    edge_vars = [e.var for e in g.edges]
    if var not in edge_vars:
        raise ValueError(f"{prefix}var {poly.echo(var)} is not one of the edge variables"
                         f" {poly.echo(edge_vars)}")
    if var in chart:
        raise ValueError(f"{prefix}chart binds {var!r}, the variable that {prefix}var tracks")
    loop = _parse_loop(loop_text)
    basepoint = _parse_bindings(fix_text, f, f"{prefix}fix", complex)
    for name, value in _parse_assignments(fix_text).items():
        if name in chart:
            raise ValueError(f"{prefix}fix binds {name!r}, which {prefix}chart already binds")
        if name == var:
            raise ValueError(f"{prefix}fix binds {name!r}, the variable that {prefix}var tracks")
        if not cmath.isfinite(basepoint[name]):
            raise tracking.TrackingError(f"frozen value {name}={poly.cut(value)} must be finite")
    if loop.parameter == var:
        raise ValueError(f"{prefix}loop varies {var!r}, the variable that {prefix}var tracks")
    fixed_fiber = [v for v in edge_vars if v != var and v not in chart]
    if fixed_fiber:
        raise ValueError(f"fiber variables {poly.echo(fixed_fiber)} not bound by {prefix}chart")
    family = f.substitute(chart)
    if loop.parameter not in family.variables:  # a constant family tracks silently
        raise ValueError(f"{prefix}loop varies {poly.echo(loop.parameter)}, which does not occur"
                         f" in F under {prefix}chart")
    system = tracking.ParametricRootSystem(family, var, basepoint, loop)
    marked = [_number(complex, z, f"{prefix}mark {poly.cut(z)}") for z in marks]
    return tracking.track(system, marked, tol=tol).describe()


# -- subcommand handlers: each returns what `main` prints ---------------------------


def _cmd_symanzik(args) -> dict:
    return _symanzik(_load_graph_arg(args.graph))[1]


def _cmd_oneloop(args) -> list:
    return [c.describe() for c in _oneloop_components(_load_graph_arg(args.graph), args.split)]


def _cmd_fixture(args) -> list:
    return [c.describe() for c in landau.fixture_landau(args.name)]


def _cmd_eliminate(args) -> dict:
    g = _load_graph_arg(args.graph)
    f = graphs.symanzik_F(g)
    chart = _parse_bindings(args.chart, f, "--chart", int)
    eliminant = landau.eliminate_critical_values(f, [e.var for e in g.edges], chart)
    limit = sys.get_int_max_str_digits()  # 0: no limit
    if limit:
        least = _least_of_more_digits(limit)
        if any(max(abs(c.numerator), c.denominator) >= least
               for c in eliminant.terms.values()):
            raise landau.LandauError(f"eliminant has a coefficient of more than {limit}"
                                     " digits, the interpreter's limit for printing an integer")
    return {"eliminant": str(eliminant)}


@functools.lru_cache(maxsize=4)
def _least_of_more_digits(digits: int) -> int:
    """10 ** digits, the least integer of more than `digits` digits: built once
    per limit, as the default limit's takes about 30 us."""
    return 10 ** digits


def _cmd_hierarchy(args) -> str | list | dict:
    comps = _components_for(args)
    rel = hierarchy.hierarchy_graph(comps)
    if args.dot:
        return hierarchy.to_dot(rel, comps)
    if args.check:
        return _verdicts(rel, comps, args.check)
    return rel.describe()


def _cmd_homrank(args) -> str:
    sets = (_parse_index_set(text, flag)
            for text, flag in ((args.I, "--I"), (args.J, "--J"), (args.K, "--K")))
    cfg = localhom.pinch_config(args.n, args.m, *sets)
    return str(localhom.local_rank(cfg, args.degree, args.variant))


def _cmd_signword(args) -> dict:
    word = localhom.parse_word(args.word)
    sign, canonical = localhom.normalize_word(word)
    return {"sign": sign, "canonical": " ".join(str(op) for op in canonical)}


def _cmd_table(args) -> dict:
    return variation.model_to_json(_load_model_arg(args.model))


def _cmd_compose(args) -> dict:
    model = _load_model_arg(args.model)
    word = _split_word(args.word, "word")
    matrix = variation.compose(model, word)
    return {
        "word": list(word),
        "basis": list(model.basis),
        "matrix": [[str(x) for x in row] for row in matrix],
        "images": {label: {b: str(matrix[i][j]) for i, b in enumerate(model.basis)
                           if matrix[i][j] != 0}
                   for j, label in enumerate(model.basis)},
    }


def _cmd_audit(args) -> dict:
    model = _load_model_arg(args.model)
    return variation.check_against_hierarchy(model, max_len=args.max_len).describe()


# The Aomoto commands grow factorially with the weight n and refuse a weight
# over budget before building anything: `symbol` streams ((n+1)!)^2 words
# (weight 5, the largest accepted, prints in about 0.6 s as text and 0.9 s as
# JSON, with about 20 MB peak RSS; weight 6 would print 49x more), `components`
# lists C(2n+2, n+1) components (weight 7, 1.6 s) and `hierarchy`, also
# `hierarchy --aomoto`, compares C(2n+2, n+1)^2 pairs (weight 6, 3-5 s; weight
# 7 takes 14x longer).
SYMBOL_WORD_BUDGET = 518400
AOMOTO_COMPONENT_BUDGET = 12870
AOMOTO_PAIR_BUDGET = 11778624


def _check_aomoto_budget(n: int, action: str) -> None:
    if n < 1:
        return  # the aomoto functions reject the weight themselves
    m = min(n, 20)  # the exact count stays printable
    comps = math.comb(2 * m + 2, m + 1)
    count, formula, verb, unit, budget = {
        "symbol": (math.factorial(m + 1) ** 2, f"({n + 1}!)^2", "build", "words",
                   SYMBOL_WORD_BUDGET),
        "components": (comps, f"C({2 * n + 2}, {n + 1})", "list", "components",
                       AOMOTO_COMPONENT_BUDGET),
        "hierarchy": (comps ** 2, f"C({2 * n + 2}, {n + 1})^2", "compare", "pairs",
                      AOMOTO_PAIR_BUDGET),
    }[action]
    if count > budget:
        exact = f" = {count}" if n <= 20 else ""
        raise aomoto_mod.AomotoError(
            f"aomoto {action} at weight {n} would {verb} {formula}{exact} {unit},"
            f" over the budget of {budget}"
        )


def _cmd_symbol(args) -> Iterator:
    _check_aomoto_budget(args.n, "symbol")
    if args.format == "text":
        return aomoto_mod.symbol_text(args.n)
    # the encoder's text of [{"letters": [{"I": ..., "J": ...}, ...], "sign":
    # ...}, ...], one chunk per word; each letter record is encoded once and
    # indented to its depth in the document, 3 levels
    pad = "\n" + "  " * 3
    words = aomoto_mod.symbol_walk(args.n, lambda letter: _ENCODER.encode(
        {"I": sorted(letter[0]), "J": sorted(letter[1])}).replace("\n", pad))
    word_texts = (f'{"," if i else "["}\n  {{\n    "letters": [{pad}' + f",{pad}".join(records)
                  + f'\n    ],\n    "sign": {sign}\n  }}' for i, (sign, records) in enumerate(words))
    return itertools.chain(word_texts, ("\n]\n",))


def _cmd_aomoto_components(args) -> list:
    _check_aomoto_budget(args.n, "components")
    return [c.describe() for c in aomoto_mod.aomoto_components(args.n)]


def _cmd_aomoto_hierarchy(args) -> str | dict:
    _check_aomoto_budget(args.n, "hierarchy")
    rel = aomoto_mod.aomoto_edges(args.n)
    if args.dot:
        return hierarchy.to_dot(rel, aomoto_mod.aomoto_components(args.n))
    return rel.describe()


def _cmd_track(args) -> dict:
    g = _load_graph_arg(args.graph)
    return _track(g, graphs.symanzik_F(g), args.chart, args.var, args.loop, args.fix,
                  args.mark, "--", tol=args.tol)


def _cmd_analyze(args) -> dict:
    """Every stage of the chain, side by side, in the order that decides which
    of several bad inputs is reported: components, audit, track, verdicts."""
    g = _load_graph_arg(args.graph)
    comps = _oneloop_components(g, split=True)
    audit = (variation.check_against_hierarchy(_load_model_arg(args.audit)).describe()
             if args.audit else None)
    f, symanzik = _symanzik(g)
    track = (_track(g, f, args.track_chart, args.track_var, args.track_loop,
                    args.track_fix, args.track_mark, "--track-")
             if args.track_loop else None)
    rel = hierarchy.hierarchy_graph(comps)
    return {
        "graph": _graph_summary(g),
        "symanzik": symanzik,
        "landau": [c.describe() for c in comps],
        "hierarchy": rel.describe(),
        "words": _verdicts(rel, comps, args.check),
        "audit": audit,
        "track": track,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="landauvar",
        description="Landau varieties, hierarchy constraints and variation operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    leaves = []

    def leaf(group, name, func, **kwargs):
        q = group.add_parser(name, **kwargs)
        q.set_defaults(func=func)
        leaves.append(q)
        return q

    p = leaf(sub, "symanzik", _cmd_symanzik, help="print the Symanzik polynomials of a graph")
    p.add_argument("graph", help="graph JSON file or builtin name")

    p = sub.add_parser("landau", help="Landau components")
    lsub = p.add_subparsers(dest="action", required=True)
    q = leaf(lsub, "oneloop", _cmd_oneloop)
    q.add_argument("graph")
    q.add_argument("--split", action="store_true",
                   help="split threshold branches for two-edge loops")
    q = leaf(lsub, "fixture", _cmd_fixture)
    q.add_argument("name")
    q = leaf(lsub, "eliminate", _cmd_eliminate)
    q.add_argument("graph")
    q.add_argument("--chart", required=True, help="e.g. x3=1")

    p = leaf(sub, "hierarchy", _cmd_hierarchy, help="compatibility relation and oracle")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph")
    src.add_argument("--fixture")
    src.add_argument("--model")
    src.add_argument("--aomoto", type=int)
    p.add_argument("--dot", action="store_true")
    p.add_argument("--check", action="append", default=[],
                   help="word=id1,id2,... in application order")

    p = leaf(sub, "homrank", _cmd_homrank, help="local homology rank of a pinch model")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--I", default="")
    p.add_argument("--J", default="")
    p.add_argument("--K", default="")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--variant", choices=["open", "closed"], default="open")
    p.set_defaults(format="text")

    p = leaf(sub, "signword", _cmd_signword, help="normalize an operator word")
    p.add_argument("word", help='e.g. "d1 p2 d3:r=2"')

    p = sub.add_parser("variation", help="variation operator models")
    vsub = p.add_subparsers(dest="action", required=True)
    q = leaf(vsub, "table", _cmd_table)
    q.add_argument("model")
    q = leaf(vsub, "compose", _cmd_compose)
    q.add_argument("model")
    q.add_argument("word", help="w=id1,id2,... in application order")
    q = leaf(vsub, "audit", _cmd_audit)
    q.add_argument("model")
    q.add_argument("--max-len", type=int, default=4)

    p = sub.add_parser("aomoto", help="Aomoto polylogarithm structure")
    asub = p.add_subparsers(dest="action", required=True)
    for name, func in (("symbol", _cmd_symbol), ("components", _cmd_aomoto_components),
                       ("hierarchy", _cmd_aomoto_hierarchy)):
        q = leaf(asub, name, func)
        q.add_argument("--n", type=int, required=True)
        if name == "hierarchy":
            q.add_argument("--dot", action="store_true")

    p = leaf(sub, "track", _cmd_track, help="numerical root tracking along a loop")
    p.add_argument("graph")
    p.add_argument("--chart", required=True, help="e.g. x1=1")
    p.add_argument("--var", required=True, help="fiber variable to track")
    p.add_argument("--loop", required=True, help="param:center=9,r=0.1[,steps=256]")
    p.add_argument("--fix", default="", help="frozen parameters, name=value,...")
    p.add_argument("--mark", action="append", default=[],
                   help="marked point for winding numbers")
    p.add_argument("--tol", type=float, default=1e-10)

    p = leaf(sub, "analyze", _cmd_analyze, help="full report for a graph")
    p.add_argument("graph")
    p.add_argument("--check", action="append", default=[])
    p.add_argument("--audit", help="also audit a variation model against its hierarchy")
    p.add_argument("--track-loop", help="also track roots: param:center=9,r=0.1")
    p.add_argument("--track-chart", default="", help="chart for --track-loop, e.g. x1=1")
    p.add_argument("--track-var", default="", help="fiber variable for --track-loop")
    p.add_argument("--track-fix", default="", help="frozen parameters for --track-loop")
    p.add_argument("--track-mark", action="append", default=[])
    p.set_defaults(format="json")

    # --format comes after each leaf's own options; a one-format leaf sets its default
    for q in leaves:
        if q.get_default("format") is None:
            q.add_argument("--format", choices=["text", "json"], default="text")

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # built once per process: parsing leaves the parser unchanged, and no
    # handler mutates a parsed value in place (the `append` defaults are
    # copied by argparse before it appends)
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        data = args.func(args)
        # written in pieces of many chunks: a large document is never held whole,
        # and an unbuffered stdout is not written to once per chunk
        chunks = _chunks(data, args.format)
        while piece := "".join(itertools.islice(chunks, 1024)):
            sys.stdout.write(piece)
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # an audit that finds a violation prints its report and fails
    return 1 if args.func is _cmd_audit and data["violations"] else 0


if __name__ == "__main__":
    sys.exit(main())
