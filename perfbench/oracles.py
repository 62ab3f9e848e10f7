"""Independent checks of command outputs.

Nothing here imports landauvar.  Polynomials printed by the program are read
back by a small evaluator over `Fraction`, determinants are computed by
Gaussian elimination over `Fraction`, and every expected value comes from a
closed form or a construction that does not share code with the program.

Each check takes the command's stdout and the `check` record written by the
input generator, and returns None when the output is correct or a one-line
reason when it is not.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from fractions import Fraction

# -- reading polynomials ---------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*/^()]))")


class OracleError(ValueError):
    pass


def evaluate(text: str, point: dict) -> Fraction:
    """Value of a printed polynomial at an exact rational point."""
    tokens = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            raise OracleError(f"cannot read polynomial near {text[pos:pos + 20]!r}")
        tokens.append(m.groups())
        pos = m.end()
    idx = 0

    def peek():
        return tokens[idx] if idx < len(tokens) else (None, None, None)

    def take():
        nonlocal idx
        if idx >= len(tokens):
            raise OracleError("polynomial ends early")
        idx += 1
        return tokens[idx - 1]

    def expr():
        sign = 1
        if peek()[2] in ("+", "-"):
            sign = -1 if take()[2] == "-" else 1
        total = sign * term()
        while peek()[2] in ("+", "-"):
            op = take()[2]
            value = term()
            total = total + value if op == "+" else total - value
        return total

    def term():
        value = factor()
        while peek()[2] in ("*", "/"):
            op = take()[2]
            rhs = factor()
            value = value * rhs if op == "*" else value / rhs
        return value

    def factor():
        base = atom()
        if peek()[2] == "^":
            take()
            exp = take()[0]
            if exp is None:
                raise OracleError("exponent must be an integer")
            return base ** int(exp)
        return base

    def atom():
        num, name, op = take()
        if num is not None:
            return Fraction(int(num))
        if name is not None:
            if name not in point:
                raise OracleError(f"unexpected variable {name!r}")
            return Fraction(point[name])
        if op == "(":
            value = expr()
            if take()[2] != ")":
                raise OracleError("unbalanced parenthesis")
            return value
        raise OracleError(f"unexpected token {op!r}")

    value = expr()
    if idx != len(tokens):
        raise OracleError("trailing tokens in polynomial")
    return value


def det(rows) -> Fraction:
    """Determinant over Fraction by Gaussian elimination with row swaps."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    if n == 0:
        return Fraction(1)
    result = Fraction(1)
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            result = -result
        result *= a[k][k]
        for r in range(k + 1, n):
            f = a[r][k] / a[k][k]
            if f:
                for c in range(k, n):
                    a[r][c] -= f * a[k][c]
    return result


def solve(rows, rhs) -> list:
    """Solution of a square linear system over Fraction."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k] != 0), None)
        if pivot is None:
            raise OracleError("singular system")
        a[k], a[pivot] = a[pivot], a[k]
        for r in range(n):
            if r != k and a[r][k]:
                f = a[r][k] / a[k][k]
                a[r] = [x - f * y for x, y in zip(a[r], a[k])]
    return [a[k][n] / a[k][k] for k in range(n)]


def _rational(rng) -> Fraction:
    return Fraction(rng.randint(1, 40), rng.randint(1, 9)) * rng.choice((1, -1))


def _generic(rng) -> Fraction:
    """A rational with large numerator and denominator: it misses the
    integer and small-rational roots of an eliminant's factors."""
    return Fraction(rng.randint(1, 10 ** 9), rng.randint(1, 10 ** 9)) * rng.choice((1, -1))


def _mat_mul(a, b):
    """Product of square matrices whose entries are Fraction or None (unknown).
    An unknown entry times zero counts as zero, as in the model format."""
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = Fraction(0)
            for k in range(n):
                x, y = a[i][k], b[k][j]
                if x == 0 or y == 0:
                    continue
                if x is None or y is None:
                    acc = None
                    break
                acc += x * y
            row.append(acc)
        out.append(row)
    return out


def _identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def word_product(ops: dict, word) -> list:
    """Matrix of the word in application order (word[0] acts first)."""
    size = len(next(iter(ops.values())))
    result = _identity(size)
    for cid in word:
        result = _mat_mul(ops[cid], result)
    return result


def decode_ops(table: dict) -> dict:
    return {
        cid: [[None if x is None else Fraction(x) for x in row] for row in m]
        for cid, m in table["ops"].items()
    }


# -- graphs -------------------------------------------------------------------------


def channel_symbol(graph: dict, momenta: frozenset):
    """Invariant of a momentum subset; a subset and its complement share one,
    and the empty or full subset has none."""
    legs = frozenset(l["momentum"] for l in graph.get("legs", []))
    if not momenta or momenta == legs:
        return None
    for key, sym in graph.get("channels", {}).items():
        subset = frozenset(key.split("+"))
        if subset == momenta or subset == legs - momenta:
            return sym
    raise OracleError(f"no channel for {sorted(momenta)}")


def _channel_value(graph: dict, momenta: frozenset, point: dict) -> Fraction:
    sym = channel_symbol(graph, momenta)
    return Fraction(0) if sym is None else Fraction(point[sym])


def laplacian_minor(graph: dict, x: dict, drop) -> Fraction:
    """Determinant of the Laplacian weighted by 1/x_e with the rows and
    columns of the vertices in `drop` removed (all-minors matrix-tree)."""
    keep = [v for v in graph["vertices"] if v not in drop]
    index = {v: i for i, v in enumerate(keep)}
    lap = [[Fraction(0)] * len(keep) for _ in keep]
    for e in graph["edges"]:
        a, b = e["ends"]
        if a == b:
            continue
        w = 1 / Fraction(x[e["var"]])
        for u, v in ((a, b), (b, a)):
            if u in index:
                lap[index[u]][index[u]] += w
                if v in index:
                    lap[index[u]][index[v]] -= w
    return det(lap)


def symanzik_values(graph: dict, point: dict):
    """(U, F) at a point, for a graph whose external legs sit on two vertices.

    U = prod(x) * det L_v and F0 = -p^2 * prod(x) * det L_{ab}, where L_v and
    L_{ab} drop one vertex, or the two leg vertices, from the weighted
    Laplacian.
    """
    prod_x = Fraction(1)
    for e in graph["edges"]:
        prod_x *= Fraction(point[e["var"]])
    u = prod_x * laplacian_minor(graph, point, [graph["vertices"][0]])
    leg_vertices = sorted({l["vertex"] for l in graph["legs"]})
    if len(leg_vertices) != 2:
        raise OracleError("symanzik oracle needs legs on exactly two vertices")
    (sym,) = graph["channels"].values()
    f0 = -Fraction(point[sym]) * prod_x * laplacian_minor(graph, point, leg_vertices)
    mass = sum(Fraction(point[e["mass"] + "sq"]) * Fraction(point[e["var"]])
               for e in graph["edges"])
    return u, f0 + u * mass


def oneloop_symanzik(graph: dict, point: dict):
    """(U, F) of a one-loop cycle: U = sum x, F = U * sum m^2 x - sum P^2 x_i x_j."""
    edges = graph["edges"]
    n = len(edges)
    u = sum(Fraction(point[e["var"]]) for e in edges)
    f = u * sum(Fraction(point[e["mass"] + "sq"]) * Fraction(point[e["var"]]) for e in edges)
    legs_at = {}
    for leg in graph.get("legs", []):
        legs_at.setdefault(leg["vertex"], set()).add(leg["momentum"])
    for i in range(n):
        for j in range(i + 1, n):
            # removing edges i and j cuts off the vertices between them
            side = frozenset(
                p for k in range(i + 1, j + 1)
                for p in legs_at.get(edges[k]["ends"][0], ())
            )
            f -= (_channel_value(graph, side, point)
                  * Fraction(point[edges[i]["var"]]) * Fraction(point[edges[j]["var"]]))
    return u, f


# -- checks ------------------------------------------------------------------------


def _json(stdout):
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise OracleError(f"output is not JSON: {exc}") from None


def _oneloop_components(comps, graph: dict, rng) -> str | None:
    # the generator lists the edges in cycle order, which fixes the s_ij names
    edges = [(e["id"], e["mass"] + "sq", e["var"]) for e in graph["edges"]]
    n = len(edges)
    ids = [eid for eid, _, _ in edges]
    expected = set()
    for size in range(n):
        for subset in itertools.combinations(range(n), size):
            suffix = "/" + "".join(sorted(ids[p] for p in subset)) if subset else ""
            expected.add(("lF" + suffix, subset, False))
            if size < n - 1:
                expected.add(("lFU" + suffix, subset, True))
    got = {c["id"]: c["defining"] for c in comps}
    if set(got) != {cid for cid, _, _ in expected}:
        return f"component ids {sorted(got)} differ from the expected set"
    point = {msq: _rational(rng) for _, msq, _ in edges}
    s = {}
    for i in range(n):
        for j in range(i + 1, n):
            s[(i, j)] = s[(j, i)] = point[f"s{i + 1}{j + 1}"] = _rational(rng)
    for cid, subset, second in sorted(expected):
        keep = [p for p in range(n) if p not in subset]
        if second:
            # bordered Cayley matrix S' = [[0, 1..1], [1, S]], S_ij = s_ij / 2
            rows = [[Fraction(0)] + [Fraction(1)] * len(keep)]
            for i in keep:
                rows.append([Fraction(1)] + [
                    Fraction(0) if i == j else s[(i, j)] / 2 for j in keep
                ])
        else:
            # Gram matrix M_ii = m_i^2, M_ij = (m_i^2 + m_j^2 + s_ij) / 2
            rows = [[
                point[edges[i][1]] if i == j
                else (point[edges[i][1]] + point[edges[j][1]] + s[(i, j)]) / 2
                for j in keep
            ] for i in keep]
        if evaluate(got[cid], point) != det(rows):
            return f"{cid}: defining polynomial disagrees with the determinant"
    return None


def check_oneloop(stdout, spec, rng):
    return _oneloop_components(_json(stdout), spec["graph"], rng)


def check_analyze(stdout, spec, rng):
    report = _json(stdout)
    graph = spec["graph"]
    bad = _oneloop_components(report["landau"], graph, rng)
    if bad:
        return bad
    if report["hierarchy"]["nodes"] != sorted(c["id"] for c in report["landau"]):
        return "hierarchy nodes differ from the component ids"
    point = {}
    for e in graph["edges"]:
        point[e["var"]] = _rational(rng)
        point[e["mass"] + "sq"] = _rational(rng)
    for sym in graph["channels"].values():
        point[sym] = _rational(rng)
    u, f = oneloop_symanzik(graph, point)
    if evaluate(report["symanzik"]["U"], point) != u:
        return "U disagrees with sum of Schwinger variables"
    if evaluate(report["symanzik"]["F"], point) != f:
        return "F disagrees with the one-loop closed form"
    return None


def check_symanzik(stdout, spec, rng):
    data = _json(stdout)
    graph = spec["graph"]
    point = {}
    for e in graph["edges"]:
        point[e["var"]] = Fraction(rng.randint(1, 30), rng.randint(1, 7))
        point[e["mass"] + "sq"] = _rational(rng)
    for sym in graph["channels"].values():
        point[sym] = _rational(rng)
    u, f = symanzik_values(graph, point)
    if evaluate(data["U"], point) != u:
        return "U disagrees with the matrix-tree value"
    if evaluate(data["F"], point) != f:
        return "F disagrees with the matrix-tree value"
    return None


def _eliminant_point(spec, rng):
    """Masses m_e (rational) for every mass, fixed ones taken from the chart."""
    masses = {}
    for msq in spec["masses"]:
        fixed = spec["fixed"].get(msq)
        masses[msq] = Fraction(fixed) if fixed is not None else abs(_generic(rng))
    return masses


def check_threshold_eliminant(stdout, spec, rng):
    """Eliminant of a banana graph (bubble, sunrise) with the chart applied:
    it vanishes at every threshold p^2 = (m_1 +- m_2 +- ...)^2 and not at a
    generic p^2."""
    text = _json(stdout)["eliminant"]
    masses = _eliminant_point(spec, rng)
    base = {msq: m * m for msq, m in masses.items() if msq not in spec["fixed"]}
    values = list(masses.values())
    for signs in itertools.product((1, -1), repeat=len(values) - 1):
        p = values[0] + sum(s * v for s, v in zip(signs, values[1:]))
        if evaluate(text, {**base, spec["psq"]: p * p}) != 0:
            return f"eliminant does not vanish at p^2 = {p * p}"
    if evaluate(text, {**base, spec["psq"]: _generic(rng)}) == 0:
        return "eliminant vanishes at a generic point"
    return None


def check_cayley_eliminant(stdout, spec, rng):
    """Eliminant of a one-loop triangle with masses fixed: at a critical point
    built from Y x = 0 (Y the modified Cayley matrix, linear in the channel
    invariants), it must vanish."""
    text = _json(stdout)["eliminant"]
    graph = spec["graph"]
    edges = graph["edges"]
    n = len(edges)
    msq = [Fraction(spec["fixed"][e["mass"] + "sq"]) for e in edges]
    x = [Fraction(1) if e["var"] == spec["chart_var"] else Fraction(rng.randint(1, 20), rng.randint(1, 6))
         for e in edges]
    # edges i and i+1 meet at the vertex ends[1] of edge i; each vertex
    # carries one leg, whose channel symbol is the unknown
    syms = []
    for i in range(n):
        vertex = edges[i]["ends"][1]
        legs = frozenset(l["momentum"] for l in graph["legs"] if l["vertex"] == vertex)
        syms.append(channel_symbol(graph, legs))
    # (Y x)_i = sum_j Y_ij x_j with Y_ii = m_i^2 and, for j = i +- 1,
    # Y_ij = (m_i^2 + m_j^2 - P_ij^2) / 2: linear in the unknowns P^2
    rows, rhs = [], []
    for i in range(n):
        row = [Fraction(0)] * n
        const = msq[i] * x[i]
        for j in range(n):
            if j == i:
                continue
            k = i if (i + 1) % n == j else j  # vertex between edges i and j
            const += (msq[i] + msq[j]) / 2 * x[j]
            row[k] -= x[j] / 2
        rows.append(row)
        rhs.append(-const)
    psq = solve(rows, rhs)
    point = dict(zip(syms, psq))
    if evaluate(text, point) != 0:
        return "eliminant does not vanish at a constructed critical point"
    if evaluate(text, {s: _generic(rng) for s in syms}) == 0:
        return "eliminant vanishes at a generic point"
    return None


def check_audit(stdout, spec, rng, partner=None):
    """No violations; a basis-transformed copy gives the identical report."""
    report = _json(stdout)
    if report["violations"]:
        return f"{len(report['violations'])} violations"
    if report["max_len"] != spec["max_len"]:
        return "max_len echoed wrongly"
    if partner is not None and partner != stdout:
        return "report changed under a basis permutation and rescaling"
    return None


def check_compose(stdout, spec, rng):
    data = _json(stdout)
    ops = decode_ops(spec["table"])
    expected = word_product(ops, spec["word"])
    got = [[Fraction(x) for x in row] for row in data["matrix"]]
    if got != expected:
        return "matrix differs from the Fraction product"
    basis = spec["table"]["basis"]
    for j, label in enumerate(basis):
        image = {basis[i]: Fraction(v) for i, v in enumerate(
            row[j] for row in expected) if v != 0}
        if {k: Fraction(v) for k, v in data["images"][label].items()} != image:
            return f"image of {label} differs from the matrix column"
    return None


def aomoto_arrow(src, dst) -> bool:
    """Closed form of the Aomoto relation: I strictly inside I', J' inside J."""
    (i1, j1), (i2, j2) = src, dst
    return i1 < i2 and j2 < j1


def _aomoto_sets(cid):
    m = re.fullmatch(r"l_I(\d*)_J(\d*)", cid)
    if not m:
        raise OracleError(f"bad aomoto component id {cid!r}")
    return frozenset(int(c) for c in m.group(1)), frozenset(int(c) for c in m.group(2))


def aomoto_nodes(n):
    out = []
    for size in range(n + 2):
        for I in itertools.combinations(range(n + 1), size):
            for J in itertools.combinations(range(n + 1), n + 1 - size):
                out.append("l_I" + "".join(map(str, I)) + "_J" + "".join(map(str, J)))
    return sorted(out)


def check_aomoto_relation(stdout, spec, rng):
    data = _json(stdout)
    nodes = aomoto_nodes(spec["n"])
    if data["nodes"] != nodes:
        return "node set differs from all (I, J) with |I| + |J| = n + 1"
    sets = {cid: _aomoto_sets(cid) for cid in nodes}
    expected = sorted([a, b] for a in nodes for b in nodes
                      if aomoto_arrow(sets[a], sets[b]))
    if data["edges"] != expected:
        return "edge set differs from the closed form I < I', J' < J"
    return None


def check_model_verdicts(stdout, spec, rng):
    """A word the oracle forces to zero composes to the zero matrix."""
    verdicts = _json(stdout)
    if [v["word"] for v in verdicts] != spec["words"]:
        return "verdicts do not echo the requested words"
    ops = decode_ops(spec["table"])
    for v in verdicts:
        if v["verdict"] == "forced_zero":
            product = word_product(ops, v["word"])
            if any(x is not None and x != 0 for row in product for x in row):
                return f"word {v['word']} is forced to zero but composes to nonzero"
        elif v["verdict"] != "unconstrained":
            return f"unknown verdict {v['verdict']!r}"
    return None


def check_aomoto_verdicts(stdout, spec, rng):
    """Exact verdicts from the closed form: a letter with I or J empty has
    zero variation, otherwise consecutive letters need an arrow."""
    verdicts = _json(stdout)
    if [v["word"] for v in verdicts] != spec["words"]:
        return "verdicts do not echo the requested words"
    for v in verdicts:
        sets = [_aomoto_sets(c) for c in v["word"]]
        forced = any(not I or not J for I, J in sets) or any(
            not aomoto_arrow(a, b) for a, b in zip(sets, sets[1:]))
        if (v["verdict"] == "forced_zero") != forced:
            return f"verdict for {v['word']} disagrees with the closed form"
    return None


def _parity(perm) -> int:
    inversions = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
    return -1 if inversions % 2 else 1


def check_aomoto_symbol(stdout, spec, rng):
    """((n+1)!)^2 words, one per permutation pair (sigma, tau) read off the
    nested index sets, each signed by parity(sigma) * parity(tau)."""
    n = spec["n"]
    universe = set(range(n + 1))
    seen = set()
    lines = [line for line in stdout.splitlines() if line.strip()]
    letter_re = re.compile(r"a\[(\d*)\|(\d*)\]")
    for line in lines:
        sign_text, _, body = line.partition(" ")
        letters = [(frozenset(map(int, i)), frozenset(map(int, j)))
                   for i, j in letter_re.findall(body)]
        if len(letters) != n:
            return f"word with {len(letters)} letters: {line!r}"
        chain = letters[::-1]  # k = 1 .. n
        sigma, tau = [], []
        prev_i = frozenset()
        for I, J in chain:
            new = I - prev_i
            if len(new) != 1 or not prev_i < I or len(I) + len(J) != n + 1:
                return f"letters do not form a chain: {line!r}"
            sigma.extend(new)
            prev_i = I
        sigma.extend(universe - prev_i)
        prev_j = chain[-1][1]
        tau = list(prev_j)
        for I, J in reversed(chain[:-1]):
            new = J - prev_j
            if len(new) != 1 or not prev_j < J:
                return f"letters do not form a chain: {line!r}"
            tau[:0] = list(new)
            prev_j = J
        tau[:0] = list(universe - prev_j)
        sign = _parity(sigma) * _parity(tau)
        if sign_text != ("+" if sign > 0 else "-"):
            return f"sign of {line!r} is not parity(sigma) * parity(tau)"
        seen.add((tuple(sigma), tuple(tau)))
    expected = 1
    for k in range(2, n + 2):
        expected *= k
    if len(lines) != expected ** 2 or len(seen) != expected ** 2:
        return f"{len(lines)} words, expected ((n+1)!)^2 = {expected ** 2}"
    return None


_DEGREE = {"d": lambda r: r - 1, "p": lambda r: -1, "w": lambda r: -r}
_KIND_RANK = {"d": 0, "p": 1, "w": 2}


def check_signword(stdout, spec, rng):
    """Canonical order (coboundaries, boundaries, intersections, each by
    surface) and the sign as a product over inverted pairs of (-1)^(deg deg)."""
    data = _json(stdout)
    ops = []
    for token in spec["word"].split():
        body, _, opt = token.partition(":")
        r = int(opt[2:]) if opt else 2
        ops.append((body[0], body[1:], r, token))
    key = [(_KIND_RANK[k], s) for k, s, _, _ in ops]
    sign = 1
    for a, b in itertools.combinations(range(len(ops)), 2):
        if key[a] > key[b]:
            da = _DEGREE[ops[a][0]](ops[a][2])
            db = _DEGREE[ops[b][0]](ops[b][2])
            sign *= -1 if (da * db) % 2 else 1
    canonical = " ".join(op[3] for _, op in sorted(zip(key, ops)))
    if data["canonical"] != canonical:
        return f"canonical word {data['canonical']!r}, expected {canonical!r}"
    if data["sign"] != sign:
        return f"sign {data['sign']}, expected {sign}"
    return None


def check_homrank(stdout, spec, rng):
    """Ranks from a table of known cases; relabelling hypersurfaces keeps them."""
    if stdout.strip() != str(spec["rank"]):
        return f"rank {stdout.strip()!r}, expected {spec['rank']}"
    return None


def nilpotency(ops: dict, subset, cutoff: int = 10):
    """Nilpotency index by subspace iteration V_{j+1} = sum_i A_i V_j over Q."""
    size = len(next(iter(ops.values())))
    space = _identity(size)  # rows span V_0 = Q^size
    for k in range(1, cutoff + 1):
        images = []
        for cid in subset:
            a = ops[cid]
            for v in space:
                images.append([sum((a[i][j] * v[j] for j in range(size) if v[j]),
                                   Fraction(0)) for i in range(size)])
        space = _row_basis(images)
        if not space:
            return k
    return None


def _row_basis(vectors):
    basis = []
    for v in vectors:
        w = list(v)
        for pivot, b in basis:
            if w[pivot]:
                f = w[pivot] / b[pivot]
                w = [x - f * y for x, y in zip(w, b)]
        lead = next((i for i, x in enumerate(w) if x), None)
        if lead is not None:
            basis.append((lead, w))
    return [w for _, w in basis]


def check_nilpotency(stdout, spec, rng):
    expected = nilpotency(decode_ops(spec["table"]), spec["subset"])
    if stdout.strip() != str(expected):
        return f"nilpotency index {stdout.strip()!r}, expected {expected}"
    return None


def check_track(stdout, spec, rng):
    """Permutation from the parity of the enclosed discriminant zeros; for an
    identity permutation the windings around 0 sum to the number of enclosed
    zeros of the constant coefficient, and a loop that encloses only such a
    zero winds exactly one root."""
    data = _json(stdout)
    swapped = spec["enclosed_thresholds"] % 2 == 1
    if data["permutation"] != ([1, 0] if swapped else [0, 1]):
        return f"permutation {data['permutation']}, expected swap={swapped}"
    if data["max_residual"] > 1e-6:
        return f"residual {data['max_residual']} above 1e-6"
    if not swapped:
        total = spec["orientation"] * spec["enclosed_zero"]
        windings = sorted(w[0] for w in data["windings"])
        if sum(windings) != total:
            return f"windings {windings} do not sum to {total}"
        if spec["enclosed_thresholds"] == 0 and windings != sorted([0, total]):
            return f"windings {windings}, expected one root winding {total}"
    return None


CHECKS = {
    "oneloop": check_oneloop,
    "analyze": check_analyze,
    "symanzik": check_symanzik,
    "threshold_eliminant": check_threshold_eliminant,
    "cayley_eliminant": check_cayley_eliminant,
    "audit": check_audit,
    "compose": check_compose,
    "aomoto_relation": check_aomoto_relation,
    "model_verdicts": check_model_verdicts,
    "aomoto_verdicts": check_aomoto_verdicts,
    "aomoto_symbol": check_aomoto_symbol,
    "signword": check_signword,
    "homrank": check_homrank,
    "nilpotency": check_nilpotency,
    "track": check_track,
}


def check(stdout: str, spec: dict, seed: int, partner: str | None = None):
    """Run the check named by spec["kind"]; None means the output is correct."""
    rng = random.Random(f"oracle:{seed}:{spec['kind']}")
    try:
        if spec["kind"] == "audit":
            return check_audit(stdout, spec, rng, partner)
        return CHECKS[spec["kind"]](stdout, spec, rng)
    except (OracleError, KeyError, IndexError, TypeError, ValueError,
            ZeroDivisionError) as exc:
        return f"{type(exc).__name__}: {exc}"
