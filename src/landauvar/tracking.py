"""Numerical monodromy of one-dimensional root families along parameter loops.

The family f(x; t) = 0 is followed while one chosen parameter traverses a
circle; all other parameters stay frozen.  Each step predicts every root by
its value at the previous step and corrects it with Newton's method.  A step
is rejected, and halved, when a correction fails or the corrected roots come
close to each other compared with how far they moved; after an accepted step
a halved step doubles back towards the nominal one.  The whole loop is one
straight-line function (`_loop_kernel`), generated once per family degree,
term layout of the coefficients in t and number of marked points, whose
values equal the plain loop's bit for bit.  It leaves out only operations
whose result it already holds: the 0j seed of Horner's rule (no coefficient
has a -0.0 component), the terms without t, their abs and derivative
coefficients, 10 * tol and each root's difference from a marked point at every
step (they are computed once, before the loop, or kept from the last accepted
step), the calls of min and max (comparisons in the same order), the range
object of the Newton loop in its first two corrections and the test of f'
against 0 (the division by f' raises instead).  At the end the roots are
matched back to the start, giving the permutation of the roots and the winding
number of each tracked root around marked points.  The discrete outputs are
the contract; residuals are diagnostics.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass, field

from .poly import Polynomial, PolynomialError, echo


class TrackingError(ValueError):
    pass


# `track` takes at least `steps` corrector steps (steps=100000 takes about 0.3 s
# on a 2-vCPU x86-64 VM, up to 0.5 s when it is loaded, and past about 1e16
# steps theta stops advancing), so more steps are refused; so are more step
# halvings, which also bounds the accepted steps by steps + halvings, as each
# doubling undoes one halving
LOOP_STEP_BUDGET = 100_000

# the basepoint must sit off the Landau variety: its discriminant, divided by
# scale0^(2·degree − 2) so that rescaling f leaves it unchanged, must exceed this
DISC_THRESHOLD = 1e-8


@dataclass(frozen=True)
class Loop:
    parameter: str
    center: complex = 0j
    radius: float = 0.1
    orientation: int = 1     # +1 counter-clockwise
    steps: int = 256
    turns: int = 1           # number of revolutions

    def __post_init__(self):
        if self.orientation not in (1, -1):
            raise TrackingError("loop orientation must be +1 or -1, got"
                                f" orient={self.orientation}")
        if self.turns < 1:
            raise TrackingError(f"loop needs at least 1 turn, got turns={self.turns}")
        if self.steps < 1:
            raise TrackingError(f"loop needs at least 1 step, got steps={self.steps}")
        if self.steps < 2 * self.turns:  # a longer step can wrap round to its start
            raise TrackingError("loop needs at least 2 steps per turn, got"
                                f" steps={self.steps}, turns={self.turns}")
        if self.steps > LOOP_STEP_BUDGET:
            raise TrackingError(f"loop steps={self.steps} is over the budget of"
                                f" {LOOP_STEP_BUDGET} steps")
        if not (cmath.isfinite(self.center) and math.isfinite(self.radius)):
            raise TrackingError("loop center and radius must be finite, got"
                                f" center={self.center}, r={self.radius}")

    def point(self, theta: float) -> complex:
        return self.center + self.radius * cmath.exp(
            2j * cmath.pi * self.orientation * self.turns * theta
        )


@dataclass(frozen=True)
class ParametricRootSystem:
    f: Polynomial
    fiber_var: str
    basepoint: dict          # parameter -> complex value (loop parameter at theta=0)
    loop: Loop

    def coefficient_polys(self):
        return self.f.coefficients_in(self.fiber_var)


@dataclass
class TrackResult:
    permutation: tuple       # sigma[i] = index of the start root where root i ends
    windings: list           # windings[i][k] = winding of root i around marked[k]
    steps: int
    max_residual: float
    start_roots: list = field(default_factory=list)
    end_roots: list = field(default_factory=list)
    halvings: int = 0        # rejected steps; a diagnostic that `describe` leaves out

    @property
    def is_identity(self) -> bool:
        return all(s == i for i, s in enumerate(self.permutation))

    def describe(self) -> dict:
        return {
            "permutation": list(self.permutation),
            "windings": [list(w) for w in self.windings],
            "steps": self.steps,
            "max_residual": self.max_residual,
        }


def _term_table(coeff_polys, frozen, loop_var):
    """The terms of each coefficient polynomial, and the exponent of each slot:
    the one reading of them that `compile_coefficients` and `_loop_kernel` share.
    Every term c·Π v^e becomes (head, k, tail): head is complex(c) times the
    frozen powers of the variables that sort before `loop_var` (all of them
    when `loop_var` does not occur), k the slot of the power t^e of `loop_var`
    among the powers computed once per loop point (None when it does not occur)
    and tail the remaining frozen powers."""
    table, slots = [], {}  # each distinct e_t -> its slot
    for poly in coeff_polys:
        terms = []
        for mono, c in poly.terms.items():
            head, e_t, tail = complex(c), 0, []
            for v, e in mono:
                if v == loop_var:
                    e_t = e
                elif v not in frozen:
                    raise PolynomialError(f"unassigned variable {echo(v)}")
                elif e_t:
                    tail.append(frozen[v] ** e)
                else:
                    head *= frozen[v] ** e
            terms.append((head, slots.setdefault(e_t, len(slots)) if e_t else None, tail))
        table.append(terms)
    return table, list(slots)


def _coefficients_at(table, exponents, t):
    powers = [t ** e for e in exponents]
    cs = []
    for terms in table:
        total = 0j
        for head, k, tail in terms:  # a term without t has no tail
            val = head if k is None else head * powers[k]
            for factor in tail:
                val *= factor
            total += val
        cs.append(total)
    return cs


def compile_coefficients(coeff_polys, frozen, loop_var):
    """The coefficient polynomials as a function of the loop parameter alone,
    read through `_term_table`.  The function multiplies in the same order as
    `Polynomial.evaluate`, so its values equal
    ``[p.evaluate({**frozen, loop_var: t}) for p in coeff_polys]`` exactly.
    """
    return functools.partial(_coefficients_at, *_term_table(coeff_polys, frozen, loop_var))


def _residual_ok(desc, x, bound) -> bool:
    """Whether |f(x)| <= bound, with f(x) by Horner's rule on the descending
    coefficients `desc`: the residual check on the basepoint roots."""
    fx = 0j
    for c in desc:
        fx = fx * x + c
    return abs(fx) <= bound


# The whole step loop as straight-line text.  Its arguments are the heads h*,
# tail factors f* and exponents e* of a `_term_table`, the marked points z*, the
# start roots r*, the loop and the budget of step halvings.  Each pass computes
# the loop point t, the powers p* = t ** e* and the coefficients c* as
# `_coefficients_at` does, corrects every root by Newton's method with Horner's
# rule unrolled, tests the new roots x* for separation and movement, and adds
# the winding a{i}_{k} of root i about marked point k.  Every value equals the
# plain loop's bit for bit, on the same operands in the same order; the kernel
# leaves out only operations whose result it already holds:
# - Horner's rule starts from the leading coefficient, not from 0j * x + c_n.
#   Every coefficient is a sum that starts from 0j, so no component of it is
#   -0.0 (a sum is -0.0 only when both its terms are), nor of k * c_k; while x
#   is finite 0j * x has only zero components, so 0j * x + c equals c.  Once x
#   is not finite it stays so, and both forms reject the step.
# - f' ends in c1 itself, not in 1 * c1: for finite c1 with no -0.0 component
#   (1+0j) * c1 is c1.  f does not read it, and a c1 that is not finite makes
#   f(x) not finite at every x; then e <= bound, if ever, holds at the first x,
#   where both forms agree (past it only inf <= inf could hold, and a nan e at
#   the first x makes every later x nan in both).
# - The terms without t that lead a coefficient are summed once, before the
#   loop, in the same order from 0j; a coefficient made only of them (`const`),
#   its abs and k * c_k too.  `_track` has taken abs of every coefficient at
#   the basepoint by the same operations, so no hoisted abs raises.
# - min and max are comparisons in the builtins' order: max takes a later value
#   only when it is greater, min only when it is less, so nan and ties go the
#   same way; the moves are still left unevaluated once `sep` is too small.
# - The Newton corrections are not a `for` loop over range(20) each: f is
#   evaluated once at the predicted root, the first two corrections are
#   straight-line code and only corrections 3-20 run in a bounded loop, so the
#   same 20 corrections and 21 evaluations come in the same order.
# - f'(x) is not compared with 0: fx / f'(x) raises ZeroDivisionError instead.
#   Complex division raises exactly when both parts of the divisor are +-0,
#   which is when f'(x) == 0 holds, and it raises before x and e change, so
#   e > bound rejects the step as the break did; a nan divisor passes both
#   forms alike.  The try costs nothing until it fires.
# - The denominator r{i} - z{k} of a winding is not recomputed: it is the
#   numerator x{i} - z{k} of the last accepted step (r{i} took the value of
#   x{i}), kept in y{i}_{k}, which starts from the start root before the loop.
# - 10 * tol, the separation floor, is computed once, before the loop.
# Only integers derived from the kernel's key are in the text.
_LOOP_TEMPLATE = """\
def run({heads}{tails}{exponents}{marks}{roots}center, radius, w, tol, steps, budget):
{windings_init}{invariants}    theta = max_residual = 0.0
    base_step = step = 1.0 / steps
    n_steps = halvings = 0
    while theta < 1.0 - 1e-15:
        rest = 1.0 - theta
        target = theta + (rest if rest < step else step)
        t = center + radius * exp(w * target)
{coefficients}{scale}        if lead <= 1e-12 * (scale if scale > 1.0 else 1.0):
            if not isfinite(scale):
                raise OverflowError(f"a coefficient is not finite at theta={{target}}")
            raise TrackingError(f"leading coefficient vanishes at theta={{target}}")
{dcs}        bound = tol * scale
{corrections}{tests}{windings}{accept}        theta = target
        n_steps += 1
        if step < base_step:
            step *= 2
            if not step < base_step:
                step = base_step
    return [{roots}], [{winding_rows}], n_steps, halvings, max_residual
"""

# a rejected step is halved and tried again, up to `budget` halvings in all
_REJECT = """\
            step /= 2
            halvings += 1
            if step < 1e-13:
                raise TrackingError("step underflow: loop passes too near a singularity")
            if halvings > budget:
                raise TrackingError(f"step halvings={halvings} are over the budget of"
                                    f" {budget}: loop passes too near a singularity")
            continue
"""

# at most 20 Newton corrections and 21 evaluations of f; a step is rejected when
# e > bound after the last one or when a derivative vanishes
_CORRECTION_TEMPLATE = """\
        x = r{i}
        fx = {f}
        e = abs(fx)
        try:
            if not e <= bound:
                x = x - fx / {df}
                fx = {f}
                e = abs(fx)
                if not e <= bound:
                    x = x - fx / {df}
                    fx = {f}
                    e = abs(fx)
                    if not e <= bound:
                        for _ in range(18):
                            x = x - fx / {df}
                            fx = {f}
                            e = abs(fx)
                            if e <= bound:
                                break
                        else:
{deep_reject}        except ZeroDivisionError:
{reject}        x{i} = x
        err{i} = e
"""

# a step is accepted when every root converges, the new roots stay apart and
# none moves more than 0.4 of their separation
_TESTS_TEMPLATE = """\
{sep}        if sep < sep_floor:
{reject}{move}        if move > 0.4 * sep:
{reject}"""

# the first root and marked point, in order, whose difference is the zero divisor
_WINDINGS_TEMPLATE = """\
        try:
{phases}        except ZeroDivisionError:
            z = next(z for r in [{roots}] for z in [{marks}] if r - z == 0)
            raise TrackingError(f"a root lies on the marked point {{z}}: its winding"
                                " around that point is undefined") from None
"""


def _horner(names) -> str:
    text, *rest = names
    for name in rest:
        text = f"({text} * x + {name})"
    return text


def _fold(name, op, values) -> str:
    """Loop-body lines that leave in `name` the builtin min (`op` "<") or max
    (`op` ">") of `values`: pairs (var, expr) whose value is expr, stored in
    var, or var itself when expr is None.  `name` takes the first value and
    then a later one only when it compares `op` to the current one."""
    (var, expr), *rest = values
    lines = [f"{name} = {expr or var}"]
    for var, expr in rest:
        lines.append(f"if {var if expr is None else f'({var} := {expr})'} {op} {name}:"
                     f" {name} = {var}")
    return "".join(f"        {line}\n" for line in lines)


def _listed(prefix, n) -> str:
    return "".join(f"{prefix}{i}, " for i in range(n))


@functools.lru_cache(maxsize=256)
def _loop_kernel(degree: int, layout: tuple, n_marks: int):
    """The step loop for families of `degree` whose `_term_table` has the
    `layout` (per coefficient, the slot and number of tail factors of each
    term), with `n_marks` marked points; it gives the end roots, the winding
    angles, the steps, the halvings and the largest residual."""
    powers, ranks, marks = range(degree + 1), range(degree), range(n_marks)
    n_slots = 1 + max((k for terms in layout for k, _ in terms if k is not None), default=-1)
    heads, tails = itertools.count(), itertools.count()
    invariants, coefficients, const = [], [], set()  # const: the c{j} without t
    for j, terms in enumerate(layout):
        n_const = next((n for n, (k, _) in enumerate(terms) if k is not None), len(terms))
        total = "0j" + "".join(f" + h{next(heads)}" for _ in terms[:n_const])
        if n_const == len(terms):
            invariants.append(f"c{j} = {total}")
            const.add(j)
            continue
        if n_const:
            invariants.append(f"s{j} = {total}")
            total = f"s{j}"
        for k, n_tail in terms[n_const:]:
            total += f" + h{next(heads)}" + ("" if k is None else f" * p{k}") + "".join(
                f" * f{next(tails)}" for _ in range(n_tail))
        coefficients.append(f"        c{j} = {total}\n")
    invariants += [f"abs{k} = abs(c{k})" for k in ranks if k in const]
    invariants += [f"lead = abs(c{degree})"] if degree in const else []
    invariants += [f"d{k} = {k} * c{k}" for k in powers[2:] if k in const]
    invariants += ["sep_floor = 10 * tol"] if degree > 1 else []
    f = _horner(f"c{k}" for k in reversed(powers))
    df = _horner(f"d{k}" if k > 1 else "c1" for k in reversed(powers[1:]))
    seps = [("v", f"abs(x{i} - x{j})") for i in ranks for j in range(i + 1, degree)]
    roots, zs = _listed("r", degree), _listed("z", n_marks)
    deep_reject = "".join(" " * 16 + line for line in _REJECT.splitlines(True))
    source = _LOOP_TEMPLATE.format(
        heads=_listed("h", next(heads)), tails=_listed("f", next(tails)),
        exponents=_listed("e", n_slots), marks=zs, roots=roots,
        windings_init="".join(f"    a{i}_{k} = 0.0\n    y{i}_{k} = r{i} - z{k}\n"
                              for i in ranks for k in marks),
        invariants="".join(f"    {line}\n" for line in invariants),
        coefficients="".join(f"        p{k} = t ** e{k}\n" for k in range(n_slots))
        + "".join(coefficients),
        scale=_fold("scale", ">", [(f"abs{k}", None) if k in const else ("v", f"abs(c{k})")
                                  for k in ranks]
                    + [("lead", None if degree in const else f"abs(c{degree})")]),
        dcs="".join(f"        d{k} = {k} * c{k}\n" for k in powers[2:] if k not in const),
        corrections="".join(_CORRECTION_TEMPLATE.format(
            i=i, f=f, df=df, reject=_REJECT, deep_reject=deep_reject) for i in ranks),
        tests=_TESTS_TEMPLATE.format(
            sep=_fold("sep", "<", seps), reject=_REJECT,
            move=_fold("move", ">", [("v", f"abs(x{i} - r{i})") for i in ranks]))
        if seps else "",
        windings=_WINDINGS_TEMPLATE.format(
            phases="".join(f"            a{i}_{k} += phase((v := x{i} - z{k}) / y{i}_{k})\n"
                           f"            y{i}_{k} = v\n" for i in ranks for k in marks),
            roots=roots, marks=zs)
        if n_marks else "",
        accept="".join(f"        if err{i} > max_residual:\n            max_residual = err{i}\n"
                       f"        r{i} = x{i}\n" for i in ranks),
        winding_rows=", ".join(f"[{_listed(f'a{i}_', n_marks)}]" for i in ranks))
    namespace = {"TrackingError": TrackingError, "isfinite": math.isfinite,
                 "exp": cmath.exp, "phase": cmath.phase}
    exec(compile(source, f"<loop kernel of degree {degree}>", "exec"), namespace)
    return namespace["run"]


def track(sys: ParametricRootSystem, marked=(), tol: float = 1e-10) -> TrackResult:
    """Continue all roots of f around the loop and report the induced
    permutation and windings around the marked points."""
    if not (math.isfinite(tol) and tol > 0):
        raise TrackingError(f"tolerance tol={tol} must be finite and positive")
    try:
        return _track(sys, marked, tol)
    except OverflowError as exc:
        raise TrackingError(f"values out of floating-point range: {exc}") from None


def _track(sys, marked, tol) -> TrackResult:
    marked = [complex(z) for z in marked]
    for z in marked:
        if not cmath.isfinite(z):
            raise TrackingError(f"marked point {z} must be finite")
    coeff_polys = sys.coefficient_polys()
    if len(coeff_polys) < 2:
        raise TrackingError("family must have positive degree in the fiber variable")
    loop = sys.loop
    params = dict(sys.basepoint)
    expected_base = loop.point(0.0)
    if loop.parameter in params:
        if abs(params[loop.parameter] - expected_base) > 1e-9 * max(1.0, abs(expected_base)):
            raise TrackingError("basepoint value disagrees with the loop at theta=0")
    params[loop.parameter] = expected_base
    table, exponents = _term_table(coeff_polys, params, loop.parameter)

    cs0 = _coefficients_at(table, exponents, expected_base)
    scale0 = max(map(abs, cs0))
    if abs(cs0[-1]) <= 1e-12 * max(1.0, scale0):
        if not math.isfinite(scale0):
            raise OverflowError("a coefficient is not finite at theta=0.0")
        raise TrackingError("leading coefficient vanishes at theta=0.0")
    desc0 = cs0[::-1]
    import numpy as np  # here, so that commands which never track do not load numpy
    start = [complex(r) for r in np.roots(desc0)]
    degree = len(start)
    for r in start:
        if not _residual_ok(desc0, r, 1e-6 * scale0):
            raise TrackingError("basepoint roots failed the residual check")
    disc = cs0[-1] ** (2 * degree - 2)
    pairs = [(i, j) for i in range(degree) for j in range(i + 1, degree)]
    for i, j in pairs:
        disc *= (start[i] - start[j]) ** 2
    if abs(disc) / scale0 ** (2 * degree - 2) <= DISC_THRESHOLD:
        raise TrackingError("basepoint lies too close to the Landau variety")
    min_sep = min(abs(start[i] - start[j]) for i, j in pairs) if pairs else float("inf")

    # the loop point is center + radius·exp(w·theta), with the same products in
    # the same order as `Loop.point`
    layout = tuple(tuple((k, len(tail)) for _, k, tail in terms) for terms in table)
    roots, windings, n_steps, halvings, max_residual = _loop_kernel(
        degree, layout, len(marked))(
        *[head for terms in table for head, _, _ in terms],
        *[factor for terms in table for _, _, tail in terms for factor in tail],
        *exponents, *marked, *start, loop.center, loop.radius,
        2j * cmath.pi * loop.orientation * loop.turns, tol, loop.steps, LOOP_STEP_BUDGET)

    # match final roots back to the start configuration
    permutation = []
    for r in roots:
        j = min(range(degree), key=lambda j: abs(r - start[j]))
        if degree > 1 and abs(r - start[j]) > 0.49 * min_sep:
            raise TrackingError("root matching is ambiguous; refine the loop")
        permutation.append(j)
    if len(set(permutation)) != degree:
        raise TrackingError("root collision: two tracked roots matched one start root")
    for k, z in enumerate(marked):  # a phase is NaN once (x - z) / (r - z) overflows
        if not all(math.isfinite(per_root[k]) for per_root in windings):
            raise TrackingError(f"winding around marked point {z} is out of floating-point range")

    return TrackResult(
        permutation=tuple(permutation),
        windings=[[round(angle / (2 * cmath.pi)) for angle in per_root]
                  for per_root in windings],
        steps=n_steps,
        max_residual=max_residual,
        start_roots=start,
        end_roots=roots,
        halvings=halvings,
    )
