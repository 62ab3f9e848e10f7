"""Numerical monodromy of one-dimensional root families along parameter loops.

The family f(x; t) = 0 is followed while one chosen parameter traverses a
circle; all other parameters stay frozen.  Each step predicts every root by
its value at the previous step and corrects it with Newton's method.  A step
is rejected, and halved, when a correction fails or the corrected roots come
close to each other compared with how far they moved; after an accepted step
a halved step doubles back towards the nominal one.  One corrector step is a
straight-line function per family degree, generated once from text that
depends on the degree alone (`_step_kernel`): Horner's rule unrolled over
the unpacked coefficients, every root and every root pair written out, and
the same floating-point operations as the plain loop.  At the end the roots are
matched back to the start, giving the permutation of the roots and the
winding number of each tracked root around marked points.  The discrete
outputs are the contract; residuals are diagnostics.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

from .poly import Polynomial, PolynomialError


class TrackingError(ValueError):
    pass


# `track` takes at least `steps` corrector steps (steps=100000 takes about 1.0 s
# on a 2-vCPU x86-64 VM, and past about 1e16 steps theta stops advancing), so
# more steps are refused
LOOP_STEP_BUDGET = 100_000

# the basepoint must sit off the Landau variety: its discriminant, divided by
# scale0^(2·degree − 2) so that rescaling f leaves it unchanged, must exceed this
DISC_THRESHOLD = 1e-8


@dataclass(frozen=True)
class Loop:
    parameter: str
    center: complex
    radius: float
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


def compile_coefficients(coeff_polys, frozen, loop_var):
    """The coefficient polynomials as a function of the loop parameter alone.

    Every term c·Π v^e becomes (head, k, tail): head is complex(c) times the
    frozen powers of the variables that sort before `loop_var` (all of them
    when `loop_var` does not occur), k the slot of the power t^e of `loop_var`
    among the powers computed once per call (None when it does not occur) and
    tail the remaining frozen powers.  The returned function multiplies in the
    same order as `Polynomial.evaluate`, so its values equal
    ``[p.evaluate({**frozen, loop_var: t}) for p in coeff_polys]`` exactly.
    """
    compiled, slots = [], {}  # each distinct e_t -> its slot
    for poly in coeff_polys:
        terms = []
        for mono, c in poly.terms.items():
            head, e_t, tail = complex(c), 0, []
            for v, e in mono:
                if v == loop_var:
                    e_t = e
                elif v not in frozen:
                    raise PolynomialError(f"unassigned variable {v!r}")
                elif e_t:
                    tail.append(frozen[v] ** e)
                else:
                    head *= frozen[v] ** e
            terms.append((head, slots.setdefault(e_t, len(slots)) if e_t else None, tail))
        compiled.append(terms)
    exponents = list(slots)

    def at(t):
        powers = [t ** e for e in exponents]
        cs = []
        for terms in compiled:
            total = 0j
            for head, k, tail in terms:
                if k is None:
                    total += head
                    continue
                val = head * powers[k]
                for factor in tail:
                    val *= factor
                total += val
            cs.append(total)
        return cs

    return at


def _newton(coeffs, dcoeffs, x0, bound, max_iter=20):
    """Newton corrector on descending coefficient lists; succeeds once
    |f(x)| <= bound, giving (x, |f(x)|), else None.  `track` calls it with
    max_iter=0, as the basepoint residual check; its steps run the same
    corrector written out by `_step_kernel`."""
    x = x0
    for i in range(max_iter + 1):
        fx = 0j
        for c in coeffs:
            fx = fx * x + c
        residual = abs(fx)
        if residual <= bound:
            return x, residual
        if i == max_iter:
            return None
        dfx = 0j
        for c in dcoeffs:
            dfx = dfx * x + c
        if dfx == 0:
            return None
        x = x - fx / dfx


# One corrector step for a family of one degree d, as straight-line text: the
# coefficients c0..cd, the derivative's dk = k * ck and the roots r0..r(d-1) are
# unpacked into locals and Horner's rule is unrolled.  It does what
# `_newton(desc, ddesc, r, tol * scale)` does for each root, then the separation
# and move tests, with the same floating-point operations on the same operands in
# the same order; only integers derived from d are written into the text.
_STEP_TEMPLATE = """\
def step(cs, theta, roots, tol):
    {cs}, = cs
    scale = max({abs_cs})
    if abs(c{degree}) <= 1e-12 * max(1.0, scale):
        if not isfinite(scale):
            raise OverflowError(f"a coefficient is not finite at theta={{theta}}")
        raise TrackingError(f"leading coefficient vanishes at theta={{theta}}")
    {dcs}
    bound = tol * scale
    {roots}, = roots
    residual = 0.0
{corrections}{tests}    return [{new_roots}], residual
"""

_CORRECTION_TEMPLATE = """\
    x = r{i}
    for _ in range(20):
        fx = {f}
        e = abs(fx)
        if e <= bound:
            break
        dfx = {df}
        if dfx == 0:
            return None
        x = x - fx / dfx
    else:
        e = abs({f})
        if not e <= bound:
            return None
    x{i} = x
    if e > residual:
        residual = e
"""

# a step is accepted when every root converges, the new roots stay apart and
# none moves more than 0.4 of their separation
_TESTS_TEMPLATE = """\
    sep = {sep}
    if sep < 10 * tol:
        return None
    if max({moves}) > 0.4 * sep:
        return None
"""


def _horner(names) -> str:
    text = "0j"
    for name in names:
        text = f"({text} * x + {name})"
    return text


@functools.cache
def _step_kernel(degree: int):
    """The corrector step for families of `degree`: ``step(cs, theta, roots,
    tol)`` takes the ascending coefficients at the loop point of `theta` and
    gives the corrected roots and their largest residual, or None when the
    step is rejected."""
    powers = range(degree + 1)
    ranks = range(degree)
    pairs = [(i, j) for i in ranks for j in range(i + 1, degree)]
    f = _horner(f"c{k}" for k in reversed(powers))
    df = _horner(f"d{k}" for k in reversed(powers[1:]))
    corrections = "".join(_CORRECTION_TEMPLATE.format(i=i, f=f, df=df) for i in ranks)
    seps = [f"abs(x{i} - x{j})" for i, j in pairs]
    tests = _TESTS_TEMPLATE.format(
        sep=seps[0] if len(seps) == 1 else f"min({', '.join(seps)})",
        moves=", ".join(f"abs(x{i} - r{i})" for i in ranks)) if pairs else ""
    source = _STEP_TEMPLATE.format(
        cs=", ".join(f"c{k}" for k in powers),
        abs_cs=", ".join(f"abs(c{k})" for k in powers),
        degree=degree,
        dcs="; ".join(f"d{k} = {k} * c{k}" for k in powers[1:]),
        roots=", ".join(f"r{i}" for i in ranks),
        corrections=corrections, tests=tests,
        new_roots=", ".join(f"x{i}" for i in ranks))
    namespace = {"TrackingError": TrackingError, "isfinite": math.isfinite}
    exec(compile(source, f"<corrector step of degree {degree}>", "exec"), namespace)
    return namespace["step"]


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
    coeffs_at = compile_coefficients(coeff_polys, params, loop.parameter)

    cs0 = coeffs_at(expected_base)
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
        if _newton(desc0, (), r, 1e-6 * scale0, max_iter=0) is None:
            raise TrackingError("basepoint roots failed the residual check")
    lc = cs0[-1]
    disc = lc ** (2 * degree - 2)
    pairs = [(i, j) for i in range(degree) for j in range(i + 1, degree)]
    for i, j in pairs:
        disc *= (start[i] - start[j]) ** 2
    if abs(disc) / scale0 ** (2 * degree - 2) <= DISC_THRESHOLD:
        raise TrackingError("basepoint lies too close to the Landau variety")

    roots = list(start)
    windings = [[0.0] * len(marked) for _ in range(degree)]
    theta = 0.0
    base_step = 1.0 / loop.steps
    step = base_step
    n_steps = 0
    halvings = 0
    max_residual = 0.0
    min_sep = min(abs(start[i] - start[j]) for i, j in pairs) if pairs else float("inf")
    # the point at theta is center + radius·exp(w·theta), with the same
    # products in the same order as `Loop.point`
    center, radius = loop.center, loop.radius
    w = 2j * cmath.pi * loop.orientation * loop.turns
    step_to = _step_kernel(degree)

    while theta < 1.0 - 1e-15:
        h = min(step, 1.0 - theta)
        target = theta + h
        stepped = step_to(coeffs_at(center + radius * cmath.exp(w * target)), target,
                          roots, tol)
        if stepped is None:
            step /= 2
            halvings += 1
            if step < 1e-13:
                raise TrackingError("step underflow: loop passes too near a singularity")
            continue
        new_roots, step_residual = stepped
        if step_residual > max_residual:
            max_residual = step_residual
        if marked:
            try:
                for i, val in enumerate(new_roots):
                    for k, z in enumerate(marked):
                        windings[i][k] += cmath.phase((val - z) / (roots[i] - z))
            except ZeroDivisionError:
                raise TrackingError(f"a root lies on the marked point {z}: its winding"
                                    " around that point is undefined") from None
        roots = new_roots
        theta = target
        n_steps += 1
        if step < base_step:
            step = min(base_step, step * 2)

    # match final roots back to the start configuration
    permutation = []
    for i, r in enumerate(roots):
        dists = sorted(range(degree), key=lambda j: abs(r - start[j]))
        j = dists[0]
        if degree > 1 and abs(r - start[j]) > 0.49 * min_sep:
            raise TrackingError("root matching is ambiguous; refine the loop")
        permutation.append(j)
    if len(set(permutation)) != degree:
        raise TrackingError("root collision: two tracked roots matched one start root")

    int_windings = [
        [round(angle / (2 * cmath.pi)) for angle in per_root] for per_root in windings
    ]
    return TrackResult(
        permutation=tuple(permutation),
        windings=int_windings,
        steps=n_steps,
        max_residual=max_residual,
        start_roots=start,
        end_roots=roots,
        halvings=halvings,
    )
