import cmath
import re
from fractions import Fraction

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landauvar.graphs import bubble_graph, symanzik_F
from landauvar.poly import Polynomial, PolynomialError, parse
from landauvar.tracking import (
    Loop,
    ParametricRootSystem,
    TrackingError,
    TrackResult,
    _newton,
    compile_coefficients,
    track,
)


def bubble_family():
    return symanzik_F(bubble_graph()).substitute({"x1": 1})


def test_constant_family_identity():
    f = parse("(x-1)*(x-2) + 0*t")
    result = track(ParametricRootSystem(f, "x", {}, Loop("t", 0, 0.5)), marked=[0])
    assert result.is_identity
    assert all(w == [0] for w in result.windings)


def test_normal_threshold_swap():
    f = bubble_family()
    sys = ParametricRootSystem(f, "x2", {"m1sq": 1, "m2sq": 4}, Loop("psq", 9, 0.1))
    result = track(sys, marked=[0], tol=1e-10)
    assert result.permutation == (1, 0)
    assert result.max_residual < 1e-8


def test_pseudo_threshold_swap():
    f = bubble_family()
    sys = ParametricRootSystem(f, "x2", {"m1sq": 1, "m2sq": 4}, Loop("psq", 1, 0.1))
    result = track(sys, marked=[0], tol=1e-10)
    assert result.permutation == (1, 0)


def mass_loop(orientation=1, steps=256, turns=1):
    f = bubble_family()
    return ParametricRootSystem(
        f, "x2", {"m2sq": 4, "psq": -1},
        Loop("m1sq", 0, 1.0, orientation=orientation, steps=steps, turns=turns),
    )


def test_mass_loop_winding():
    result = track(mass_loop(), marked=[0])
    assert result.is_identity
    near0 = min(range(2), key=lambda i: abs(result.start_roots[i]))
    assert result.windings[near0][0] == 1
    assert result.windings[1 - near0][0] == 0


def test_reversal_inverts():
    fwd = track(mass_loop(), marked=[0])
    back = track(mass_loop(orientation=-1), marked=[0])
    assert back.permutation == fwd.permutation  # identity is its own inverse
    assert all(
        wb[0] == -wf[0] for wb, wf in zip(back.windings, fwd.windings)
    )
    # a swapping loop reversed still swaps (transpositions are involutions)
    f = bubble_family()
    fwd = track(ParametricRootSystem(f, "x2", {"m1sq": 1, "m2sq": 4},
                                     Loop("psq", 9, 0.1)), marked=[])
    rev = track(ParametricRootSystem(f, "x2", {"m1sq": 1, "m2sq": 4},
                                     Loop("psq", 9, 0.1, orientation=-1)), marked=[])
    assert rev.permutation == fwd.permutation == (1, 0)


def test_double_traversal_squares_permutation():
    f = bubble_family()
    single = track(ParametricRootSystem(f, "x2", {"m1sq": 1, "m2sq": 4},
                                        Loop("psq", 9, 0.1)), marked=[])
    double = track(ParametricRootSystem(f, "x2", {"m1sq": 1, "m2sq": 4},
                                        Loop("psq", 9, 0.1, steps=512, turns=2)),
                   marked=[])
    sq = tuple(single.permutation[j] for j in single.permutation)
    assert double.permutation == sq == (0, 1)
    # winding doubles for the small mass loop
    twice = track(mass_loop(steps=512, turns=2), marked=[0])
    once = track(mass_loop(), marked=[0])
    assert sorted(w[0] for w in twice.windings) == sorted(2 * w[0] for w in once.windings)


def test_step_doubling_stability():
    for steps in (256, 512):
        f = bubble_family()
        r = track(ParametricRootSystem(f, "x2", {"m1sq": 1, "m2sq": 4},
                                       Loop("psq", 9, 0.1, steps=steps)), marked=[0])
        assert r.permutation == (1, 0)
        assert [w[0] for w in r.windings] == [0, 0]
    for steps in (256, 512):
        r = track(mass_loop(steps=steps), marked=[0])
        assert r.is_identity
        assert sorted(w[0] for w in r.windings) == [0, 1]


def test_basepoint_on_landau_variety_rejected():
    f = bubble_family()
    # center the loop so the basepoint sits on the normal threshold psq = 9
    sys = ParametricRootSystem(f, "x2", {"m1sq": 1, "m2sq": 4},
                               Loop("psq", 8.9, 0.1))
    with pytest.raises(TrackingError):
        track(sys)


def test_loop_through_degeneration_rejected():
    f = bubble_family()
    # m2sq = 0 sits exactly on this loop, where the family drops degree
    sys = ParametricRootSystem(f, "x2", {"m1sq": 1, "psq": -1},
                               Loop("m2sq", 0.5, 0.5))
    with pytest.raises(TrackingError):
        track(sys)


def test_degree_zero_family_rejected():
    with pytest.raises(TrackingError):
        track(ParametricRootSystem(parse("t"), "x", {}, Loop("t", 2, 0.1)))


def test_loop_rejects_a_non_finite_center_or_radius():
    inf, nan = float("inf"), float("nan")
    for center, radius, message in [
        (inf, 1.0, "center=(inf+0j), r=1.0"), (complex(0, nan), 1.0, "center=nanj"),
        (9, inf, "center=(9+0j), r=inf"), (9, nan, "r=nan"),
    ]:
        with pytest.raises(TrackingError, match="must be finite, got .*" + re.escape(message)):
            Loop("psq", complex(center), radius)


def test_loop_refuses_an_orientation_other_than_plus_or_minus_one():
    for orientation in (0, 3, -2):
        with pytest.raises(TrackingError,
                           match=f"must be \\+1 or -1, got orient={orientation}$"):
            Loop("psq", 9, 0.1, orientation=orientation)


def test_track_refuses_a_tolerance_that_is_not_finite_and_positive():
    sys = ParametricRootSystem(bubble_family(), "x2", {"m1sq": 1, "m2sq": 4},
                               Loop("psq", 9, 0.1))
    for tol in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(TrackingError, match=f"tol={tol} must be finite and positive"):
            track(sys, tol=tol)


def test_newton_without_iterations_is_the_residual_check():
    # the basepoint check: _newton with max_iter=0 fails exactly when
    # |f(r)| exceeds the bound
    desc = [1, -3, 2]  # (x - 1)(x - 2), f(1.5) = -0.25
    assert _newton(desc, (), 1.5, 0.25, max_iter=0) == (1.5, 0.25)
    assert _newton(desc, (), 1.5, 0.2499, max_iter=0) is None


def test_track_results_are_pinned():
    # the compiled coefficients replay Polynomial.evaluate's floating-point
    # operations, so even the residual diagnostic keeps its exact value
    f = bubble_family()
    swap = track(ParametricRootSystem(f, "x2", {"m1sq": 1, "m2sq": 4}, Loop("psq", 9, 0.1)),
                 marked=[0], tol=1e-10)
    assert swap.describe() == {"permutation": [1, 0], "windings": [[0], [0]],
                               "steps": 256, "max_residual": 3.991619579492859e-10}
    assert track(mass_loop(), marked=[0]).describe() == {
        "permutation": [0, 1], "windings": [[0], [1]],
        "steps": 256, "max_residual": 2.646610061606533e-11}


FROZEN_NAMES = ["a", "b", "k", "y", "z"]   # the loop variable "m" sorts among them


@st.composite
def families(draw):
    """A polynomial in the fiber variable x, the loop variable m and one to
    three frozen variables, with terms that lack m, and values for the frozen
    variables (integers or complex numbers)."""
    frozen = draw(st.lists(st.sampled_from(FROZEN_NAMES), min_size=1, max_size=3,
                           unique=True))
    names = ["x", "m", *frozen]
    exps = st.integers(0, 3)
    terms = draw(st.lists(
        st.tuples(st.tuples(*[exps for _ in names]),
                  st.fractions(min_value=-5, max_value=5, max_denominator=7)),
        min_size=1, max_size=8))
    f = Polynomial({tuple(zip(names, mono)): c for mono, c in terms})
    small = st.floats(-3, 3, allow_nan=False)
    value = st.one_of(st.integers(-3, 3), st.builds(complex, small, small))
    values = {v: draw(value) for v in frozen}
    return f, values


@given(families(), st.lists(st.builds(complex, st.floats(-3, 3), st.floats(-3, 3)),
                            min_size=1, max_size=4))
@settings(max_examples=80, deadline=None)
def test_compiled_coefficients_equal_evaluate(family, points):
    f, frozen = family
    polys = f.coefficients_in("x")
    at = compile_coefficients(polys, frozen, "m")
    for t in points:
        assert at(t) == [p.evaluate({**frozen, "m": t}) for p in polys]


@given(families(), st.data())
@settings(max_examples=40, deadline=None)
def test_compiled_coefficients_name_the_unassigned_variable(family, data):
    f, frozen = family
    polys = f.coefficients_in("x")
    occurring = sorted({v for p in polys for v in p.variables} - {"m"})
    if not occurring:
        return
    dropped = data.draw(st.lists(st.sampled_from(occurring), min_size=1, unique=True))
    partial = {v: z for v, z in frozen.items() if v not in dropped}
    with pytest.raises(PolynomialError) as reference:
        for p in polys:
            p.evaluate({**partial, "m": 1j})
    with pytest.raises(PolynomialError) as compiled:
        compile_coefficients(polys, partial, "m")
    assert str(compiled.value) == str(reference.value)
    assert str(compiled.value).startswith("unassigned variable")


def test_unassigned_variable_is_reported_after_the_basepoint_check():
    f = parse("x^2 - t*s")
    with pytest.raises(TrackingError, match="disagrees with the loop"):
        track(ParametricRootSystem(f, "x", {"t": 5}, Loop("t", 0, 1)))
    with pytest.raises(PolynomialError, match="unassigned variable 's'"):
        track(ParametricRootSystem(f, "x", {}, Loop("t", 0, 1)))


def test_discriminant_threshold_is_scale_invariant():
    # x^2 - t at t = 1e-9 has discriminant 4e-9: refused as too close to its
    # branch point, and 1e6 times the family must be refused too (a raw
    # |disc| would read 4e3 there and let it through)
    near = Loop("t", -1, 1 + 1e-9)
    for factor in (1, 10**6):
        f = parse(f"{factor}*(x^2 - t)")
        with pytest.raises(TrackingError, match="too close to the Landau variety"):
            track(ParametricRootSystem(f, "x", {}, near))
    # a basepoint off the threshold gives the same verdict and result
    results = [track(ParametricRootSystem(parse(f"{factor}*(x^2 - t)"), "x", {},
                                          Loop("t", 0, 1)), marked=[0])
               for factor in (Fraction(1, 10**6), 1, 10**6)]
    assert all(r.permutation == (1, 0) for r in results)
    assert all(r.windings == results[0].windings for r in results)


def test_root_on_a_marked_point_is_refused():
    # with m1sq = 0, x2 = 0 is a root of the bubble family at every psq
    sys = ParametricRootSystem(bubble_family(), "x2", {"m1sq": 0, "m2sq": 4},
                               Loop("psq", 9, 1))
    with pytest.raises(TrackingError, match=r"a root lies on the marked point 0j"):
        track(sys, marked=[0])
    assert track(sys, marked=[1]).permutation == (0, 1)


def test_non_finite_marked_point_is_refused():
    sys = ParametricRootSystem(bubble_family(), "x2", {"m1sq": 1, "m2sq": 4},
                               Loop("psq", 9, 0.1))
    for z, shown in [(float("inf"), "(inf+0j)"), (complex(0, float("nan")), "nanj"),
                     (complex("1e400"), "(inf+0j)"), (complex(1, float("-inf")), "(1-infj)")]:
        with pytest.raises(TrackingError, match=re.escape(f"marked point {shown} must be finite")):
            track(sys, marked=[0, z])


# -- the step loop against the straightforward one it replaced -----------------------


def reference_track(sys, marked=(), tol=1e-10, disc_threshold=1e-8) -> TrackResult:
    """Root tracking written plainly, one closure call per step: the oracle
    that `track` must match bit for bit."""
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

    def coeffs_at_theta(theta):
        cs = coeffs_at(loop.point(theta))
        scale = max(abs(c) for c in cs)
        if abs(cs[-1]) <= 1e-12 * max(1.0, scale):
            raise TrackingError(f"leading coefficient vanishes at theta={theta}")
        return cs, scale

    cs0, scale0 = coeffs_at_theta(0.0)
    desc0 = cs0[::-1]
    start = [complex(r) for r in np.roots(desc0)]
    degree = len(start)
    for r in start:
        if _newton(desc0, (), r, 1e-6 * scale0, max_iter=0) is None:
            raise TrackingError("basepoint roots failed the residual check")
    lc = cs0[-1]
    disc = lc ** (2 * degree - 2)
    for i in range(degree):
        for j in range(i + 1, degree):
            disc *= (start[i] - start[j]) ** 2
    if abs(disc) / scale0 ** (2 * degree - 2) <= disc_threshold:
        raise TrackingError("basepoint lies too close to the Landau variety")

    marked = [complex(z) for z in marked]
    roots = list(start)
    windings = [[0.0] * len(marked) for _ in range(degree)]
    theta = 0.0
    base_step = 1.0 / loop.steps
    step = base_step
    n_steps = 0
    max_residual = 0.0
    min_sep = min(
        abs(a - b) for i, a in enumerate(start) for b in start[i + 1:]
    ) if degree > 1 else float("inf")

    while theta < 1.0 - 1e-15:
        h = min(step, 1.0 - theta)
        target = theta + h
        cs, scale = coeffs_at_theta(target)
        desc = cs[::-1]
        ddesc = [(k + 1) * c for k, c in enumerate(cs[1:])][::-1]
        bound = tol * scale
        new_roots = []
        ok = True
        for r in roots:
            corrected = _newton(desc, ddesc, r, bound)
            if corrected is None:
                ok = False
                break
            new_roots.append(corrected)
        if ok and degree > 1:
            sep = min(
                abs(a[0] - b[0])
                for i, a in enumerate(new_roots)
                for b in new_roots[i + 1:]
            )
            if sep < 10 * tol:
                ok = False
            else:
                move = max(abs(a[0] - b) for a, b in zip(new_roots, roots))
                if move > 0.4 * sep:
                    ok = False
        if not ok:
            step /= 2
            if step < 1e-13:
                raise TrackingError("step underflow: loop passes too near a singularity")
            continue
        for i, (val, res) in enumerate(new_roots):
            max_residual = max(max_residual, res)
            for k, z in enumerate(marked):
                windings[i][k] += cmath.phase((val - z) / (roots[i] - z))
        roots = [val for val, _ in new_roots]
        theta = target
        n_steps += 1
        if step < base_step:
            step = min(base_step, step * 2)

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
        [round(w / (2 * cmath.pi)) for w in per_root] for per_root in windings
    ]
    return TrackResult(
        permutation=tuple(permutation),
        windings=int_windings,
        steps=n_steps,
        max_residual=max_residual,
        start_roots=start,
        end_roots=roots,
    )


def bubble_loop(frozen, *loop):
    return ParametricRootSystem(bubble_family(), "x2", frozen, Loop(*loop))


# the nine loop kinds of the monodromy benchmark on the bubble with m2sq = 4: in psq
# (m1sq = 1, thresholds 9 and 1) and in m1sq (psq = 25, thresholds 49 and 9, and the
# zero of the constant term at m1sq = 0, or psq = -1 for the winding loop)
LOOP_KINDS = {
    "psq-normal": bubble_loop({"m1sq": 1, "m2sq": 4}, "psq", 9, 2),
    "psq-pseudo": bubble_loop({"m1sq": 1, "m2sq": 4}, "psq", 1, 2, -1),
    "psq-both": bubble_loop({"m1sq": 1, "m2sq": 4}, "psq", 5, 6),
    "psq-neither": bubble_loop({"m1sq": 1, "m2sq": 4}, "psq", 15, 2, -1, 512),
    "m1sq-winding": bubble_loop({"m2sq": 4, "psq": -1}, "m1sq", 0, 2, 1, 1024),
    "m1sq-normal": bubble_loop({"m2sq": 4, "psq": 25}, "m1sq", 49, 10),
    "m1sq-pseudo": bubble_loop({"m2sq": 4, "psq": 25}, "m1sq", 9, 5, -1),
    "m1sq-both": bubble_loop({"m2sq": 4, "psq": 25}, "m1sq", 29, 25, 1, 2048),
    "m1sq-neither": bubble_loop({"m2sq": 4, "psq": 25}, "m1sq", 80, 10),
}
ORACLE_CASES = [(name, sys, [0]) for name, sys in LOOP_KINDS.items()] + [
    ("halving", bubble_loop({"m1sq": 1, "m2sq": 4}, "psq", 9, 3, 1, 8), [0]),
    ("cubic", ParametricRootSystem(parse("x^3 - 3*x + t"), "x", {}, Loop("t", 2, 0.5)),
     [1, -0.5j]),
    ("two-turns", bubble_loop({"m1sq": 1, "m2sq": 4}, "psq", 9, 0.1, 1, 512, 2), [0, 2]),
    ("clockwise", mass_loop(orientation=-1), [0]),
]


@pytest.mark.parametrize("name, sys, marked", ORACLE_CASES,
                         ids=[case[0] for case in ORACLE_CASES])
def test_track_equals_the_reference_loop(name, sys, marked):
    got, want = track(sys, marked), reference_track(sys, marked)
    for attr in ("permutation", "windings", "steps", "max_residual",
                 "start_roots", "end_roots"):
        assert getattr(got, attr) == getattr(want, attr), attr
    if name == "halving":
        # 14 accepted steps where 8 were planned: rejected steps were halved
        assert got.steps == 14 and got.halvings > 0
        assert "halvings" not in got.describe()
