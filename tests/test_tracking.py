import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landauvar.graphs import bubble_graph, symanzik_F
from landauvar.poly import Polynomial, PolynomialError, parse
from landauvar.tracking import (
    Loop,
    ParametricRootSystem,
    TrackingError,
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
