"""Property tests of the exactness claims: a fast path gives the reference's bits.

The sweep window (``geometry._sweep_contacts``): with the circles sorted by
x, every partner circle i can touch lies in the run of later circles whose x
is within its own window w_i = fl(fl(r_i + r_max) + skin), and no rounding
margin is needed. A pair that the sweep keeps has
fl(d) < fl(fl(r_i + r_j) + skin) <= w_i, as rounding is monotone and
r_j <= r_max. And fl(d) >= |dx| for dx = fl(x_j - x_i), because
fl(sqrt(fl(dx * dx))) == |dx| (barring underflow below 1e-154) and adding
fl(dy * dy) >= 0 cannot lower the sum. So fl(x_j - x_i) < w_i; by monotone
rounding the exact x_j - x_i < w_i, and x_j <= fl(x_i + w_i), which is what
``searchsorted(x, x + window, side="right")`` keeps. NaN and inf coordinates
need no special case: a pair with one never hits, wherever the sort puts it.
A NaN radius makes r_max and every window NaN, and every later circle a
candidate, since searchsorted puts NaN last.

The layouts drawn here aim at the window's edge: chains of circles along x,
each a few ulps either side of tangency (or of tangency plus the skin) with
the last, among circles scattered nearby, at scales from 1e-3 to 1e150, with
offsets up to 1e12 times the scale and radii over three decades, a few of
them shared so that r_j = r_max is common. The sweep's contacts must equal
``oracles.all_pairs_contacts``, which tests every pair, bitwise.
"""

from dataclasses import fields, replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from swarmpack import forces, geometry
from swarmpack.model import Hyperparameters, scalar_operand

from oracles import all_pairs_contacts


@st.composite
def swept_layouts(draw):
    n = draw(st.integers(2, 10))
    scale = 10.0 ** draw(st.floats(-3.0, 150.0))
    sizes = draw(st.lists(st.floats(-3.0, 0.0), min_size=1, max_size=3))
    radii = np.array([scale * 10.0 ** draw(st.sampled_from(sizes)) for _ in range(n)])
    skin = draw(st.sampled_from([0.0, 1e-6 * scale, scale]))
    offset = draw(st.sampled_from([0.0, 1.0, -1.0])) * scale * 10.0 ** draw(st.floats(0.0, 12.0))
    x, y = np.empty(n), np.empty(n)
    x[0], y[0] = offset, offset * draw(st.floats(-1.0, 1.0))
    for k in range(1, n):
        if draw(st.booleans()):
            # Tangent to the last circle, or at its reach plus the skin,
            # give or take a few ulps.
            y[k] = y[k - 1]
            x[k] = x[k - 1] + (radii[k - 1] + radii[k] + draw(st.sampled_from([0.0, skin])))
            ulps = draw(st.integers(-4, 4))
            for _ in range(abs(ulps)):
                x[k] = np.nextafter(x[k], np.copysign(np.inf, ulps))
        else:
            x[k] = x[0] + scale * draw(st.floats(-2.0 * n, 2.0 * n))
            y[k] = y[0] + scale * draw(st.floats(-2.0, 2.0))
    # Shuffled, so the sweep's (min, max) orientation and (i, j) order count.
    order = np.array(draw(st.permutations(range(n))))
    return np.stack([x, y], axis=1)[order], radii[order], skin


@settings(max_examples=1000, derandomize=True, database=None, deadline=None)
@given(swept_layouts())
def test_the_sweep_finds_every_pair_the_all_pairs_search_finds(case):
    positions, radii, skin = case
    got = geometry._sweep_contacts(positions, radii, skin)
    want = all_pairs_contacts(positions, radii, skin)
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


# Floats at the edges of float64: NaN, both infinities and zeros, the
# smallest subnormal and normal, the largest finite, and squares' overflow
# point; plus any other float hypothesis draws.
EDGE_FLOATS = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 1.3407807929942596e154, 1.0, -1.0]
edge_floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))


@st.composite
def maxima_and_bars(draw):
    x = draw(hnp.arrays(np.float64, st.integers(1, 12), elements=edge_floats))
    # Bars at the maximum itself, an ulp either side, an element, or anywhere.
    top = np.maximum.reduce(x)
    with np.errstate(over="ignore"):
        near = [top, np.nextafter(top, np.inf), np.nextafter(top, -np.inf), -top]
    bar = draw(st.one_of(
        st.sampled_from(near),
        st.sampled_from(list(x)),
        edge_floats,
    ))
    return x, np.float64(bar)


@settings(max_examples=1000, derandomize=True, database=None, deadline=None)
@given(maxima_and_bars())
def test_the_argmax_maximum_gives_the_reduce_verdicts(case):
    """``x[x.argmax()]`` stands in for ``np.maximum.reduce(x)`` at the tick's maxima.

    argmax returns the index of the first maximum, and of the first NaN when
    there is one, so a NaN still propagates. Otherwise the two compare equal
    and differ at most in the sign of a zero maximum: with +0.0 and -0.0 both
    in x and nothing larger, argmax takes the first of them and the reduce
    whichever its pairwise order keeps (``np.maximum.reduce([0.0, -0.0])`` is
    -0.0). +0.0 and -0.0 compare alike in every <=, < and >=, so the sites
    that compare the maximum (the speed clamp, the cap test, the skin check,
    the depth test, the non-finite stop) reach the same verdicts. The sites
    that return it (``far_max``, ``enclosing_radius``) take it from sums
    |p| + r with r > 0, and the skin check from squares x*x + y*y, which are
    never -0.0, so their bits are the same too.
    """
    x, bar = case
    top, want = x[x.argmax()], np.maximum.reduce(x)
    assert np.isnan(top) == np.isnan(want)
    if not np.isnan(want):
        assert top == want
        assert top.tobytes() == want.tobytes() or top == 0.0
    assert (top <= bar) == (want <= bar)
    assert (top < bar) == (want < bar)
    assert (top >= bar) == (want >= bar)
    assert (-np.inf < top < np.inf) == (-np.inf < want < np.inf)


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(
    hnp.arrays(np.float64, st.integers(1, 12), elements=edge_floats),
    st.one_of(edge_floats, st.integers(-(2**70), 2**70)),
)
def test_a_0d_operand_gives_the_python_scalar_bits(x, value):
    # Int values too: a tunable may be given as an int.
    operand = scalar_operand(value)
    with np.errstate(all="ignore"):
        for op in (np.add, np.subtract, np.multiply, np.divide, np.less, np.greater_equal):
            assert op(x, value).tobytes() == op(x, operand).tobytes()


def test_the_tick_operands_are_read_only_float64_twins_outside_the_fields():
    hp = Hyperparameters(v_max=3.0, alpha=7.0, dt=1)
    ops = hp.operands
    assert hp.operands is ops
    for operand, value in zip(ops, (-3.0, 7.0, 1.0), strict=True):
        assert operand.shape == () and operand.dtype == np.float64 and not operand.flags.writeable
        assert operand == value
    for operand, value in ((forces._TRIGGER_EPS, forces.OVERLAP_TRIGGER_EPS), (forces._EPSILON, forces.EPSILON),
                           (forces._ZERO, 0.0)):
        assert operand.shape == () and operand.dtype == np.float64 and not operand.flags.writeable
        assert operand == value
    # The public names stay Python floats, as the result JSON writes them.
    assert type(forces.EPSILON) is float and type(forces.OVERLAP_TRIGGER_EPS) is float
    assert "operands" not in {f.name for f in fields(hp)} and "operands" not in hp.tunables()
    # One instance has its operands cached, the other not: equal all the same.
    fresh = Hyperparameters(v_max=3.0, alpha=7.0, dt=1)
    assert "operands" not in vars(fresh)
    assert fresh == hp and hash(fresh) == hash(hp)
    moved = replace(hp, dt=0.5, v_max=2.0)
    assert moved.operands.dt == 0.5 and moved.operands.neg_v_max == -2.0 and moved.operands.alpha == 7.0
