"""Property tests of the exactness claims: a fast path gives the reference's bits.

The sweep window (``geometry._sweep_contacts``): with the circles sorted by
x, every partner circle i can touch lies in the run of later circles whose x
is within its own window w_i = fl(fl(r_i + r_max) + skin), and no rounding
margin is needed. A pair that ``_touching`` keeps has
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

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmpack import geometry

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
