"""Property tests of the exactness claims: a skip settles only what the full test would.

The radius floor (``solver._cannot_fit``): the floor max(|p_i| + r_i) - |cg|
is a lower bound of the enclosing radius max(|p_i - cg| + r_i), since
|p_i - cg| >= |p_i| - |cg|. The computed enclosing radius, floor and
gravity-center offset each carry a relative error of a few ulps of
far_max + cgv, so a floor above the bar by more than 1e-10 of
far_max + cgv + bar settles that the computed enclosing radius exceeds the
bar too, with room to spare. Where |p_i - cg| overflows to inf while |p_i|
and |cg| stay finite, the enclosing radius is inf and exceeds every bar.

The layouts drawn here put the circles on one ray from the origin with a
heavy circle innermost, so the gravity center lies on the ray just beyond it
and the outermost far edge gives both maxima: the floor equals the enclosing
radius, and only rounding parts the two computed values. Targets sit a few
ulps either side of the floor and of the enclosing radius, where that
rounding decides, and a relative distance below the floor, where the margin
decides. Magnitudes run from 1e-2 to 1.3e154, the largest far edge whose
square stays in float range.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmpack import geometry, solver
from swarmpack.model import ProblemInstance
from swarmpack.solver import FEASIBLE_RADIUS_EPS, certain_overlap_depth, overlap_tolerance

# The largest far edge drawn: its square, 1.69e308, stays below float max.
TOP = 1.3e154


@st.composite
def ray_layouts(draw):
    # A heavy circle at 1 on the unit ray, the others packed outward beyond
    # it with gaps, at sizes 1e-9 to 1 of that distance; then the whole
    # layout scaled so that its farthest edge lies at a drawn magnitude.
    n = draw(st.integers(2, 6))
    size = 10.0 ** draw(st.floats(-9.0, 0.0))
    radii = [size * 10.0 ** draw(st.floats(-3.0, 0.0)) for _ in range(n)]
    along = [1.0]
    for k in range(1, n):
        along.append(along[-1] + radii[k - 1] + radii[k] + size * draw(st.floats(0.0, 2.0)))
    scale = 10.0 ** draw(st.floats(-2.0, math.log10(TOP))) / (along[-1] + radii[-1])
    angle = draw(st.floats(0.0, 2.0 * math.pi))
    ray = np.array([math.cos(angle), math.sin(angle)])
    positions = (scale * np.array(along))[:, None] * ray
    masses = [10.0 ** draw(st.floats(3.0, 8.0))] + [draw(st.floats(1.0, 5.0)) for _ in range(n - 1)]
    return positions, ProblemInstance("ray", radii=scale * np.array(radii), masses=masses)


@st.composite
def layouts_and_targets(draw):
    positions, instance = draw(ray_layouts())
    cg = geometry.center_of_gravity(positions, instance.masses)
    far_max = geometry.far_edges(positions, instance.radii).far_max
    floor = far_max - geometry.cg_offset(cg)
    exact = geometry.enclosing_radius(positions, instance.radii, cg)
    if draw(st.booleans()):
        # bar = target + FEASIBLE_RADIUS_EPS a few ulps off the floor or the
        # enclosing radius.
        target = draw(st.sampled_from([floor, exact])) - FEASIBLE_RADIUS_EPS
        target += draw(st.integers(-6, 6)) * (np.nextafter(target, math.inf) - target)
    else:
        # A relative distance below the floor, across the margin's 1e-10.
        target = floor * (1.0 - 10.0 ** draw(st.floats(-16.0, -1.0)))
    return positions, instance, float(target)


def evaluate(positions, instance, target):
    # Without a skin the NeighbourList searches every call.
    neighbours = geometry.NeighbourList(instance.radii, 0.0)
    tol, depth = overlap_tolerance(instance), certain_overlap_depth(instance)
    return solver._evaluate(positions, instance, target, tol, depth, neighbours)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(layouts_and_targets())
def test_the_radius_floor_settles_only_layouts_that_do_not_fit(case):
    positions, instance, target = case
    bar = target + FEASIBLE_RADIUS_EPS
    cg = geometry.center_of_gravity(positions, instance.masses)
    far_max = geometry.far_edges(positions, instance.radii).far_max
    if solver._cannot_fit(far_max, geometry.cg_offset(cg), bar):
        assert geometry.enclosing_radius(positions, instance.radii, cg) > bar
    *_, overlap, radius = evaluate(positions, instance, target)
    with mock.patch.object(solver, "_cannot_fit", lambda *args: False):
        *_, want_overlap, want_radius = evaluate(positions, instance, target)
    assert (overlap, radius) == (want_overlap, want_radius)
