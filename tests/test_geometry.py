import math

import numpy as np
import pytest

from swarmpack.geometry import (
    Disk,
    Point2,
    center_of_gravity,
    cg_violation,
    contact_pairs,
    enclosing_radius,
    lens_area,
    lens_area_from_distance,
    total_overlap,
    total_overlaps,
)

from swarmpack.model import InvalidInputError, ProblemInstance

from oracles import UNIT_PAIR_LENS_AREA, all_pairs_contacts, lens_area_by_libm, mc_lens_area


def disk(x, y, r):
    return Disk(Point2(x, y), r)


def lens_at(d, ra, rb):
    # Lens area of two disks whose centers lie d apart.
    return lens_area(disk(0.0, 0.0, ra), disk(d, 0.0, rb))


def test_identical_disks_overlap_in_full_area():
    d = disk(1.0, -2.0, 3.0)
    assert lens_area(d, d) == math.pi * 9.0
    # Coincident centers (d = 0) take the contained branch, without warnings.
    with np.errstate(all="raise"):
        three = np.array([3.0])
        assert lens_area_from_distance(np.array([0.0]), three, three).tolist() == [math.pi * 9.0]
        assert total_overlap([(1.0, -2.0), (1.0, -2.0)], [3.0, 3.0]) == math.pi * 9.0


def test_unit_disks_one_apart_match_closed_form():
    value = lens_area(disk(0, 0, 1), disk(1, 0, 1))
    assert value == pytest.approx(UNIT_PAIR_LENS_AREA, rel=1e-14)


def test_unit_pair_matches_sampling_estimate():
    estimate = mc_lens_area(1.0, 1.0, 1.0, seed=7)
    value = lens_area(disk(0, 0, 1), disk(1, 0, 1))
    assert abs(value - estimate) <= 1e-3 * estimate


def test_disjoint_and_tangent_pairs_have_zero_lens():
    assert lens_area(disk(0, 0, 1), disk(3, 0, 1)) == 0.0
    assert lens_area(disk(0, 0, 1), disk(2, 0, 1)) == 0.0


def test_contained_disk_overlap_is_its_own_area():
    assert lens_area(disk(0, 0, 5), disk(1, 0, 2)) == math.pi * 4.0
    # Containment boundary: d exactly equals the radius difference.
    assert lens_area(disk(0, 0, 5), disk(3, 0, 2)) == math.pi * 4.0


def test_lens_symmetry_and_bounds():
    rng = np.random.default_rng(3)
    for _ in range(300):
        ra, rb = rng.uniform(0.3, 4.0, 2)
        d = rng.uniform(0.0, 1.3) * (ra + rb)
        ab = lens_at(d, ra, rb)
        ba = lens_at(d, rb, ra)
        assert ab == pytest.approx(ba, rel=1e-12, abs=1e-15)
        min_area = math.pi * min(ra, rb) ** 2
        assert 0.0 <= ab <= min_area * (1.0 + 1e-12)


def test_lens_is_continuous_at_branch_boundaries():
    # Probe at an absolute offset: much closer and the acos conditioning
    # noise near the containment corner dominates the true area change.
    rng = np.random.default_rng(4)
    for _ in range(50):
        ra, rb = rng.uniform(0.5, 3.0, 2)
        delta = 1e-8 * max(ra, rb)
        for boundary in (ra + rb, abs(ra - rb)):
            at = lens_at(boundary, ra, rb)
            lo = lens_at(max(boundary - delta, 0.0), ra, rb)
            hi = lens_at(boundary + delta, ra, rb)
            assert abs(at - lo) <= 1e-9
            assert abs(at - hi) <= 1e-9


def test_lens_vector_path_matches_scalar_calls():
    rng = np.random.default_rng(5)
    d = rng.uniform(0.0, 5.0, 64)
    ra = rng.uniform(0.3, 3.0, 64)
    rb = rng.uniform(0.3, 3.0, 64)
    # The kernel only sees contacts, as total_overlap passes them.
    hit = d < ra + rb
    d, ra, rb = d[hit], ra[hit], rb[hit]
    vec = lens_area_from_distance(d, ra, rb)
    for k in range(d.shape[0]):
        assert vec[k] == lens_area_from_distance(d[k : k + 1], ra[k : k + 1], rb[k : k + 1])[0]


def ulps_from(x, toward, k):
    # x moved k ulps toward ``toward``, elementwise.
    for _ in range(k):
        x = np.nextafter(x, toward)
    return x


def libm_lens_draws():
    # Radius ratios 1-5 either way round (one pair in ten at exactly 1),
    # depths r_a + r_b - d from 1e-8 of the smaller radius to just short of
    # containment at twice it, contained pairs from d = 0 up to the
    # boundary, and pairs 1-8 ulps inside tangency or outside containment,
    # where a cosine rounds past +-1.
    rng = np.random.default_rng(28)
    n = 3000
    small = rng.uniform(1.0, 50.0, n)
    large = small * rng.uniform(1.0, 5.0, n)
    large[::10] = small[::10]
    flip = rng.random(n) < 0.5
    r_a, r_b = np.where(flip, large, small), np.where(flip, small, large)
    depth = small * 10.0 ** rng.uniform(-8.0, math.log10(2.0), n)
    ds = [r_a + r_b - depth, rng.uniform(0.0, 1.0, n) * np.abs(r_a - r_b)]
    for k in range(1, 9):
        ds += [ulps_from(r_a + r_b, 0.0, k), ulps_from(np.abs(r_a - r_b), np.inf, k)]
    d = np.concatenate(ds)
    reps = len(ds)
    return d, np.tile(r_a, reps), np.tile(r_b, reps)


def test_lens_kernel_equals_the_libm_reference_bitwise():
    d, r_a, r_b = libm_lens_draws()
    pairs = list(zip(d.tolist(), r_a.tolist(), r_b.tolist()))
    got = lens_area_from_distance(d, r_a, r_b)
    want = np.array([lens_area_by_libm(*pair) for pair in pairs])
    differ = np.flatnonzero(got.view(np.int64) != want.view(np.int64)).tolist()
    assert differ == [], (
        f"lens_area_from_distance differs from lens_area_by_libm on {len(differ)} of {len(pairs)} pairs; "
        f"first (d, r_a, r_b) = {pairs[differ[0]]}: {float(got[differ[0]])!r} against {float(want[differ[0]])!r}"
    )
    # The draws reach every case named above: both branches, and cosines
    # past +1 and past -1 that the clip catches.
    partial = d > np.abs(r_a - r_b)
    assert partial.any() and not partial.all() and (d == 0.0).any()
    d, r_a, r_b = d[partial], r_a[partial], r_b[partial]
    cos = np.concatenate([(d * d + a * a - b * b) / ((2.0 * d) * a) for a, b in ((r_a, r_b), (r_b, r_a))])
    assert (cos > 1.0).any() and (cos < -1.0).any()


# Beyond radius 1e76 the product of the four lengths in the lens formula
# overflows; 2**266 scales every length exactly, so the area scales by 2**532.
HUGE = 2.0**266


@pytest.mark.parametrize("depth", [2e-6, 1e-3, 0.3])
def test_lens_areas_of_huge_disks_scale_with_the_square_of_the_radius(depth):
    unit = total_overlap([(0.0, 0.0), (2.0 - depth, 0.0)], [1.0, 1.0])
    huge = total_overlap([(0.0, 0.0), ((2.0 - depth) * HUGE, 0.0)], [HUGE, HUGE])
    assert huge == pytest.approx(unit * HUGE**2, rel=1e-12)


def test_lens_rejects_bad_disks():
    with pytest.raises(InvalidInputError):
        disk(0, 0, -1.0)
    with pytest.raises(InvalidInputError):
        disk(math.nan, 0, 1.0)
    with pytest.raises(InvalidInputError):
        disk(0, math.inf, 1.0)
    # A bool or a string is no length, though the float conversion reads one.
    for radius in (True, np.True_, "1", b"1"):
        with pytest.raises(InvalidInputError):
            disk(0, 0, radius)
    with pytest.raises(InvalidInputError):
        disk(True, 0, 1.0)
    with pytest.raises(InvalidInputError):
        disk(0, "2", 1.0)


def test_total_overlap_sums_pairwise_lens_areas():
    # Bitwise: np.sum of each overlapping pair's scalar lens_area, in (i, j) order.
    rng = np.random.default_rng(6)
    for _ in range(25):
        n = int(rng.integers(2, 41))
        positions = rng.uniform(-5, 5, (n, 2))
        radii = rng.uniform(0.3, 3.0, n)
        areas = [
            lens_area(
                disk(positions[i, 0], positions[i, 1], radii[i]),
                disk(positions[j, 0], positions[j, 1], radii[j]),
            )
            for i, j, *_ in zip(*all_pairs_contacts(positions, radii))
        ]
        assert total_overlap(positions, radii) == np.sum(areas)


def batch_layouts():
    # Twenty layouts of one swarm at spreads from crowded to loose, radii
    # 0.2-4 so small disks sit inside large ones, coincident centres in
    # every third layout, and one layout with no contacts.
    rng = np.random.default_rng(8)
    n = 24
    radii = rng.uniform(0.2, 4.0, n)
    layouts = []
    for k in range(19):
        positions = rng.uniform(-1.0, 1.0, (n, 2)) * rng.uniform(2.0, 40.0)
        if k % 3 == 0:
            positions[1] = positions[0]
        layouts.append(positions)
    layouts.append(np.arange(2.0 * n).reshape(n, 2) * 100.0)
    return radii, layouts


def test_batched_lens_areas_equal_each_layout_bitwise():
    # The two assumptions geometry.total_overlaps rests on: the lens kernel
    # gives every element the same bits in one long call as in the layout's
    # own call, and np.sum over the layout's slice gives its total_overlap.
    radii, layouts = batch_layouts()
    contacts = [contact_pairs(p, radii) for p in layouts]
    i, j, d, _ = (np.concatenate(column) for column in zip(*contacts))
    batched = lens_area_from_distance(d, radii[i], radii[j])
    start = 0
    for positions, c in zip(layouts, contacts):
        end = start + c.d.shape[0]
        own = lens_area_from_distance(c.d, radii[c.i], radii[c.j])
        assert batched[start:end].tobytes() == own.tobytes()
        assert np.sum(batched[start:end]) == total_overlap(positions, radii, contacts=c)
        start = end
    assert total_overlaps(radii, contacts) == [total_overlap(p, radii) for p in layouts]
    # The batch mixes contained and partial pairs and d = 0, while some
    # layouts on their own are all partial and one has no contacts.
    contained = d <= np.abs(radii[i] - radii[j])
    assert (d == 0.0).any() and contained.any() and not contained.all()
    alone = [bool((c.d > np.abs(radii[c.i] - radii[c.j])).all()) for c in contacts if c.d.shape[0]]
    assert any(alone) and not all(alone)
    assert contacts[-1].d.shape[0] == 0


def test_total_overlap_zero_for_spread_layout():
    positions = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)]
    assert total_overlap(positions, [1.0, 1.0, 1.0]) == 0.0
    assert total_overlap([(0.0, 0.0)], [2.0]) == 0.0


def test_total_overlap_checks_lengths():
    with pytest.raises(InvalidInputError):
        total_overlap([(0.0, 0.0)], [1.0, 2.0])


def test_center_of_gravity_balanced_pair_is_origin():
    cg = center_of_gravity([(-3.0, 0.0), (3.0, 0.0)], [5.0, 5.0])
    assert cg[0] == 0.0 and cg[1] == 0.0
    assert cg_violation([(-3.0, 0.0), (3.0, 0.0)], [5.0, 5.0]) == 0.0


def test_center_of_gravity_weighs_by_mass():
    cg = center_of_gravity([(0.0, 0.0), (4.0, 0.0)], [1.0, 3.0])
    assert cg == pytest.approx([3.0, 0.0], rel=1e-15)


def test_cg_violation_invariant_under_mass_scaling():
    rng = np.random.default_rng(8)
    positions = rng.uniform(-10, 10, (7, 2))
    masses = rng.uniform(1, 100, 7)
    base = cg_violation(positions, masses)
    for factor in (2.0, 3.0, 0.125):
        assert cg_violation(positions, masses * factor) == pytest.approx(base, rel=1e-12)


def test_center_of_gravity_rejects_degenerate_input():
    with pytest.raises(InvalidInputError):
        center_of_gravity([(0.0, 0.0)], [0.0])
    with pytest.raises(InvalidInputError):
        center_of_gravity(np.empty((0, 2)), np.empty(0))
    with pytest.raises(InvalidInputError):
        center_of_gravity([(0.0, 0.0), (1.0, 1.0)], [1.0])
    # A total passed in keeps every check.
    with pytest.raises(InvalidInputError):
        center_of_gravity([(0.0, 0.0)], [1.0], 0.0)
    with pytest.raises(InvalidInputError):
        center_of_gravity([(0.0, 0.0), (1.0, 1.0)], [1.0], 1.0)


def test_a_cached_total_mass_gives_the_same_gravity_center_bits():
    # ProblemInstance.total_mass, passed as the solver passes it, divides
    # exactly as the sum center_of_gravity takes itself.
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(1, 150))
        inst = ProblemInstance("cg", radii=np.ones(n), masses=rng.uniform(0.1, 1e3, n))
        positions = rng.uniform(-1e3, 1e3, (n, 2))
        assert inst.total_mass == float(np.sum(inst.masses))
        cached = center_of_gravity(positions, inst.masses, inst.total_mass)
        assert cached.tobytes() == center_of_gravity(positions, inst.masses).tobytes()
        # The solver's form: masses as (N, 2) rows, with the cached total.
        rows = center_of_gravity(positions, inst.mass_rows, inst.total_mass)
        assert rows.tobytes() == cached.tobytes()
        assert center_of_gravity(positions, inst.mass_rows).tobytes() == cached.tobytes()


def test_center_of_gravity_checks_mass_rows():
    positions = np.array([[0.0, 0.0], [2.0, 0.0]])
    for masses in (np.ones((2, 1)), np.ones((1, 2)), np.ones((3, 2)), np.ones((2, 3))):
        with pytest.raises(InvalidInputError):
            center_of_gravity(positions, masses)
    with pytest.raises(InvalidInputError):
        center_of_gravity(positions, np.zeros((2, 2)))
    with pytest.raises(InvalidInputError):
        center_of_gravity(np.empty((0, 2)), np.empty((0, 2)))
    # Rows whose columns differ weight x and y by different masses.
    for masses in ([[1.0, 1.0], [1.0, 3.0]], np.array([[1.0, 1.0], [1.0, 3.0]])):
        with pytest.raises(InvalidInputError, match="both columns"):
            center_of_gravity([[0.0, 0.0], [2.0, 2.0]], masses)


BAD_ELEMENTS = (True, np.True_, "1", b"1")


@pytest.mark.parametrize("bad", BAD_ELEMENTS)
def test_checked_entries_reject_bools_and_strings(bad):
    # As ProblemInstance does: the float conversion alone would read True
    # as 1 and "1" as the number it spells.
    points = [[0.0, 0.0], [1.0, 0.0]]
    for call in (
        lambda: enclosing_radius(points, [1.0, bad]),
        lambda: enclosing_radius([[0.0, bad], [1.0, 0.0]], [1.0, 1.0]),
        lambda: enclosing_radius(points, [1.0, 1.0], center=(0.0, bad)),
        lambda: center_of_gravity(points, [bad, 3.0]),
        lambda: center_of_gravity([[bad, 0.0], [2.0, 0.0]], [1.0, 3.0]),
        lambda: total_overlap(points, [bad, 1.0]),
        lambda: contact_pairs([[0.0, 0.0], [bad, 0.0]], [1.0, 1.0]),
    ):
        with pytest.raises(InvalidInputError):
            call()
    # The same, in NumPy arrays of bools and strings.
    with pytest.raises(InvalidInputError):
        center_of_gravity(points, np.array([True, True]))
    with pytest.raises(InvalidInputError):
        enclosing_radius(points, np.array(["1", "1"]))


def test_checked_entries_still_take_numbers_of_any_type():
    points = [[0, 0], [np.float32(2.0), 0]]
    assert center_of_gravity(points, [1, np.int64(3)]).tolist() == [1.5, 0.0]
    assert enclosing_radius(points, np.array([1, 1], dtype=np.int32)) == 3.0
    assert enclosing_radius(np.array(points, dtype=np.float32), [1.0, 1.0], center=[1, 0]) == 2.0


def test_enclosing_radius_single_circle():
    assert enclosing_radius([(3.0, 0.0)], [2.0]) == 5.0
    assert enclosing_radius([(0.0, 0.0)], [2.0], center=(0.0, 0.0)) == 2.0


def test_enclosing_radius_takes_farthest_edge():
    positions = [(0.0, 0.0), (1.0, 0.0), (0.0, -4.0)]
    radii = [1.0, 0.5, 2.0]
    assert enclosing_radius(positions, radii) == 6.0


def test_enclosing_radius_translation_covariance():
    rng = np.random.default_rng(9)
    positions = rng.uniform(-5, 5, (10, 2))
    radii = rng.uniform(0.2, 2.0, 10)
    center = rng.uniform(-5, 5, 2)
    shift = np.array([123.4, -56.7])
    base = enclosing_radius(positions, radii, center)
    moved = enclosing_radius(positions + shift, radii, center + shift)
    assert moved == pytest.approx(base, rel=1e-12)


def test_point2_converts_to_array():
    arr = np.asarray(Point2(3.0, -4.0))
    assert arr.tolist() == [3.0, -4.0]
