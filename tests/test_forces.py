import numpy as np
import pytest

from swarmpack import forces, geometry, solver
from swarmpack.corpus import CORPUS
from swarmpack.geometry import (
    NeighbourList,
    center_of_gravity,
    cg_offset,
    cg_violation,
    contact_pairs,
    far_edges,
    total_overlap,
)
from swarmpack.forces import CONTAINMENT_EPS, assemble_forces, cg_gradient, find_overlap_pairs
from swarmpack.model import Hyperparameters, ProblemInstance
from swarmpack.solver import solve

from oracles import all_pairs_contacts, cg_force, fd_cg_gradient, overlap_force, radius_force, resultant_force


def make_state(positions, velocities=None):
    # (positions, velocities) as (N, 2) float arrays; velocities default to rest.
    p = np.asarray(positions, dtype=float)
    v = np.zeros_like(p) if velocities is None else np.asarray(velocities, dtype=float)
    return p, v


def make_instance(radii, masses=None):
    r = np.asarray(radii, dtype=float)
    m = np.ones_like(r) if masses is None else np.asarray(masses, dtype=float)
    return ProblemInstance("t", radii=r, masses=m)


def random_setup(rng, n, spread=4.0):
    state = make_state(rng.uniform(-spread, spread, (n, 2)), rng.uniform(-1, 1, (n, 2)))
    inst = make_instance(rng.uniform(0.4, 2.0, n), rng.uniform(1.0, 100.0, n))
    return state, inst


def forces_of(state, inst, target, hp, contacts=None):
    # assemble_forces on the layout's own contacts, gravity center, far edges
    # and gravity-center offset, as solve calls it.
    positions, velocities = state
    if contacts is None:
        contacts = contact_pairs(positions, inst.radii)
    cg = center_of_gravity(positions, inst.masses)
    edges = far_edges(positions, inst.radii)
    return assemble_forces(positions, velocities, inst, target, hp, contacts, cg, edges, cg_offset(cg))


# ---------------------------------------------------------------- pair finding

def swept_contacts(positions, radii, skin=0.0):
    # contact_pairs, or with a skin the wider search of a NeighbourList rebuild.
    return geometry._sweep_contacts(positions, radii, skin) if skin else contact_pairs(positions, radii)


def assert_bitwise_equal(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def overlap_pairs(positions, radii):
    return find_overlap_pairs(radii, contact_pairs(positions, radii))


def test_no_pairs_for_separated_or_tiny_swarms():
    r = np.array([1.0, 1.0])
    assert overlap_pairs(np.array([[0.0, 0.0], [5.0, 0.0]]), r).shape == (0, 2)
    assert overlap_pairs(np.array([[0.0, 0.0]]), np.array([2.0])).shape == (0, 2)
    assert overlap_pairs(np.empty((0, 2)), np.empty(0)).shape == (0, 2)


def test_exact_tangency_is_not_an_overlap():
    r = np.array([1.0, 1.0])
    touching = np.array([[0.0, 0.0], [2.0, 0.0]])
    assert overlap_pairs(touching, r).shape[0] == 0
    barely = np.array([[0.0, 0.0], [2.0 - 1e-6, 0.0]])
    assert overlap_pairs(barely, r).shape[0] == 2


def test_pairs_are_directed_with_ascending_partners():
    # The (j, i) rows first, then the (i, j) rows, both in (i, j) order.
    positions = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.5], [9.0, 9.0]])
    radii = np.array([1.0, 1.0, 1.0, 1.0])
    pairs = overlap_pairs(positions, radii)
    assert pairs.tolist() == [[1, 0], [2, 0], [2, 1], [0, 1], [0, 2], [1, 2]]
    # Each source's partners in ascending order, as np.add.at needs them.
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(2, 60))
        radii = rng.uniform(0.3, 2.0, n)
        pairs = overlap_pairs(rng.uniform(-4.0, 4.0, (n, 2)), radii)
        for src in range(n):
            partners = pairs[pairs[:, 0] == src, 1]
            assert np.all(np.diff(partners) > 0)
        # Every overlapping pair once in each direction.
        rows = pairs.tolist()
        assert len(set(map(tuple, rows))) == len(rows)
        assert sorted(rows) == sorted([b, a] for a, b in rows)


def broad_phase_layouts():
    rng = np.random.default_rng(10)
    for _ in range(40):
        n = int(rng.integers(2, 120))
        spread = float(rng.uniform(1.0, 30.0))
        yield rng.uniform(-spread, spread, (n, 2)), rng.uniform(0.2, 3.0, n)
    for n in (1, 2, 55, 56, 57, 300):
        for spread in (0.5, 4.0):  # dense, loose
            half = spread * np.sqrt(n)
            yield rng.uniform(-half, half, (n, 2)), rng.uniform(0.5, 1.5, n)
    yield np.zeros((5, 2)), np.ones(5)
    yield np.array([[0.0, 0.0], [np.nan, 1.0], [0.5, 0.0], [np.inf, 0.0]]), np.ones(4)
    # Far spread: clusters at coordinates up to 1e12 with unit radii.
    clusters = np.repeat(rng.uniform(-1e12, 1e12, (40, 2)), 6, axis=0)
    yield clusters + rng.uniform(-2.2, 2.2, clusters.shape), np.ones(clusters.shape[0])
    # One vertical line: every x is equal, so every pair is a sweep candidate.
    n = 72
    line = np.stack([np.full(n, 2.5), np.cumsum(rng.uniform(0.5, 2.5, n))], axis=1)
    yield line, rng.uniform(0.5, 1.5, n)
    # Negative radii: at skin 0 there is no positive reach to sweep.
    yield rng.uniform(-3.0, 3.0, (56, 2)), np.full(56, -1.0)
    # Chains along x of equal circles whose gaps sit within a few ulps of
    # r_i + r_j + skin, the sweep's own reach, up to where x rounds to 1/8.
    for offset in (0.0, 1e3, -1e9, 1e15, -1e15):
        for skin in (0.0, 16.0):
            yield ulp_chain(rng, np.full(62, rng.uniform(0.2, 3.0)), skin, offset)
    # The same chains with radii alternating 10 and 50, as in II2: each
    # circle's sweep window r_i + r_max + skin is exactly wide enough for
    # its neighbour when circle i is the small one.
    for offset in (0.0, 1e3, -1e9, 1e15, -1e15):
        for skin in (0.0, 16.0):
            yield ulp_chain(rng, np.tile([10.0, 50.0], 31), skin, offset)
    # Radii of both signs: a window below zero must hold no candidate.
    radii = rng.uniform(0.5, 3.0, 48)
    radii[::6] = -40.0
    yield rng.uniform(-3.0, 3.0, (48, 2)), radii


def ulp_chain(rng, radii, skin, offset):
    # Circles along x, each r_i + r_j + skin from the last, give or take 3 ulps.
    x = np.empty(radii.shape[0])
    x[0] = offset
    for k in range(1, x.shape[0]):
        x[k] = x[k - 1] + (radii[k - 1] + radii[k] + skin)
        ulps = int(rng.integers(-3, 4))
        for _ in range(abs(ulps)):
            x[k] = np.nextafter(x[k], np.copysign(np.inf, ulps))
    return np.stack([x, np.zeros(x.shape[0])], axis=1), radii


def test_sweep_and_naive_agree_on_random_states():
    for positions, radii in broad_phase_layouts():
        # The sweep against the all-pairs reference: a NeighbourList
        # rebuild's wider search, then contact_pairs' own, whose contacts
        # naive and sweep keep for the checks below.
        for skin in (16.0, 0.0):
            naive, sweep = all_pairs_contacts(positions, radii, skin), swept_contacts(positions, radii, skin)
            assert_bitwise_equal(sweep, naive)
        assert total_overlap(positions, radii, contacts=sweep) == total_overlap(positions, radii, contacts=naive)
        pairs = find_overlap_pairs(radii, naive)
        assert find_overlap_pairs(radii, sweep).tobytes() == pairs.tobytes()


def test_sweep_handles_coincident_centers():
    positions = np.zeros((5, 2))
    radii = np.full(5, 1.0)
    naive = find_overlap_pairs(radii, all_pairs_contacts(positions, radii))
    sweep = find_overlap_pairs(radii, contact_pairs(positions, radii))
    assert naive.tobytes() == sweep.tobytes()
    assert naive.shape[0] == 5 * 4


def test_sweep_keeps_the_pairs_beside_a_nan_radius():
    # A NaN radius makes the sweep's reach NaN; the other pairs still hit.
    positions = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0], [9.0, 0.5]])
    radii = np.array([1.0, 1.0, np.nan, 2.5])
    for skin in (0.0, 16.0):
        want = all_pairs_contacts(positions, radii, skin)
        assert want[0].shape[0] > 0
        assert_bitwise_equal(swept_contacts(positions, radii, skin), want)


# ------------------------------------------------------------ neighbour list

def assert_same_contacts(neighbours, positions, radii):
    # One layout pass gives contact_pairs' and far_edges' arrays, to the bit.
    contacts, edges = neighbours.layout(positions)
    assert_bitwise_equal(contacts, contact_pairs(positions, radii))
    want = far_edges(positions, radii)
    assert_bitwise_equal(edges[:2], want[:2])
    assert np.array(edges.far_max).tobytes() == np.array(want.far_max).tobytes()


def unit_vectors(rng, n):
    angle = rng.uniform(0.0, 2.0 * np.pi, n)
    return np.stack([np.cos(angle), np.sin(angle)], axis=1)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_neighbour_list_matches_contact_pairs_on_random_walks():
    rng = np.random.default_rng(11)
    for positions, radii in broad_phase_layouts():
        n = len(radii)
        neighbours = NeighbourList(radii, 1.0)
        half = 0.5 * neighbours.skin
        assert_same_contacts(neighbours, positions, radii)
        finite = bool(np.isfinite(positions).all())
        # Every circle jumps from the anchor to just under, then just over,
        # half the skin: the first keeps the list, the second rebuilds it.
        # Near 1e15, where x rounds to 1/8, a stored jump can land on the
        # other side of half the skin, so the rule reads the jump as stored.
        anchor = positions
        for factor in (1.0 - 1e-3, 1.0 + 1e-3):
            before = neighbours.rebuilds
            step = positions + factor * half * unit_vectors(rng, n)
            assert_same_contacts(neighbours, step, radii)
            if finite:
                rebuilt = np.hypot(*(step - anchor).T).max() > half
                assert neighbours.rebuilds - before == rebuilt
                anchor = step if rebuilt else anchor
        # Then a walk of steps up to the whole skin, most of them rebuilding.
        for _ in range(6):
            positions = positions + rng.uniform(0.0, 2.0 * half, (n, 1)) * unit_vectors(rng, n)
            assert_same_contacts(neighbours, positions, radii)


def test_neighbour_list_rebuilds_before_a_head_on_pair_is_missed():
    # Two circles just outside the candidate reach close the whole skin.
    radii = np.array([1.0, 1.0])
    neighbours = NeighbourList(radii, 1.0)
    gap = 2.0 + neighbours.skin * (1.0 + 1e-9)
    positions = np.array([[0.0, 0.0], [gap, 0.0]])
    assert neighbours.layout(positions)[0].i.shape[0] == 0
    for factor in (0.999, 1.001):
        shift = factor * 0.5 * neighbours.skin
        closer = positions + np.array([[shift, 0.0], [-shift, 0.0]])
        assert_same_contacts(neighbours, closer, radii)
    assert neighbours.layout(closer)[0].i.tolist() == [0]


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_neighbour_list_rebuilds_on_non_finite_states():
    rng = np.random.default_rng(12)
    for n in (55, 57):
        radii = rng.uniform(0.5, 1.5, n)
        positions = rng.uniform(-4.0, 4.0, (n, 2))
        neighbours = NeighbourList(radii, 1.0)
        assert_same_contacts(neighbours, positions, radii)
        for bad in (np.nan, np.inf, -np.inf):
            broken = positions.copy()
            broken[n // 2] = bad
            before = neighbours.rebuilds
            assert_same_contacts(neighbours, broken, radii)
            assert_same_contacts(neighbours, positions, radii)
            assert neighbours.rebuilds - before == 2


def test_neighbour_list_rebuilds_on_a_move_whose_square_overflows():
    # A skin past 1e154: the squared rebuild limit overflows, and so does
    # the squared move of a circle that jumps from 1e200 into contact.
    radii = np.array([1.0, 1.0])
    neighbours = NeighbourList(radii, 1e160)
    with np.errstate(over="ignore"):
        assert_same_contacts(neighbours, np.array([[0.0, 0.0], [1e200, 0.0]]), radii)
        assert_same_contacts(neighbours, np.array([[0.0, 0.0], [1.0, 0.0]]), radii)
    assert neighbours.rebuilds == 2


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_contacts_carry_each_radius_sum_bitwise():
    # reach is radii[i] + radii[j] to the bit, from the stateless search, a
    # NeighbourList rebuild and a call that reuses the list, as from the
    # all-pairs reference.
    rng = np.random.default_rng(21)
    for positions, radii in broad_phase_layouts():
        neighbours = NeighbourList(radii, 1.0)
        found = [contact_pairs(positions, radii), all_pairs_contacts(positions, radii), neighbours.layout(positions)[0]]
        moved = positions + 0.25 * neighbours.skin * unit_vectors(rng, len(radii))
        found.append(neighbours.layout(moved)[0])
        if np.isfinite(positions).all():
            assert neighbours.rebuilds == 1
        for i, j, _, reach in found:
            assert reach.tobytes() == (radii[i] + radii[j]).tobytes()


def test_neighbour_list_without_a_skin_searches_every_call():
    radii = np.ones(3)
    positions = np.array([[0.0, 0.0], [1.5, 0.0], [9.0, 0.0]])
    for travel in (0.0, np.inf):
        neighbours = NeighbourList(radii, travel)
        assert neighbours.skin == 0.0
        for _ in range(3):
            assert_same_contacts(neighbours, positions, radii)
        assert neighbours.rebuilds == 3


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_one_layout_pass_gives_contact_pairs_and_far_edges_along_a_solve(monkeypatch):
    # The layouts a solve judges, replayed through a fresh list with NaN
    # and inf frames spliced in: every pass gives the bytes of contact_pairs
    # and far_edges, rebuilds exactly when some move passes the skin limit
    # (x * x + y * y against its square), and a non-finite frame, or the
    # first frame after one, costs one rebuild and no more.
    inst = CORPUS.get("I3")
    hp = Hyperparameters(n_it=400, seed=1)
    layouts = []
    evaluate = solver._evaluate

    def recording(positions, *args):
        layouts.append(positions)
        return evaluate(positions, *args)

    monkeypatch.setattr(solver, "_evaluate", recording)
    solve(inst, hp)
    neighbours = NeighbourList(inst.radii, hp.v_max * hp.dt)
    anchor = None
    # Rebuilds after the first, split into those forced by a spliced frame
    # (the broken frame and the one after it) and those the moves call for.
    forced = natural = 0
    for k, positions in enumerate(layouts):
        frames = [positions]
        if k % 40 == 20:
            broken = positions.copy()
            broken[k % inst.n, k // 40 % 2] = (np.nan, np.inf, -np.inf)[k // 40 % 3]
            frames = [broken, positions]
        for frame in frames:
            before = neighbours.rebuilds
            assert_same_contacts(neighbours, frame, inst.radii)
            rebuilt = anchor is None or not ((frame - anchor) ** 2).sum(axis=1).max() <= neighbours._limit_sq
            assert neighbours.rebuilds - before == rebuilt
            if len(frames) == 2:
                forced += rebuilt
            elif anchor is not None:
                natural += rebuilt
            anchor = frame if rebuilt else anchor
    assert forced == 2 * len(range(20, len(layouts), 40))
    assert natural > 0


# ------------------------------------------------- per-circle formulas (oracles)

def test_overlap_force_pushes_apart_at_v_max():
    state = make_state([[0.0, 0.0], [1.0, 0.0]])
    inst = make_instance([1.0, 1.0])
    hp = Hyperparameters(v_max=5.0)
    force = overlap_force(0, 1, *state, inst, hp)
    assert force == pytest.approx([-5.0, 0.0], abs=1e-6)
    # Newton pair at rest: the partner feels the exact opposite.
    assert np.array_equal(overlap_force(1, 0, *state, inst, hp), -force)


def test_overlap_force_subtracts_own_velocity():
    state = make_state([[0.0, 0.0], [1.0, 0.0]], [[1.0, 1.0], [0.0, 0.0]])
    inst = make_instance([1.0, 1.0])
    hp = Hyperparameters(v_max=5.0)
    unit_push = overlap_force(0, 1, *make_state([[0.0, 0.0], [1.0, 0.0]]), inst, hp)
    force = overlap_force(0, 1, *state, inst, hp)
    assert force == pytest.approx(unit_push - np.array([1.0, 1.0]), rel=1e-15)


def test_overlap_force_zero_without_overlap_and_rejects_self():
    state = make_state([[0.0, 0.0], [2.0, 0.0]])
    inst = make_instance([1.0, 1.0])
    hp = Hyperparameters()
    assert not overlap_force(0, 1, *state, inst, hp).any()
    with pytest.raises(ValueError):
        overlap_force(2, 2, *state, inst, hp)


def test_cg_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 20:
        n = int(rng.integers(3, 30))
        positions = rng.uniform(-10, 10, (n, 2))
        masses = rng.uniform(10, 99, n)
        if cg_violation(positions, masses) < 0.3:
            continue
        i = int(rng.integers(0, n))
        grad = cg_gradient(i, positions, masses)
        ref = fd_cg_gradient(i, positions, masses, step=1e-6)
        assert grad == pytest.approx(ref, rel=1e-5, abs=1e-10)
        checked += 1


def test_cg_gradient_magnitude_is_mass_fraction():
    rng = np.random.default_rng(12)
    positions = rng.uniform(1.0, 9.0, (6, 2))
    masses = rng.uniform(1.0, 50.0, 6)
    for i in range(6):
        grad = cg_gradient(i, positions, masses)
        assert np.hypot(*grad) == pytest.approx(masses[i] / masses.sum(), rel=1e-12)


def test_cg_gradient_vanishes_at_the_cone_point():
    positions = [(-2.0, 0.0), (2.0, 0.0)]
    masses = [3.0, 3.0]
    assert not cg_gradient(0, positions, masses).any()
    # Inside the 1e-9 guard around the origin, as assemble_forces has it.
    assert not cg_gradient(0, [(-2.0, 0.0), (2.0 + 1e-9, 0.0)], masses).any()


def test_cg_force_is_scaled_negative_gradient():
    rng = np.random.default_rng(13)
    state, inst = random_setup(rng, 8)
    hp = Hyperparameters(alpha=40.0)
    for i in range(8):
        expected = -hp.alpha * cg_gradient(i, state[0], inst.masses)
        assert np.array_equal(cg_force(i, state[0], inst, hp), expected)


def test_radius_force_only_acts_outside_the_target():
    inst = make_instance([1.0])
    hp = Hyperparameters(v_max=2.0)
    inside = make_state([[1.0, 1.0]])
    assert not radius_force(0, *inside, inst, (0.0, 0.0), 5.0, hp).any()
    # Far edge exactly on the boundary still counts as contained.
    on_boundary = make_state([[4.0, 0.0]])
    assert not radius_force(0, *on_boundary, inst, (0.0, 0.0), 5.0, hp).any()
    outside = make_state([[6.0, 0.0]])
    force = radius_force(0, *outside, inst, (0.0, 0.0), 5.0, hp)
    assert force == pytest.approx([-2.0, 0.0], abs=1e-6)


def test_radius_force_subtracts_velocity_and_respects_center():
    inst = make_instance([1.0])
    hp = Hyperparameters(v_max=2.0)
    moving = make_state([[6.0, 0.0]], [[0.5, -0.25]])
    force = radius_force(0, *moving, inst, (0.0, 0.0), 5.0, hp)
    assert force == pytest.approx([-2.5, 0.25], abs=1e-6)
    # A circle sitting on the container center has no push direction; only
    # the damping term remains.
    centered = make_state([[3.0, 3.0]], [[0.5, 0.5]])
    force = radius_force(0, *centered, inst, (3.0, 3.0), 0.5, hp)
    assert force == pytest.approx([-0.5, -0.5], rel=1e-15)


def test_resultant_force_caps_at_f_max():
    hp = Hyperparameters(f_max=50.0)
    capped = resultant_force([np.array([30.0, 40.0]), np.array([30.0, 40.0])], hp)
    assert np.array_equal(capped, np.array([30.0, 40.0]))
    small = resultant_force([np.array([1.0, 2.0])], hp)
    assert np.array_equal(small, np.array([1.0, 2.0]))
    assert not resultant_force([], hp).any()


def test_resultant_norm_never_exceeds_f_max():
    rng = np.random.default_rng(14)
    hp = Hyperparameters(f_max=7.0)
    for _ in range(200):
        contributions = rng.uniform(-20, 20, (int(rng.integers(0, 6)), 2))
        total = resultant_force(contributions, hp)
        assert np.hypot(*total) <= hp.f_max * (1 + 1e-12)


# ------------------------------------------------------------------- assembly

def test_assembly_equals_per_circle_composition():
    rng = np.random.default_rng(15)
    hp = Hyperparameters(f_max=8.0, v_max=2.0, alpha=11.0)
    for _ in range(25):
        n = int(rng.integers(2, 16))
        state, inst = random_setup(rng, n, spread=3.0)
        target = float(rng.uniform(2.0, 6.0))
        total = forces_of(state, inst, target, hp)
        for i in range(n):
            contributions = [overlap_force(i, j, *state, inst, hp) for j in range(n) if j != i]
            contributions.append(cg_force(i, state[0], inst, hp))
            contributions.append(radius_force(i, *state, inst, (0.0, 0.0), target, hp))
            assert np.array_equal(total[i], resultant_force(contributions, hp))


def containment_layouts():
    # (name, state, instance, target): every circle inside, exactly one
    # outside, and one circle whose far edge lies exactly at target +
    # CONTAINMENT_EPS (inside) or one ulp past it (outside). The swarms on
    # the x-axis sit at rest, so every y part is zero.
    inst = make_instance([1.0, 1.0, 1.0, 1.0, 1.0])
    row = [[-1.5, 0.0], [-0.5, 0.0], [0.0, 0.0], [0.5, 0.0]]
    yield "inside", make_state(row + [[1.5, 0.0]]), inst, 10.0
    yield "one outside", make_state(row + [[1.6, 0.0]]), inst, 2.55
    target = 5.0
    edge = target + CONTAINMENT_EPS
    x = edge - 1.0
    assert x + 1.0 == edge
    yield "at the edge", make_state(row + [[x, 0.0]]), inst, target
    yield "past the edge", make_state(row + [[np.nextafter(x, np.inf), 0.0]]), inst, target
    rng = np.random.default_rng(18)
    state, inst = random_setup(rng, 12, spread=2.0)
    yield "moving, inside", state, inst, 10.0


def test_containment_is_skipped_only_when_every_circle_is_inside():
    hp = Hyperparameters(f_max=8.0, v_max=2.0, alpha=11.0)
    for name, state, inst, target in containment_layouts():
        total = forces_of(state, inst, target, hp)
        n = total.shape[0]
        pushed = []
        for i in range(n):
            contributions = [overlap_force(i, j, *state, inst, hp) for j in range(n) if j != i]
            contributions.append(cg_force(i, state[0], inst, hp))
            radius = radius_force(i, *state, inst, (0.0, 0.0), target, hp)
            pushed.append(radius.any())
            contributions.append(radius)
            assert total[i].tobytes() == resultant_force(contributions, hp).tobytes(), name
        assert sum(pushed) == (name in ("one outside", "past the edge")), name
        # A skipped push that would have turned -0.0 into +0.0 shows here.
        assert not np.signbit(total[total == 0.0]).any(), name


def test_assembly_is_search_independent_bitwise():
    rng = np.random.default_rng(16)
    hp = Hyperparameters()
    for _ in range(10):
        n = int(rng.integers(2, 80))
        state, inst = random_setup(rng, n, spread=6.0)
        target = float(rng.uniform(3.0, 10.0))
        naive = forces_of(state, inst, target, hp, all_pairs_contacts(state[0], inst.radii))
        sweep = forces_of(state, inst, target, hp)
        assert naive.tobytes() == sweep.tobytes()


def test_overlap_pushes_conserve_momentum_at_rest():
    # Mirror-symmetric swarm at rest, huge target: gravity and containment
    # terms are exactly zero, and paired pushes cancel.
    positions = np.array([[0.3, 0.1], [-0.3, -0.1], [0.9, -0.2], [-0.9, 0.2]])
    state = make_state(positions)
    inst = make_instance([1.0, 1.0, 1.0, 1.0])
    hp = Hyperparameters(f_max=1e9, v_max=3.0)
    total = forces_of(state, inst, 100.0, hp)
    assert np.abs(total.sum(axis=0)).max() <= 1e-9


def aligned_pushes(n_partners, v_max):
    # Circle 0 (radius 10, most of the mass) reaches x = 30, past a target
    # of 25, and moves outward at v_max, with small partners just beyond it
    # on a narrow arc, apart from each other. Its pushes and pull all point
    # nearly along -x, so its force comes close to the cap bound.
    angles = 0.12 * (np.arange(n_partners) - 0.5 * (n_partners - 1))
    partners = np.stack([20.0 + 10.2 * np.cos(angles), 10.2 * np.sin(angles)], axis=1)
    positions = np.vstack([[20.0, 0.0], partners])
    velocities = np.zeros_like(positions)
    velocities[0] = [v_max, 0.0]
    inst = make_instance([10.0] + [0.5] * n_partners, [100.0] + [1.0] * n_partners)
    return (positions, velocities), inst


def cap_flip(n_pairs, inst, v_max, alpha):
    # The smallest f_max at which _cap_cannot_bind skips the cap, by bisection.
    def skips(f_max):
        return forces._cap_cannot_bind(n_pairs, inst, Hyperparameters(f_max=f_max, v_max=v_max, alpha=alpha))

    lo, hi = 1.0, 1e6
    assert not skips(lo) and skips(hi)
    while np.nextafter(lo, np.inf) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if skips(mid) else (mid, hi)
    return hi


def test_the_cap_bound_gives_the_forces_of_the_full_cap(monkeypatch):
    # f_max a few ulps either side of where the bound starts to skip the
    # cap, on states whose largest force comes close to the bound, and on
    # random states whose speeds reach v_max: the forces must equal,
    # bitwise, those of the path that always takes the norms.
    v_max, alpha = 2.0, 11.0
    skipped = taken = 0
    cases = [(*aligned_pushes(k, v_max), 25.0) for k in (1, 2, 5)]
    rng = np.random.default_rng(22)
    for _ in range(12):
        state, inst = random_setup(rng, int(rng.integers(2, 30)), spread=2.0)
        speeds = np.hypot(*state[1].T)[:, None]
        cases.append(((state[0], state[1] / speeds * v_max * rng.uniform(0.5, 1.0)), inst, 3.0))
    for state, inst, target in cases:
        n_pairs = find_overlap_pairs(inst.radii, contact_pairs(state[0], inst.radii)).shape[0] // 2
        flip = cap_flip(n_pairs, inst, v_max, alpha)
        below = [flip]
        for _ in range(4):
            below.append(np.nextafter(below[-1], 0.0))
        above = [flip, *(flip + k * (np.nextafter(flip, np.inf) - flip) for k in (1, 2, 3))]
        for f_max in sorted(set(below + above)):
            hp = Hyperparameters(f_max=f_max, v_max=v_max, alpha=alpha)
            skips = forces._cap_cannot_bind(n_pairs, inst, hp)
            assert skips == (f_max >= flip)
            bounded = forces_of(state, inst, target, hp)
            with monkeypatch.context() as m:
                m.setattr(forces, "_cap_cannot_bind", lambda *args: False)
                full = forces_of(state, inst, target, hp)
            assert bounded.tobytes() == full.tobytes()
            skipped += skips
            taken += not skips
    # The aligned states come within 2% of the bound: each partner touches
    # circle 0 only.
    for state, inst, target in cases[:3]:
        hp = Hyperparameters(f_max=1e9, v_max=v_max, alpha=alpha)
        n_pairs = find_overlap_pairs(inst.radii, contact_pairs(state[0], inst.radii)).shape[0] // 2
        assert n_pairs == inst.n - 1
        top = np.hypot(*forces_of(state, inst, target, hp).T).max()
        assert top > 0.98 * cap_flip(n_pairs, inst, v_max, alpha)
    assert skipped and taken


def test_assembled_norms_respect_the_cap():
    rng = np.random.default_rng(17)
    hp = Hyperparameters(f_max=5.0)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        state, inst = random_setup(rng, n, spread=2.0)
        total = forces_of(state, inst, 1.0, hp)
        norms = np.sqrt((total ** 2).sum(axis=1))
        assert np.all(norms <= hp.f_max * (1 + 1e-12))


def test_a_row_whose_norm_overflows_is_capped_not_zeroed():
    # Pushes of 1e155 have finite components, but their norms overflow to
    # inf, and f_max / inf would zero both rows.
    inst = make_instance([1.0, 1.0])
    state = make_state([[-0.3, -0.4], [0.3, 0.4]])
    hp = Hyperparameters(v_max=1e155, f_max=1.0)
    with np.errstate(over="ignore"):
        total = forces_of(state, inst, 10.0, hp)
    assert np.all(np.abs(np.hypot(*total.T) - hp.f_max) <= 4 * np.spacing(hp.f_max))
    np.testing.assert_allclose(total, [[-0.6, -0.8], [0.6, 0.8]], rtol=1e-15)
