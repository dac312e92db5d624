import numpy as np
import pytest

from swarmpack import geometry
from swarmpack.geometry import GRID_AUTO_THRESHOLD, center_of_gravity, cg_violation, contact_pairs, total_overlap
from swarmpack.forces import assemble_forces, cg_gradient, find_overlap_pairs
from swarmpack.model import Hyperparameters, ProblemInstance, SwarmState

from oracles import cg_force, fd_cg_gradient, overlap_force, radius_force, resultant_force


def make_state(positions, velocities=None):
    p = np.asarray(positions, dtype=float)
    v = np.zeros_like(p) if velocities is None else np.asarray(velocities, dtype=float)
    return SwarmState(positions=p, velocities=v)


def make_instance(radii, masses=None):
    r = np.asarray(radii, dtype=float)
    m = np.ones_like(r) if masses is None else np.asarray(masses, dtype=float)
    return ProblemInstance("t", radii=r, masses=m)


def random_setup(rng, n, spread=4.0):
    state = make_state(rng.uniform(-spread, spread, (n, 2)), rng.uniform(-1, 1, (n, 2)))
    inst = make_instance(rng.uniform(0.4, 2.0, n), rng.uniform(1.0, 100.0, n))
    return state, inst


def forces_of(state, inst, target, hp, contacts=None):
    # assemble_forces on the layout's own contacts and gravity center, as solve calls it.
    if contacts is None:
        contacts = contact_pairs(state.positions, inst.radii)
    return assemble_forces(state, inst, target, hp, contacts, center_of_gravity(state.positions, inst.masses))


# ---------------------------------------------------------------- pair finding

SEARCHES = ("all pairs", "cell list")


def contacts_by(search, positions, radii):
    # contact_pairs forced onto one search by moving the size threshold.
    threshold = len(radii) + 1 if search == "all pairs" else 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "GRID_AUTO_THRESHOLD", threshold)
        return contact_pairs(positions, radii)


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


def test_pairs_are_directed_and_lexsorted():
    positions = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.5], [9.0, 9.0]])
    radii = np.array([1.0, 1.0, 1.0, 1.0])
    pairs = overlap_pairs(positions, radii)
    assert pairs.tolist() == [[0, 1], [0, 2], [1, 0], [1, 2], [2, 0], [2, 1]]


def broad_phase_layouts():
    rng = np.random.default_rng(10)
    for _ in range(40):
        n = int(rng.integers(2, 120))
        spread = float(rng.uniform(1.0, 30.0))
        yield rng.uniform(-spread, spread, (n, 2)), rng.uniform(0.2, 3.0, n)
    for n in (1, 2, GRID_AUTO_THRESHOLD - 1, GRID_AUTO_THRESHOLD, GRID_AUTO_THRESHOLD + 1, 300):
        for spread in (0.5, 4.0):  # dense, loose
            half = spread * np.sqrt(n)
            yield rng.uniform(-half, half, (n, 2)), rng.uniform(0.5, 1.5, n)
    yield np.zeros((5, 2)), np.ones(5)
    yield np.array([[0.0, 0.0], [np.nan, 1.0], [0.5, 0.0], [np.inf, 0.0]]), np.ones(4)
    # Far spread: clusters at coordinates up to 1e12 with unit radii, where a
    # flattened int64 cell id would overflow and p / cell rounds coarsely.
    clusters = np.repeat(rng.uniform(-1e12, 1e12, (40, 2)), 6, axis=0)
    yield clusters + rng.uniform(-2.2, 2.2, clusters.shape), np.ones(clusters.shape[0])


def test_grid_and_naive_agree_on_random_states():
    for positions, radii in broad_phase_layouts():
        naive, grid = (contacts_by(search, positions, radii) for search in SEARCHES)
        for a, b in zip(naive, grid):
            assert a.tobytes() == b.tobytes()
        assert total_overlap(positions, radii, contacts=grid) == total_overlap(positions, radii, contacts=naive)
        pairs = find_overlap_pairs(radii, naive)
        assert find_overlap_pairs(radii, grid).tobytes() == pairs.tobytes()


def test_grid_handles_coincident_centers():
    positions = np.zeros((5, 2))
    radii = np.full(5, 1.0)
    naive, grid = (find_overlap_pairs(radii, contacts_by(search, positions, radii)) for search in SEARCHES)
    assert naive.tobytes() == grid.tobytes()
    assert naive.shape[0] == 5 * 4


def test_pair_search_follows_the_size_threshold(monkeypatch):
    # The cell list runs from GRID_AUTO_THRESHOLD circles up, all pairs below.
    sizes = []
    monkeypatch.setattr(geometry, "_cell_list_contacts", lambda p, r: sizes.append(len(p)))
    for n in (GRID_AUTO_THRESHOLD - 1, GRID_AUTO_THRESHOLD):
        contact_pairs(np.zeros((n, 2)), np.ones(n))
    assert sizes == [GRID_AUTO_THRESHOLD]


# ------------------------------------------------- per-circle formulas (oracles)

def test_overlap_force_pushes_apart_at_v_max():
    state = make_state([[0.0, 0.0], [1.0, 0.0]])
    inst = make_instance([1.0, 1.0])
    hp = Hyperparameters(v_max=5.0, epsilon=1e-9)
    force = overlap_force(0, 1, state, inst, hp)
    assert force == pytest.approx([-5.0, 0.0], abs=1e-6)
    # Newton pair at rest: the partner feels the exact opposite.
    assert np.array_equal(overlap_force(1, 0, state, inst, hp), -force)


def test_overlap_force_subtracts_own_velocity():
    state = make_state([[0.0, 0.0], [1.0, 0.0]], [[1.0, 1.0], [0.0, 0.0]])
    inst = make_instance([1.0, 1.0])
    hp = Hyperparameters(v_max=5.0, epsilon=1e-9)
    unit_push = overlap_force(0, 1, make_state([[0.0, 0.0], [1.0, 0.0]]), inst, hp)
    force = overlap_force(0, 1, state, inst, hp)
    assert force == pytest.approx(unit_push - np.array([1.0, 1.0]), rel=1e-15)


def test_overlap_force_zero_without_overlap_and_rejects_self():
    state = make_state([[0.0, 0.0], [2.0, 0.0]])
    inst = make_instance([1.0, 1.0])
    hp = Hyperparameters()
    assert not overlap_force(0, 1, state, inst, hp).any()
    with pytest.raises(ValueError):
        overlap_force(2, 2, state, inst, hp)


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
    assert not cg_gradient(0, positions, masses, epsilon=1e-9).any()


def test_cg_force_is_scaled_negative_gradient():
    rng = np.random.default_rng(13)
    state, inst = random_setup(rng, 8)
    hp = Hyperparameters(alpha=40.0)
    for i in range(8):
        expected = -hp.alpha * cg_gradient(i, state.positions, inst.masses, epsilon=hp.epsilon)
        assert np.array_equal(cg_force(i, state, inst, hp), expected)


def test_radius_force_only_acts_outside_the_target():
    inst = make_instance([1.0])
    hp = Hyperparameters(v_max=2.0, epsilon=1e-9)
    inside = make_state([[1.0, 1.0]])
    assert not radius_force(0, inside, inst, (0.0, 0.0), 5.0, hp).any()
    # Far edge exactly on the boundary still counts as contained.
    on_boundary = make_state([[4.0, 0.0]])
    assert not radius_force(0, on_boundary, inst, (0.0, 0.0), 5.0, hp).any()
    outside = make_state([[6.0, 0.0]])
    force = radius_force(0, outside, inst, (0.0, 0.0), 5.0, hp)
    assert force == pytest.approx([-2.0, 0.0], abs=1e-6)


def test_radius_force_subtracts_velocity_and_respects_center():
    inst = make_instance([1.0])
    hp = Hyperparameters(v_max=2.0)
    moving = make_state([[6.0, 0.0]], [[0.5, -0.25]])
    force = radius_force(0, moving, inst, (0.0, 0.0), 5.0, hp)
    assert force == pytest.approx([-2.5, 0.25], abs=1e-6)
    # A circle sitting on the container center has no push direction; only
    # the damping term remains.
    centered = make_state([[3.0, 3.0]], [[0.5, 0.5]])
    force = radius_force(0, centered, inst, (3.0, 3.0), 0.5, hp)
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
            contributions = [overlap_force(i, j, state, inst, hp) for j in range(n) if j != i]
            contributions.append(cg_force(i, state, inst, hp))
            contributions.append(radius_force(i, state, inst, (0.0, 0.0), target, hp))
            assert np.array_equal(total[i], resultant_force(contributions, hp))


def test_assembly_is_search_independent_bitwise():
    rng = np.random.default_rng(16)
    hp = Hyperparameters()
    for _ in range(10):
        n = int(rng.integers(2, 80))
        state, inst = random_setup(rng, n, spread=6.0)
        target = float(rng.uniform(3.0, 10.0))
        naive, grid = (
            forces_of(state, inst, target, hp, contacts_by(search, state.positions, inst.radii)) for search in SEARCHES
        )
        assert naive.tobytes() == grid.tobytes()


def test_overlap_pushes_conserve_momentum_at_rest():
    # Mirror-symmetric swarm at rest, huge target: gravity and containment
    # terms are exactly zero, and paired pushes cancel.
    positions = np.array([[0.3, 0.1], [-0.3, -0.1], [0.9, -0.2], [-0.9, 0.2]])
    state = make_state(positions)
    inst = make_instance([1.0, 1.0, 1.0, 1.0])
    hp = Hyperparameters(f_max=1e9, v_max=3.0)
    total = forces_of(state, inst, 100.0, hp)
    assert np.abs(total.sum(axis=0)).max() <= 1e-9


def test_assembled_norms_respect_the_cap():
    rng = np.random.default_rng(17)
    hp = Hyperparameters(f_max=5.0)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        state, inst = random_setup(rng, n, spread=2.0)
        total = forces_of(state, inst, 1.0, hp)
        norms = np.sqrt((total ** 2).sum(axis=1))
        assert np.all(norms <= hp.f_max * (1 + 1e-12))
