"""Independent reference computations used by the test suite.

Each function recomputes a quantity along a path disjoint from the library
implementation: areas by counting uniform samples, and one pair at a time
in Python floats with libm's acos; gradients by central differences,
schedule values from the decay law in its power arrangement, forces one
circle and one contribution at a time, contacts by testing every pair,
milestones one record at a time, trace CSVs one csv.writer row at a time.
Keep these free of swarmpack imports so a bug cannot leak into its own check.
"""

import csv
import io
import math

import numpy as np


def mc_lens_area(d, r_a, r_b, n_samples=10_000_000, seed=0, chunk=2_500_000):
    """Monte-Carlo estimate of the overlap area of disks at (0,0) and (d,0).

    Samples uniformly over the tight bounding box of the lens itself, so the
    hit fraction stays around 0.6-0.8 in every regime (thin slivers included)
    and 1e7 samples give roughly 2.5e-4 relative sigma.
    """
    if d >= r_a + r_b:
        return 0.0
    if d <= abs(r_a - r_b):
        # Lens is the smaller disk; box that disk.
        r = min(r_a, r_b)
        cx = 0.0 if r_a <= r_b else d
        x_lo, x_hi = cx - r, cx + r
        y_max = r
    else:
        x_lo, x_hi = d - r_b, r_a
        if d * d + r_a * r_a <= r_b * r_b:
            y_max = r_a          # top of disk a lies inside disk b
        elif d * d + r_b * r_b <= r_a * r_a:
            y_max = r_b          # top of disk b lies inside disk a
        else:
            x_chord = (d * d + r_a * r_a - r_b * r_b) / (2.0 * d)
            y_max = math.sqrt(max(r_a * r_a - x_chord * x_chord, 0.0))

    box_area = (x_hi - x_lo) * 2.0 * y_max
    rng = np.random.default_rng(seed)
    hits = 0
    left = int(n_samples)
    while left > 0:
        k = min(chunk, left)
        x = x_lo + (x_hi - x_lo) * rng.random(k)
        y = -y_max + 2.0 * y_max * rng.random(k)
        inside = (x * x + y * y <= r_a * r_a) & ((x - d) ** 2 + y * y <= r_b * r_b)
        hits += int(np.count_nonzero(inside))
        left -= k
    return box_area * hits / n_samples


def lens_area_by_libm(d, r_a, r_b):
    """Lens area of disks r_a and r_b whose centres lie d < r_a + r_b apart, in Python floats.

    One pair at a time with ``math.acos`` and ``math.sqrt``, in the lens
    kernel's order of operations: each disk's cosine clipped to [-1, 1],
    the two sectors, the Heron-style root, then ``- 0.5 * root``. A
    contained pair (d <= |r_a - r_b|) overlaps in the smaller disk. Every
    step is one correctly rounded operation or a libm call, so the kernel
    must equal this bitwise.
    """
    if d <= abs(r_a - r_b):
        r = min(r_a, r_b)
        return math.pi * (r * r)
    sectors = []
    for r, other in ((r_a, r_b), (r_b, r_a)):
        cos = (d * d + r * r - other * other) / ((2.0 * d) * r)
        cos = max(min(cos, 1.0), -1.0)
        sectors.append(r * r * math.acos(cos))
    d_a = d + r_a
    f_a, f_b, f_c, f_d = r_a + r_b - d, d_a - r_b, d - r_a + r_b, d_a + r_b
    tri = f_a * f_b * f_c * f_d
    if tri == math.inf:
        root = math.sqrt(max(f_a * f_b, 0.0)) * math.sqrt(max(f_c * f_d, 0.0))
    else:
        root = math.sqrt(max(tri, 0.0))
    return sectors[0] + sectors[1] - 0.5 * root


def fd_cg_gradient(i, positions, masses, step=1e-6):
    """Central finite differences of the gravity-center distance in p_i."""
    positions = np.asarray(positions, dtype=float)
    masses = np.asarray(masses, dtype=float)
    total = masses.sum()

    def h(pts):
        cg = (masses[:, None] * pts).sum(axis=0) / total
        return math.hypot(cg[0], cg[1])

    grad = np.zeros(2)
    for axis in range(2):
        hi = positions.copy()
        lo = positions.copy()
        hi[i, axis] += step
        lo[i, axis] -= step
        grad[axis] = (h(hi) - h(lo)) / (2.0 * step)
    return grad


def all_pairs_contacts(positions, radii, skin=0.0):
    """Every pair i < j with d < r_i + r_j + skin, as (i, j, d, reach) sorted by (i, j).

    ``reach`` is each pair's radius sum r_i + r_j, without the skin. Tests
    all N(N-1)/2 pairs with the library's distance arithmetic, so the
    sweep's contacts must equal these bitwise.
    """
    p = np.asarray(positions, dtype=float)
    r = np.asarray(radii, dtype=float)
    i, j = np.triu_indices(p.shape[0], k=1)
    diff = p[j] - p[i]
    d = np.sqrt(diff[:, 0] ** 2 + diff[:, 1] ** 2)
    reach = r[i] + r[j]
    hit = d < reach + skin
    return i[hit], j[hit], d[hit], reach[hit]


# Per-circle force formulas, one contribution at a time, as written in the
# paper. The library assembles all circles at once; the arithmetic per
# element matches, so the two agree bitwise. The 1e-12 slacks mirror the
# library's OVERLAP_TRIGGER_EPS and CONTAINMENT_EPS, and the 1e-9 distance
# guard its EPSILON. Positions and velocities are (N, 2) arrays.

def overlap_force(i, j, positions, velocities, instance, hp):
    """Separation push on circle i from partner j; zero unless they overlap."""
    if i == j:
        raise ValueError("a circle does not repel itself")
    delta = positions[j] - positions[i]
    dist = math.sqrt(delta[0] * delta[0] + delta[1] * delta[1])
    if not dist < instance.radii[i] + instance.radii[j] - 1e-12:
        return np.zeros(2)
    return -(delta / (dist + 1e-9)) * hp.v_max - velocities[i]


def cg_force(i, positions, instance, hp):
    """Constant-magnitude pull steering the gravity center onto the origin."""
    m = np.asarray(instance.masses, dtype=float)
    cg = (m[:, None] * positions).sum(axis=0) / m.sum()
    norm = math.sqrt(cg[0] * cg[0] + cg[1] * cg[1])
    if norm < 1e-9:
        return np.zeros(2)
    return -hp.alpha * ((m[i] / m.sum()) * (cg / norm))


def radius_force(i, positions, velocities, instance, container_center, target_radius, hp):
    """Containment push on circle i; zero while it sits inside the target disk."""
    c = np.asarray(container_center, dtype=float).reshape(2)
    delta = c - positions[i]
    dist = math.sqrt(delta[0] * delta[0] + delta[1] * delta[1])
    if dist + instance.radii[i] <= target_radius + 1e-12:
        return np.zeros(2)
    return (delta / (dist + 1e-9)) * hp.v_max - velocities[i]


def resultant_force(contributions, hp):
    """Sum the contributions in the order given and cap the norm at f_max."""
    total = np.zeros(2)
    for f in contributions:
        total = total + np.asarray(f, dtype=float)
    norm = math.sqrt(total[0] * total[0] + total[1] * total[1])
    if norm >= hp.f_max:
        total = total * (hp.f_max / norm)
    return total


def schedule_step_reference(t, n_it, s_max, s_min, c):
    """Decay law via the power identity exp(t*ln(1/x)) == x**(-t)."""
    return s_min + (s_max - s_min) * (1.0 + c / n_it) ** (-t)


def milestones_by_walk(actual_radius, final_radius, thresholds):
    """First 1-based iteration whose best-so-far radius is within (1+p)*final, per p.

    Walks the rows once per threshold; a NaN radius marks an infeasible row.
    None where the threshold is never reached.
    """
    out = {}
    for p in thresholds:
        bar = (1.0 + p) * final_radius
        best = math.inf
        hit = None
        for iteration, radius in enumerate(actual_radius, start=1):
            if not math.isnan(radius) and radius < best:
                best = radius
            if best <= bar:
                hit = iteration
                break
        out[str(float(p))] = hit
    return out


def trace_csv_by_rows(header, columns, actual_cell):
    """A trace CSV built one csv.writer row per iteration, header included.

    Row k (from 1) holds k, the k-th value of each column as a Python float
    repr (a NaN leaves its cell empty), and ``feasible``: "true" when the
    cell at ``actual_cell`` among the values is set.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for iteration, values in enumerate(zip(*(np.asarray(c).tolist() for c in columns)), start=1):
        cells = ["" if math.isnan(value) else repr(value) for value in values]
        writer.writerow((iteration, *cells, "true" if cells[actual_cell] else "false"))
    return buffer.getvalue()


# Frozen reference values (computed once from the oracles above).
# schedule_step_reference(1000, 1000, 10.0, 0.1, 5.0):
SCHEDULE_T1000_REFERENCE = 0.16754192560138112
# Closed-form lens area of unit disks with centers one apart,
# 2*pi/3 - sqrt(3)/2:
UNIT_PAIR_LENS_AREA = 1.2283696986087568
