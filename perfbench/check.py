"""Independent layout check for solver results.

Deliberately shares no code with ``swarmpack.geometry``: distances, lens
areas and the gravity centre are recomputed here in plain Python, so a bug
that the library's own geometry would hide still fails the check.
"""

from __future__ import annotations

import hashlib
import math

# The library's documented default: 1e-6 times the smallest circle's area.
OVERLAP_TOL_FACTOR = 1e-6
# Slack on "every circle fits inside best_radius about the gravity centre".
RADIUS_SLACK = 1e-9
# The gravity centre must sit at the origin up to rounding of the final
# translation, relative to the container radius.
CENTRE_REL_TOL = 1e-9


def lens_area(d: float, ra: float, rb: float) -> float:
    """Overlap area of two disks whose centres are ``d`` apart."""
    if d >= ra + rb:
        return 0.0
    if d <= abs(ra - rb):
        small = min(ra, rb)
        return math.pi * small * small
    cos_a = max(-1.0, min(1.0, (d * d + ra * ra - rb * rb) / (2.0 * d * ra)))
    cos_b = max(-1.0, min(1.0, (d * d + rb * rb - ra * ra) / (2.0 * d * rb)))
    kite = (-d + ra + rb) * (d + ra - rb) * (d - ra + rb) * (d + ra + rb)
    return ra * ra * math.acos(cos_a) + rb * rb * math.acos(cos_b) - 0.5 * math.sqrt(max(kite, 0.0))


def check_layout(positions, radii, masses, best_radius, expected_radii, expected_masses) -> list[str]:
    """Problems with one returned layout; an empty list means it passes.

    ``radii``/``masses`` are what the result claims, ``expected_*`` what the
    benchmark fed in.
    """
    problems = []
    radii = [float(r) for r in radii]
    masses = [float(m) for m in masses]
    if radii != [float(r) for r in expected_radii] or masses != [float(m) for m in expected_masses]:
        problems.append("radii or masses differ from the instance")
    if positions is None or best_radius is None:
        return problems + ["no feasible layout"]
    pts = [(float(x), float(y)) for x, y in positions]
    n = len(radii)
    if len(pts) != n or len(masses) != n:
        return problems + [f"{len(pts)} positions for {n} circles"]
    if not all(math.isfinite(v) for p in pts for v in p) or not (math.isfinite(best_radius) and best_radius > 0.0):
        return problems + ["non-finite layout or radius"]

    overlap = 0.0
    for i in range(n):
        xi, yi = pts[i]
        for j in range(i + 1, n):
            overlap += lens_area(math.hypot(pts[j][0] - xi, pts[j][1] - yi), radii[i], radii[j])
    tol = OVERLAP_TOL_FACTOR * math.pi * min(radii) ** 2
    if overlap > tol:
        problems.append(f"summed overlap {overlap!r} exceeds {tol!r}")

    total_mass = math.fsum(masses)
    cx = math.fsum(m * p[0] for m, p in zip(masses, pts)) / total_mass
    cy = math.fsum(m * p[1] for m, p in zip(masses, pts)) / total_mass
    if math.hypot(cx, cy) > CENTRE_REL_TOL * best_radius:
        problems.append(f"gravity centre ({cx!r}, {cy!r}) is off the origin")
    reach = max(math.hypot(p[0] - cx, p[1] - cy) + r for p, r in zip(pts, radii))
    if reach > best_radius + RADIUS_SLACK:
        problems.append(f"a circle reaches {reach!r}, beyond best_radius {best_radius!r}")
    return problems


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
