"""Flat SVG rendering of a packed layout."""

from __future__ import annotations

import numpy as np

from .model import ProblemInstance


def _ramp_color(mass: float, m_lo: float, m_hi: float) -> str:
    # White at the lightest mass, fully saturated red at the heaviest;
    # a single-mass instance renders uniformly red.
    t = 1.0 if m_hi <= m_lo else (mass - m_lo) / (m_hi - m_lo)
    level = int(round(255.0 * (1.0 - t)))
    return f"rgb(255,{level},{level})"


def _escape(text: str) -> str:
    # XML character data. xml.sax.saxutils.escape does the same, but its
    # import pulls in urllib.request and adds about 5 MB to every process
    # that imports the CLI.
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def export_svg(instance: ProblemInstance, positions, container_radius: float) -> bytes:
    """Layout as standalone SVG bytes: dashed container, mass ramp, CG cross; numbers are float reprs.

    The one renderer of ``solve --out-svg`` and ``export``; ``positions`` are centered on the gravity center.
    """
    big = float(container_radius)
    view = big * 1.06
    stroke = big * 0.004
    cross = big * 0.04
    masses = instance.masses.tolist()
    m_lo, m_hi = min(masses), max(masses)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{-view!r} {-view!r} {2 * view!r} {2 * view!r}">',
        f"<title>{_escape(instance.name)}</title>",
        f'<circle cx="0" cy="0" r="{big!r}" fill="none" stroke="black" '
        f'stroke-width="{stroke!r}" stroke-dasharray="{4 * stroke!r} {3 * stroke!r}"/>',
    ]
    for (x, y), radius, mass in zip(np.asarray(positions, dtype=float).tolist(), instance.radii.tolist(), masses):
        parts.append(
            f'<circle cx="{x!r}" cy="{y!r}" r="{radius!r}" '
            f'fill="{_ramp_color(mass, m_lo, m_hi)}" '
            f'stroke="#444" stroke-width="{stroke!r}"/>'
        )
    # Gravity-center cross at the origin.
    parts.append(f'<line x1="{-cross!r}" y1="0" x2="{cross!r}" y2="0" stroke="blue" stroke-width="{stroke * 1.5!r}"/>')
    parts.append(f'<line x1="0" y1="{-cross!r}" x2="0" y2="{cross!r}" stroke="blue" stroke-width="{stroke * 1.5!r}"/>')
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")

