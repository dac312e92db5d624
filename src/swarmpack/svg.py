"""Flat SVG rendering of a packed layout."""

from __future__ import annotations

import numpy as np

from .model import SolveResult


class ExportError(RuntimeError):
    """Rendering was asked for a run that has no feasible layout."""


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


def render_svg(name, positions, radii, masses, container_radius) -> bytes:
    """Layout as standalone SVG bytes: dashed container, mass ramp, CG cross."""
    p = np.asarray(positions, dtype=float)
    r = np.asarray(radii, dtype=float)
    m = np.asarray(masses, dtype=float)
    big = float(container_radius)
    view = big * 1.06
    stroke = big * 0.004
    cross = big * 0.04

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{-view:.4f} {-view:.4f} {2*view:.4f} {2*view:.4f}">',
        f"<title>{_escape(name)}</title>",
        f'<circle cx="0" cy="0" r="{big!r}" fill="none" stroke="black" '
        f'stroke-width="{stroke:.4f}" stroke-dasharray="{4*stroke:.4f} {3*stroke:.4f}"/>',
    ]
    m_lo, m_hi = float(np.min(m)), float(np.max(m))
    for k in range(p.shape[0]):
        parts.append(
            f'<circle cx="{p[k, 0]!r}" cy="{p[k, 1]!r}" r="{r[k]!r}" '
            f'fill="{_ramp_color(float(m[k]), m_lo, m_hi)}" '
            f'stroke="#444" stroke-width="{stroke:.4f}"/>'
        )
    # Gravity-center cross at the origin.
    parts.append(
        f'<line x1="{-cross:.4f}" y1="0" x2="{cross:.4f}" y2="0" '
        f'stroke="blue" stroke-width="{stroke * 1.5:.4f}"/>'
    )
    parts.append(
        f'<line x1="0" y1="{-cross:.4f}" x2="0" y2="{cross:.4f}" '
        f'stroke="blue" stroke-width="{stroke * 1.5:.4f}"/>'
    )
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")


def export_svg(result: SolveResult) -> bytes:
    """Render a solve result; the layout is already centered on its CG."""
    if not result.feasible or result.best_positions is None:
        raise ExportError(f"run on {result.instance.name!r} has no feasible layout to render")
    return render_svg(
        result.instance.name,
        result.best_positions,
        result.instance.radii,
        result.instance.masses,
        result.best_radius,
    )
