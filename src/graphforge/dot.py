"""Deterministic DOT rendering of materialized windows."""

from __future__ import annotations

from .analysis import BallView

PALETTE = [
    "lightblue", "lightsalmon", "palegreen", "plum", "khaki",
    "lightpink", "lightgray", "aquamarine", "wheat", "thistle",
]


def export_dot(view: BallView, name="window", cut_orbits=()) -> str:
    """Vertices labeled by orbit and representative, colored per orbit; cut
    vertices double-circled.  Output is byte-deterministic."""
    orbit_ids = dict.fromkeys(elem.orbit_id for elem in view.elems)
    color = {oid: PALETTE[i % len(PALETTE)] for i, oid in enumerate(orbit_ids)}
    lines = [f"graph \"{name}\" {{", "  node [style=filled];"]
    for i, elem in enumerate(view.elems):
        oid = elem.orbit_id
        shape = "doublecircle" if oid in cut_orbits else "ellipse"
        lines.append(
            f"  n{i} [label=\"{oid}|{elem.rep}\", fillcolor={color[oid]}, "
            f"shape={shape}];"
        )
    for (i, j), oid in sorted(zip(view.edge_ends, view.edge_orbit)):
        lines.append(f"  n{i} -- n{j} [label=\"{oid}\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"
