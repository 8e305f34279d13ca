"""File formats: matrix JSON, boundary CSV, report JSON lines, boundary SVG.

The matrix schema is {"n": <int>, "entries": [[[re, im], ...], ...]},
row-major, with re/im serialized as JSON numbers. Floats written by this
module round-trip bit exactly (shortest repr for JSON, 17 significant digits
for CSV).
"""

from __future__ import annotations

import json
from dataclasses import fields
from itertools import chain
from pathlib import Path

import numpy as np

from .linalg import as_matrix

__all__ = [
    "matrix_to_obj",
    "obj_to_matrix",
    "save_matrix",
    "load_matrix",
    "write_boundary_csv",
    "report_to_obj",
    "reports_to_jsonl",
    "search_result_to_obj",
    "write_boundary_svg",
]


def matrix_to_obj(a) -> dict:
    a = as_matrix(a)
    return {
        "n": int(a.shape[0]),
        "entries": [[[float(z.real), float(z.imag)] for z in row] for row in a],
    }


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _float_pairs(entries: list, n: int) -> bool:
    """True when every row is a list of n lists of two exact floats, the form
    JSON gives a matrix this module wrote. Anything else, such as ints, bools
    or ragged rows, takes the per-entry checks and their messages."""
    if set(map(type, entries)) != {list} or set(map(len, entries)) != {n}:
        return False
    pairs = list(chain.from_iterable(entries))
    return (set(map(type, pairs)) == {list} and set(map(len, pairs)) == {2}
            and set(map(type, chain.from_iterable(pairs))) == {float})


def obj_to_matrix(obj) -> np.ndarray:
    """Parse and validate the matrix schema; raises ValueError on any defect."""
    if not isinstance(obj, dict) or "n" not in obj or "entries" not in obj:
        raise ValueError("matrix object must carry 'n' and 'entries'")
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"'n' must be a positive integer, got {n!r}")
    entries = obj["entries"]
    if not isinstance(entries, list) or len(entries) != n:
        raise ValueError(f"'entries' must be a list of {n} rows")
    if _float_pairs(entries, n):
        out = np.array(entries, dtype=float).view(complex).reshape(n, n)
    else:
        out = np.empty((n, n), dtype=complex)
        for i, row in enumerate(entries):
            if not isinstance(row, list) or len(row) != n:
                raise ValueError(f"row {i} must be a list of {n} entries")
            for j, pair in enumerate(row):
                if not isinstance(pair, list) or len(pair) != 2 or not all(_is_number(v) for v in pair):
                    raise ValueError(f"entry ({i},{j}) must be a [re, im] number pair")
                try:
                    out[i, j] = complex(pair[0], pair[1])
                except OverflowError:
                    raise ValueError(f"entry ({i},{j}) is beyond the double range") from None
    if not np.all(np.isfinite(out)):
        raise ValueError("matrix entries must be finite")
    return out


def save_matrix(path, a) -> None:
    Path(path).write_text(json.dumps(matrix_to_obj(a)) + "\n", encoding="utf-8")


def load_matrix(path) -> np.ndarray:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from exc
    return obj_to_matrix(obj)


def write_boundary_csv(path, boundary) -> None:
    """CSV with header theta,re,im,support, one row per grid angle."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        rows = zip(boundary.thetas.tolist(), boundary.points.real.tolist(),
                   boundary.points.imag.tolist(), boundary.supports.tolist())
        fh.write("theta,re,im,support\n" + "".join(["%.17g,%.17g,%.17g,%.17g\n" % row for row in rows]))


def report_to_obj(rep) -> dict:
    """An InequalityReport's fields but scaled_slack, and refinement_flag only when set."""
    obj = {f.name: getattr(rep, f.name) for f in fields(rep) if f.name != "scaled_slack"}
    if rep.refinement_flag is None:
        del obj["refinement_flag"]
    return obj


def reports_to_jsonl(reports) -> str:
    return "".join(json.dumps(report_to_obj(rep)) + "\n" for rep in reports)


def search_result_to_obj(res) -> dict:
    return {
        "candidate": matrix_to_obj(res.candidate),
        "lambda": [float(res.lam.real), float(res.lam.imag)],
        "violations": {
            "norm_dev": res.norm_dev,
            "nilpotency": res.nilpotency,
            "disk_excess": res.disk_excess,
        },
        "score": res.score,
    }


def write_boundary_svg(path, summary) -> None:
    """Static 640 x 640 SVG 1.1 plot: boundary polygon plus circles of radius w and norm.

    The plot is scaled to the matrix, so 2^k A gives the same file as A. Only
    the zero matrix, whose extent is 0, gets the floor of 1e-12.
    """
    b = summary.boundary
    points = float(np.abs(b.points).max()) if len(b.points) else 0.0
    s = 1.15 * (max(summary.norm, summary.radius, points) or 1e-12)
    size = 640
    half = size / 2.0

    def px(z: complex) -> tuple[float, float]:
        return (half + z.real / s * half, half - z.imag / s * half)

    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in (px(z) for z in b.points))
    r_w = summary.radius / s * half
    r_n = summary.norm / s * half
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<line x1="0" y1="{half:.1f}" x2="{size}" y2="{half:.1f}" stroke="#bbbbbb" stroke-width="1"/>',
        f'<line x1="{half:.1f}" y1="0" x2="{half:.1f}" y2="{size}" stroke="#bbbbbb" stroke-width="1"/>',
        f'<circle cx="{half:.1f}" cy="{half:.1f}" r="{r_n:.2f}" fill="none" '
        f'stroke="#cc3333" stroke-dasharray="6 4" stroke-width="1.5"/>',
        f'<circle cx="{half:.1f}" cy="{half:.1f}" r="{r_w:.2f}" fill="none" '
        f'stroke="#3366cc" stroke-dasharray="2 3" stroke-width="1.5"/>',
        f'<polygon points="{pts}" fill="rgb(60,120,200)" fill-opacity="0.18" '
        f'stroke="#224477" stroke-width="1.5"/>',
        "</svg>",
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
