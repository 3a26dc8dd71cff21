"""Forward-data file formats: x-ray and Radon-profile CSV, and RadonProfile.

The forward data themselves come from the phantom closed forms
(phantom.halfline_integral, inversion.build_radon_dataset); this module
writes them to disk and reads a profile back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import grid_slack
from .inversion import RadonDataset


@dataclass(frozen=True)
class RadonProfile:
    """Sampled plane-integral profile s -> Rf(n, s) for one plane normal n.

    The one-row case of inversion.RadonDataset, whose checks it makes: a
    unit normal, at least 8 finite samples and s_max > s_min.
    """

    n: np.ndarray
    s_min: float
    s_max: float
    values: np.ndarray

    def __post_init__(self):
        n, values = np.asarray(self.n, dtype=float), np.asarray(self.values, dtype=float)
        data = RadonDataset(n[None], self.s_min, self.s_max, values.reshape(1, -1))
        object.__setattr__(self, "n", data.nodes[0])
        object.__setattr__(self, "s_min", data.s_min)
        object.__setattr__(self, "s_max", data.s_max)
        object.__setattr__(self, "values", data.values[0])


# --- CSV export -------------------------------------------------------------
#
# Every number is written as %.17g, which round-trips a float64 exactly, so
# read_profile_csv returns the written arrays bit for bit.  The writers
# format each distinct number once and fill a template per point or profile
# with one %-format over that row's values, converted to Python floats one
# row at a time so the whole array never exists as float objects.


def _triples(rows):
    return ["%.17g,%.17g,%.17g" % tuple(r) for r in rows.tolist()]


def write_xray_csv(path, points, nodes, values):
    """X-ray data on every (point, node) pair: columns x1,x2,x3,n1,n2,n3,value.

    points has shape (P, 3), nodes (K, 3) and values (P, K), values[i, k]
    being the transform at points[i] along nodes[k].  Rows are point-major:
    the K nodes of the first point, then those of the next.
    """
    points = np.asarray(points, dtype=float)
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    if (
        points.ndim != 2
        or points.shape[1] != 3
        or nodes.ndim != 2
        or nodes.shape[1] != 3
        or values.shape != (points.shape[0], nodes.shape[0])
    ):
        raise ValueError("inconsistent x-ray batch shapes")
    # Joined with "x1,x2,x3,", the leading "" puts the point before each row.
    tails = [""] + [f"{n},%.17g\n" for n in _triples(nodes)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x1,x2,x3,n1,n2,n3,value\n")
        for x, row in zip(_triples(points), values):
            fh.write(f"{x},".join(tails) % tuple(row.tolist()))


def write_profiles_csv(paths, nodes, s_min, s_max, values):
    """Radon profiles, one file each: normal header, then s,value rows.

    values has shape (K, S), row k sampled at S equally spaced offsets
    from s_min to s_max and written to paths[k] with normal nodes[k].
    """
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    if nodes.ndim != 2 or nodes.shape[1] != 3 or values.ndim != 2 or values.shape[0] != nodes.shape[0]:
        raise ValueError("inconsistent profile dataset shapes")
    if len(paths) != nodes.shape[0]:
        raise ValueError(f"{len(paths)} paths for {nodes.shape[0]} profiles")
    s = np.linspace(s_min, s_max, values.shape[1])
    rows = "".join("%.17g,%%.17g\n" % v for v in s.tolist())
    for path, n, row in zip(paths, _triples(nodes), values):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"n1,n2,n3\n{n}\ns,value\n")
            fh.write(rows % tuple(row.tolist()))


def read_profile_csv(path):
    """One file of write_profiles_csv as a RadonProfile; a malformed file raises ValueError.

    The s column must be finite and uniform: within hilbert.grid_slack(s[0], s[-1])
    of linspace(s[0], s[-1], S), which a file of write_profiles_csv meets exactly.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [t for ln in fh if (t := ln.strip())]
    if len(lines) < 4 or lines[0] != "n1,n2,n3" or lines[2] != "s,value":
        raise ValueError(f"{path}: not a radon profile CSV")
    try:
        n = np.array([float(v) for v in lines[1].split(",")])
        # comments=None: a "#" in a row is a parse error, not a comment.
        rows = np.loadtxt(lines[3:], delimiter=",", ndmin=2, comments=None)
        if rows.shape[1] != 2:
            raise ValueError("expected s,value rows")
        s = rows[:, 0]
        if not np.all(np.isfinite(s)):
            raise ValueError("s column must be finite")
        # a span that overflows gives NaN steps and fails
        with np.errstate(over="ignore", invalid="ignore"):
            uniform = np.abs(s - np.linspace(s[0], s[-1], s.size)) <= grid_slack(s[0], s[-1])
        if not np.all(uniform):
            raise ValueError("s column is not a uniform grid from its first to its last value")
        return RadonProfile(n=n, s_min=float(s[0]), s_max=float(s[-1]), values=rows[:, 1])
    except ValueError as exc:
        raise ValueError(f"{path}: malformed radon profile CSV: {exc}") from exc
