"""`subdiv`: `regular_subdivision` on seeded heights.

Per round: over the (3, 2) and (2, 2) triangles, heights drawn from the
relative interiors of random faces of the alcove-triangulation secondary
cone plus a random affine function (their paving is known by
construction), and heights drawn uniformly as the acceptance suite's
random-height oracle draws them (mostly degenerate, where `NotAPaving`
is the documented answer); plus uniform heights on intervals, n = 1.
"""

from __future__ import annotations

import random
from fractions import Fraction

from alcove import AlcoveCone, lattice_points, tiling_problem
from exact import convex_hull, lower_facets, lower_hull_breaks

import chtoucakit.pavings as pv
import chtoucakit.simplex_core as sc
from chtoucakit.errors import NotAPaving

# (r, n, kind, count) per round. Faces are drawn with their dimensions
# cycling through every value, so a round's make-up does not depend on
# the seed. The uniform (3, 2) heights, which cost about the same each,
# sit between the cheaper and the dearer heights in equal numbers, so
# that op_p50_ms reads one of them.
MIX = (
    (3, 2, "face", 16),
    (3, 2, "uniform", 24),
    (2, 2, "face", 8),
    (2, 2, "uniform", 4),
    (3, 1, "uniform", 1),
    (4, 1, "uniform", 1),
    (5, 1, "uniform", 1),
    (6, 1, "uniform", 1),
)
DEGENERATE = "NotAPaving"


def uniform_value(rng) -> Fraction:
    return Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 4)))


class Workload:
    def __init__(self, seed: int, tmpdir: str):
        rng = random.Random(seed)
        cones = {2: AlcoveCone(2), 3: AlcoveCone(3)}
        self.cases = []  # (r, n, height dict, expected paving or None)
        for r, n, kind, count in MIX:
            pts = lattice_points(r, n)
            for k in range(count):
                if kind == "face":
                    cone = cones[r]
                    face = rng.choice([f for f in cone.faces if f.dim == k % (cone.dim + 1)])
                    a = [Fraction(rng.randint(-20, 20), rng.choice((1, 2))) for _ in range(3)]
                    h = {p: sum((ai * x for ai, x in zip(a, p)), Fraction(0)) for p in pts}
                    for i in sorted(face.rays):
                        c = Fraction(rng.randint(1, 9), rng.choice((1, 2, 3)))
                        for p, v in cone.ray_height(cone.rays[i]).items():
                            h[p] += c * v
                    expected = face.paving
                else:
                    h = {p: uniform_value(rng) for p in pts}
                    expected = None
                self.cases.append((r, n, h, expected))
        self.heights = [sc.LatticeFunction.from_map(r, n, h) for r, n, h, _ in self.cases]

    def ops(self):
        def subdivide(h):
            try:
                return pv.regular_subdivision(h)
            except NotAPaving:
                return DEGENERATE

        return [("regular_subdivision", lambda h=h: subdivide(h)) for h in self.heights]

    def check(self, results) -> list[str]:
        problems = []
        for k, ((r, n, h, expected), out) in enumerate(zip(self.cases, results)):
            if out is None:
                continue
            fault = self._fault(r, n, h, expected, out)
            if fault:
                problems.append(f"height {k} on ({r},{n}): {fault}")
        return problems

    @staticmethod
    def _fault(r, n, h, expected, out):
        if n == 1:
            values = [h[(r - x, x)] for x in range(r + 1)]
            breaks = lower_hull_breaks(values)
            expected = frozenset(
                frozenset((r - x, x) for x in range(a, b + 1)) for a, b in zip(breaks, breaks[1:])
            )
        if out == DEGENERATE:
            if expected is not None:
                return "NotAPaving for a height with a known paving"
            return None if non_alcoved_facet(r, h) else "NotAPaving, yet every lower facet is alcoved"
        paving = frozenset(frozenset(pave.points) for pave in out.paves)
        if expected is not None and paving != expected:
            return "paving differs from the constructed one"
        if n == 2:
            return certificate_problem(r, h, paving)
        return None


def non_alcoved_facet(r: int, h: dict) -> bool:
    """Does the lower hull of the lifted points have a facet with an edge
    not parallel to a side of the triangle?"""
    pts = list(h)
    for facet in lower_facets([(p[1], p[2], h[p]) for p in pts]):
        hull = convex_hull([(pts[i][1], pts[i][2]) for i in facet])
        for (x0, y0), (x1, y1) in zip(hull, hull[1:] + hull[:1]):
            dx, dy = x1 - x0, y1 - y0
            if dx != 0 and dy != 0 and dx != -dy:
                return True
    return False


def _affine_through(pts3):
    """(a, b, c) with a x + b y + c = z through three lifted points."""
    (x0, y0, z0), (x1, y1, z1), (x2, y2, z2) = pts3
    d = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    a = Fraction((z1 - z0) * (y2 - y0) - (z2 - z0) * (y1 - y0)) / d
    b = Fraction((x1 - x0) * (z2 - z0) - (x2 - x0) * (z1 - z0)) / d
    return a, b, z0 - a * x0 - b * y0


def certificate_problem(r: int, h: dict, paving) -> str | None:
    """A convex piecewise-affine certificate: affine on each pavé and
    equal to h at its vertices, at most h at every lattice point, and
    strictly folded across every shared edge."""
    fault = tiling_problem(r, paving)
    if fault:
        return fault
    pieces = {}
    for pave in paving:
        verts = convex_hull([(p[1], p[2]) for p in pave])
        lift = {(p[1], p[2]): h[p] for p in pave}
        a, b, c = _affine_through([(x, y, lift[(x, y)]) for x, y in verts[:3]])
        if any(a * x + b * y + c != lift[(x, y)] for x, y in verts):
            return f"pavé {sorted(pave)} is not affine on its vertices"
        if any(a * p[1] + b * p[2] + c > v for p, v in h.items()):
            return f"the piece of pavé {sorted(pave)} exceeds the heights"
        pieces[pave] = (a, b, c, verts)
    for p_pave, (a, b, c, _) in pieces.items():
        for q_pave, (_, _, _, q_verts) in pieces.items():
            if p_pave is q_pave or len(p_pave & q_pave) < 2:
                continue
            own = {(q[1], q[2]): h[q] for q in q_pave}
            if not any(a * x + b * y + c < own[(x, y)] for x, y in q_verts):
                return f"no fold between pavés {sorted(p_pave)} and {sorted(q_pave)}"
    return None
