"""The secondary cone of the alcove triangulation of the r-dilated
triangle, built apart from chtoucakit.

Every integer paving of the triangle is a coarsening of its alcove
triangulation into unit triangles, so the admissible pavings are the
faces of that triangulation's secondary cone (Gelfand-Kapranov-
Zelevinsky ch. 7; De Loera-Rambau-Santos). The cone has one rhombus
inequality h(c) + h(d) - h(a) - h(b) >= 0 per interior edge ab with
opposite apexes c, d; its lineality is the affine functions. Heights are
taken in the section vanishing at the three vertices, which makes the
cone pointed, and its faces are enumerated as the distinct tight sets
of its rays. A face's paving merges the alcoves across its tight edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from exact import RationalOps, kernel, primitive_int, rank

QQ = RationalOps()


def lattice_points(r: int, n: int) -> list[tuple[int, ...]]:
    if n == 0:
        return [(r,)]
    return [(a,) + rest for a in range(r, -1, -1) for rest in lattice_points(r - a, n - 1)]


def unit_triangles(r: int) -> list[frozenset]:
    """The r^2 alcoves of the r-dilated triangle, as vertex sets."""
    out = []
    for a in range(r):
        for b in range(r - a):
            c = r - 1 - a - b
            out.append(frozenset({(a + 1, b, c), (a, b + 1, c), (a, b, c + 1)}))
    for a in range(r - 1):
        for b in range(r - 1 - a):
            c = r - 2 - a - b
            out.append(frozenset({(a + 1, b + 1, c), (a + 1, b, c + 1), (a, b + 1, c + 1)}))
    return out


@dataclass(frozen=True)
class Face:
    rays: frozenset  # indices into AlcoveCone.rays
    tight: frozenset  # indices of the rhombus rows tight on the face
    dim: int
    paving: frozenset  # frozenset of pavé point sets


class AlcoveCone:
    def __init__(self, r: int):
        self.r = r
        self.points = lattice_points(r, 2)
        self.vertices = [p for p in self.points if max(p) == r]
        self.coords = [p for p in self.points if max(p) < r]  # section coordinates
        self.triangles = unit_triangles(r)
        self.edges = []  # (triangle i, triangle j, shared edge, apexes)
        for i, j in combinations(range(len(self.triangles)), 2):
            shared = self.triangles[i] & self.triangles[j]
            if len(shared) == 2:
                apexes = (self.triangles[i] - shared) | (self.triangles[j] - shared)
                self.edges.append((i, j, shared, apexes))
        index = {p: k for k, p in enumerate(self.coords)}
        self.rows = []
        for _, _, shared, apexes in self.edges:
            row = [Fraction(0)] * len(self.coords)
            for p in apexes:
                if p in index:
                    row[index[p]] += 1
            for p in shared:
                if p in index:
                    row[index[p]] -= 1
            self.rows.append(row)
        self.dim = len(self.coords)
        self.rays = self._rays()
        self.faces = self._faces()

    def _rays(self):
        """Extreme rays: one-dimensional kernels of (dim-1) tight rows
        that satisfy every other row."""
        rays = set()
        for sub in combinations(range(len(self.rows)), self.dim - 1):
            ker = kernel([self.rows[i] for i in sub], self.dim)
            if len(ker) != 1:
                continue
            v = ker[0]
            vals = [sum(a * x for a, x in zip(row, v)) for row in self.rows]
            if all(x >= 0 for x in vals):
                rays.add(primitive_int(v))
            elif all(x <= 0 for x in vals):
                rays.add(primitive_int([-x for x in v]))
        return sorted(rays)

    def _tight_rows(self, ray) -> frozenset:
        return frozenset(
            i for i, row in enumerate(self.rows) if sum(a * x for a, x in zip(row, ray)) == 0
        )

    def _faces(self):
        ray_tight = [self._tight_rows(v) for v in self.rays]
        every_row = frozenset(range(len(self.rows)))
        ray_sets = set()
        for k in range(len(self.rows) + 1):
            for sub in combinations(range(len(self.rows)), k):
                sub = set(sub)
                ray_sets.add(frozenset(i for i, t in enumerate(ray_tight) if sub <= t))
        faces = []
        for rs in sorted(ray_sets, key=lambda s: (len(s), sorted(s))):
            tight = every_row
            for i in rs:
                tight &= ray_tight[i]
            dim = rank(QQ, [list(map(Fraction, self.rays[i])) for i in rs]) if rs else 0
            faces.append(Face(rs, tight, dim, self.merged_paving(tight)))
        return faces

    def merged_paving(self, tight) -> frozenset:
        """Merge alcoves across the tight edges (union-find)."""
        parent = list(range(len(self.triangles)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for e in tight:
            i, j = self.edges[e][0], self.edges[e][1]
            parent[find(i)] = find(j)
        cells: dict[int, set] = {}
        for t, tri in enumerate(self.triangles):
            cells.setdefault(find(t), set()).update(tri)
        return frozenset(frozenset(c) for c in cells.values())

    def ray_height(self, ray) -> dict:
        """A ray as a height function on all lattice points."""
        h = {p: Fraction(0) for p in self.vertices}
        h.update({p: Fraction(x) for p, x in zip(self.coords, ray)})
        return h

    def rows_rank(self, rows) -> int:
        return rank(QQ, [self.rows[i] for i in rows]) if rows else 0


def tiling_problem(r: int, paving, triangles=None) -> str | None:
    """None when every pavé is a union of unit triangles, the pavés'
    triangles partition the alcoves, and each pavé's points are exactly
    its triangles' vertices; otherwise a description of the fault."""
    triangles = triangles if triangles is not None else unit_triangles(r)
    owner = {}
    for k, pave in enumerate(paving):
        mine = [t for t in triangles if t <= pave]
        if not mine or frozenset().union(*mine) != pave:
            return f"pavé {sorted(pave)} is not a union of unit triangles"
        for t in mine:
            if t in owner:
                return f"alcove {sorted(t)} lies in two pavés"
            owner[t] = k
    if len(owner) != len(triangles):
        return "pavés do not cover every alcove"
    return None
