"""Degrees with a mixing index, polygons of filtrations over a declared
finite sub-object poset, the maximal (Harder-Narasimhan style) polygon
with its coarsest achieving chain, polygon comparison, convexity margins
and the integer splitting of truncation data along a composition.

Polygons are stored by their values at integer abscissae 0..r with
p(0) = p(r) = 0; all arithmetic is exact rational.  "Convex" follows the
slope-drop convention: (p(rho)-p(rho-1)) - (p(rho+1)-p(rho)) >= mu means
mu-convex (the polygon bulges upward).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor

from .errors import (
    InternalError,
    InvalidData,
    NoDominantChain,
    NotAChain,
    NotConvexEnough,
    TooLarge,
)

CHAIN_CAP = 10**6


@dataclass(frozen=True)
class SubobjectRecord:
    id: str
    rank: int
    deg0: int
    deg1: int


@dataclass(frozen=True)
class SubobjectLattice:
    """Finite poset of sub-objects with declared containment.

    `order` lists the containment pairs (a, b) meaning a <= b; the
    reflexive-transitive closure is taken on construction and the poset
    axioms plus strict rank monotonicity are enforced.  The zero object
    (rank 0, degrees 0) and the full object (rank r) must be present.
    """

    r: int
    records: tuple[SubobjectRecord, ...]
    closure: frozenset  # pairs (id_a, id_b) with a <= b, closed

    @staticmethod
    def build(r: int, records, order_pairs) -> "SubobjectLattice":
        records = tuple(records)
        ids = [rec.id for rec in records]
        if len(set(ids)) != len(ids):
            raise InvalidData("duplicate sub-object ids")
        bottoms = [rec for rec in records if rec.rank == 0]
        tops = [rec for rec in records if rec.rank == r]
        if len(bottoms) != 1 or bottoms[0].deg0 != 0 or bottoms[0].deg1 != 0:
            raise InvalidData("need a unique zero object with zero degrees")
        if len(tops) != 1:
            raise InvalidData("need a unique full object of rank r")
        pos = {i: k for k, i in enumerate(ids)}
        bottom, top = pos[bottoms[0].id], pos[tops[0].id]
        size = len(ids)
        # reach[a][b]: record a <= record b
        reach = [[a == b or a == bottom or b == top for b in range(size)] for a in range(size)]
        for a, b in order_pairs:
            if a not in pos or b not in pos:
                raise InvalidData(f"unknown id in order pair ({a}, {b})")
            reach[pos[a]][pos[b]] = True
        # transitive closure (Warshall)
        for k, via in enumerate(reach):
            for row in reach:
                if row[k]:
                    row[:] = [x or y for x, y in zip(row, via)]
        # the first violating pair in records order, whatever the ids hash to
        for a in range(size):
            for b in range(size):
                if a == b or not reach[a][b]:
                    continue
                if reach[b][a]:
                    raise InvalidData(f"order not antisymmetric on ({ids[a]}, {ids[b]})")
                if records[a].rank >= records[b].rank:
                    raise InvalidData(f"rank not strictly monotone on ({ids[a]}, {ids[b]})")
        closure = frozenset(
            (ids[a], ids[b]) for a in range(size) for b in range(size) if reach[a][b]
        )
        return SubobjectLattice(r, records, closure)

    def leq(self, a: str, b: str) -> bool:
        return (a, b) in self.closure

    def bottom(self) -> SubobjectRecord:
        return next(rec for rec in self.records if rec.rank == 0)

    def top(self) -> SubobjectRecord:
        return next(rec for rec in self.records if rec.rank == self.r)


def deg_alpha(rec: SubobjectRecord, alpha) -> Fraction:
    """(1 - alpha) deg0 + alpha deg1."""
    a = Fraction(alpha)
    return (1 - a) * rec.deg0 + a * rec.deg1


@dataclass(frozen=True)
class Polygon:
    r: int
    values: tuple[Fraction, ...]  # p(0), ..., p(r)

    def __post_init__(self):
        if self.r < 0:
            raise InvalidData("polygon needs r >= 0")
        if len(self.values) != self.r + 1:
            raise InvalidData("polygon needs r+1 values")
        if self.values[0] != 0 or self.values[-1] != 0:
            raise InvalidData("polygon must vanish at 0 and r")

    @staticmethod
    def from_values(vals) -> "Polygon":
        vals = tuple(Fraction(v) for v in vals)
        return Polygon(len(vals) - 1, vals)

    def second_drop(self, rho: int) -> Fraction:
        """(p(rho) - p(rho-1)) - (p(rho+1) - p(rho))."""
        return 2 * self.values[rho] - self.values[rho - 1] - self.values[rho + 1]


def is_truncation_parameter(p: Polygon) -> bool:
    return all(v >= 0 for v in p.values) and is_mu_convex(p, 0)


def polygon_leq(p: Polygon, q: Polygon) -> bool:
    """Pointwise comparison at the integers (sufficient for polygons
    with integer breakpoints)."""
    if p.r != q.r:
        raise InvalidData("polygons of different ranks")
    return all(a <= b for a, b in zip(p.values, q.values))


def is_mu_convex(p: Polygon, mu) -> bool:
    m = Fraction(mu)
    return all(p.second_drop(rho) >= m for rho in range(1, p.r))


def polygon_of_filtration(lat: SubobjectLattice, chain, alpha) -> Polygon:
    """Polygon of a chain 0 = F_0 < ... < F_s = top: value at rank(F) is
    deg_alpha(F) - (rank(F)/r) deg_alpha(top), interpolated linearly in
    between and pinned to 0 at both ends."""
    by_id = {rec.id: rec for rec in lat.records}
    ids = list(chain)
    if not ids or by_id[ids[0]].rank != 0 or by_id[ids[-1]].rank != lat.r:
        raise NotAChain("chain must run from the zero object to the top")
    for a, b in zip(ids, ids[1:]):
        if not lat.leq(a, b) or a == b:
            raise NotAChain(f"{a} is not strictly below {b}")
    r = lat.r
    top_deg = deg_alpha(by_id[ids[-1]], alpha)
    anchors = {0: Fraction(0), r: Fraction(0)}
    for fid in ids[1:-1]:
        rec = by_id[fid]
        anchors[rec.rank] = deg_alpha(rec, alpha) - Fraction(rec.rank, r) * top_deg
    xs = sorted(anchors)
    vals = []
    for rho in range(r + 1):
        if rho in anchors:
            vals.append(anchors[rho])
        else:
            lo = max(x for x in xs if x < rho)
            hi = min(x for x in xs if x > rho)
            t = Fraction(rho - lo, hi - lo)
            vals.append(anchors[lo] * (1 - t) + anchors[hi] * t)
    return Polygon(r, tuple(vals))


def _all_chains(lat: SubobjectLattice):
    """Every chain from the zero object to the top, as id tuples."""
    bot, top = lat.bottom().id, lat.top().id
    above = {
        rec.id: [other.id for other in lat.records
                 if other.id != rec.id and lat.leq(rec.id, other.id)]
        for rec in lat.records
    }
    out = []

    def walk(prefix):
        if len(out) > CHAIN_CAP:
            raise TooLarge("chain count exceeds the desk-scale cap")
        cur = prefix[-1]
        if cur == top:
            out.append(tuple(prefix))
            return
        for nxt in above[cur]:
            walk(prefix + [nxt])

    walk([bot])
    return out


def hn_polygon(lat: SubobjectLattice, alpha) -> tuple[Polygon, tuple[str, ...]]:
    """The pointwise-maximal polygon over all chains together with the
    coarsest chain achieving it.

    Raises NoDominantChain when no single chain matches the pointwise
    maximum, or when the coarsest achiever is not unique; both mean the
    input sits outside the regime where a canonical filtration exists."""
    chains = _all_chains(lat)
    polys = {ch: polygon_of_filtration(lat, ch, alpha) for ch in chains}
    r = lat.r
    maxvals = [
        max(polys[ch].values[rho] for ch in chains) for rho in range(r + 1)
    ]
    achievers = [ch for ch in chains if list(polys[ch].values) == maxvals]
    if not achievers:
        raise NoDominantChain("no single chain realizes the pointwise maximum")
    fewest = min(len(ch) for ch in achievers)
    coarsest = [ch for ch in achievers if len(ch) == fewest]
    if len(coarsest) != 1:
        raise NoDominantChain("coarsest maximal chain is not unique")
    best = coarsest[0]
    return polys[best], best


# ---------------------------------------------------------------------------
# truncation splitting


@dataclass(frozen=True)
class SplitResult:
    d_parts: tuple[int, ...]
    p_parts: tuple[Polygon, ...]


def split_truncation(p: Polygon, d: int, cuts) -> SplitResult:
    """Split a 2-convex truncation parameter along the composition given
    by cuts = {r_1 < ... < r_{s-1}}.

    With ptilde(rho) = floor(p(rho) + rho d / r), block sigma is ptilde
    on [r_{sigma-1}, r_sigma] less its base ptilde(r_{sigma-1}) + 1 (0
    for the first block): d_sigma is its right end, and the part is it
    minus the linear term, pinned to 0 at the left end.  So
    sum d_sigma = d - s + 1 always holds.  A mu-convex p gives
    (floor(mu) - 2)-convex parts, (mu - 2)-convex ones for integral mu
    (criterion 10): each drop of ptilde is an integer above mu - 2, and
    the pinned left end of a later block costs 1 more."""
    if not is_truncation_parameter(p):
        raise NotConvexEnough("input is not a truncation parameter")
    if not is_mu_convex(p, 2):
        raise NotConvexEnough("splitting requires a 2-convex parameter")
    r = p.r
    if r < 1:
        raise InvalidData("splitting requires r >= 1")
    cuts = sorted(set(int(c) for c in cuts))
    if any(not 0 < c < r for c in cuts):
        raise InvalidData("cuts must lie strictly between 0 and r")
    blocks = list(zip([0] + cuts, cuts + [r]))
    ptilde = [floor(p.values[rho] + Fraction(rho * d, r)) for rho in range(r + 1)]
    bases = [0] + [ptilde[lo] + 1 for lo in cuts]
    d_parts = [ptilde[hi] - base for (_, hi), base in zip(blocks, bases)]
    if sum(d_parts) != d - len(cuts):
        raise InternalError(f"split degrees {d_parts} do not sum to d - s + 1 = {d - len(cuts)}")
    p_parts = []
    for sigma, ((lo, hi), base, d_sigma) in enumerate(zip(blocks, bases, d_parts), 1):
        m = hi - lo
        vals = [ptilde[lo + rho] - base - Fraction(rho * d_sigma, m) for rho in range(1, m + 1)]
        part = Polygon(m, (Fraction(0), *vals))
        if not is_truncation_parameter(part):
            raise NotConvexEnough(f"part {sigma} is not a truncation parameter")
        p_parts.append(part)
    return SplitResult(tuple(d_parts), tuple(p_parts))
