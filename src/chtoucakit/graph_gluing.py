"""Verification of glued-graph families: rank-r subspaces of V^{n+1}
indexed by the pavés of a paving, subject to the per-pavé dimension
condition and the wall-matching condition across shared boundaries.

Coordinates of V^{n+1} are grouped in n+1 blocks of size r (block j is
factor j); V^J is the span of the blocks in J.  Subspaces are handled as
reduced-row-echelon row bases over an exact field, so equality tests are
canonical-form equality.  Each pavé's matrix W is cleared of
denominators once, into the numerators N of its scaled form (N, d) of
`fields`; N has W's row space, so the checks reduce column selections of
N: one rank per pavé and J for the dimension condition, one reduction
per wall side for the gluing condition.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from functools import cached_property

from .errors import InvalidData
from .pavings import (
    Paving, _proper_nonempty_subsets, interior_walls, pave_from_points, paving_from_paves, trivial_paving,
)
from .complete_homs import StratumData, _validate_stratum_data
from . import qlinalg
from .fields import _reduced, scaled, scaled_mul, unscaled


@dataclass(frozen=True)
class GluedGraphFamily:
    field: object
    paving: Paving
    w: tuple  # one r x r(n+1) row-basis matrix per pavé, paving order

    def __post_init__(self):
        r, n = self.paving.r, self.paving.n
        if len(self.w) != len(self.paving.paves):
            raise InvalidData("need one subspace per pavé")
        for m, rows in zip(self.w, self.numerators):
            if len(m) != r or any(len(row) != r * (n + 1) for row in m):
                raise InvalidData(f"subspace basis must be {r} x {r * (n + 1)}")
            if qlinalg.scaled_rank(self.field, rows) != r:
                raise InvalidData("subspace must have rank exactly r")

    @cached_property
    def numerators(self) -> tuple:
        """Per pavé, the rows N of the scaled form (N, d) of its W."""
        return tuple(scaled(self.field, [list(row) for row in m])[0] for m in self.w)


def _coords_of(r: int, blocks) -> list[int]:
    out = []
    for j in blocks:
        out.extend(range(j * r, (j + 1) * r))
    return out


def _wall_side(field, n_rows, r: int, n: int, blocks):
    """W reduced once with the columns of the blocks off J first, from
    the numerators N of W: the reduced rows that pivot there are the
    canonical basis of W's projection onto those blocks, and the other
    nonzero rows, which vanish there, read on V^J, the canonical basis
    of W cap V^J in V^J coordinates.  Both scaled, as the pair
    (projection, intersection)."""
    off = [j for j in range(n + 1) if j not in blocks]
    split = len(off) * r
    cols = _coords_of(r, off + list(blocks))
    (m, e), pivots = qlinalg.scaled_rref(field, [[row[c] for c in cols] for row in n_rows])
    k = sum(1 for p in pivots if p < split)
    return (
        _reduced([row[:split] for row in m[:k]], e),
        _reduced([row[split:] for row in m[k:len(pivots)]], e),
    )


@dataclass
class GluingReport:
    ok: bool
    violations: list = dfield(default_factory=list)


def check_dimension_condition(fam: GluedGraphFamily) -> GluingReport:
    """dim(W_P cap V^J) must equal min over the pavé's lattice points of
    sum_{j in J} i_j, the pavé's profile value d_J, for every pavé and
    every J.  Only proper nonempty J are checked: for J empty and J all
    blocks both sides are 0 and r, as W has rank r."""
    r, n = fam.paving.r, fam.paving.n
    violations = []
    for idx, pave in enumerate(fam.paving.paves):
        profile = pave.profile.as_dict()
        for blocks in _proper_nonempty_subsets(n):
            expected = profile[blocks]
            # dim(W cap V^J) = dim{c : c W vanishes off V^J} = r - rank there
            off = _coords_of(r, [j for j in range(n + 1) if j not in blocks])
            rows = [[row[c] for c in off] for row in fam.numerators[idx]]
            got = r - qlinalg.scaled_rank(fam.field, rows)
            if got != expected:
                violations.append((idx, blocks, got, expected))
    return GluingReport(not violations, violations)


def shared_walls(paving: Paving):
    """All walls (idx1, idx2, J, d) where pavés idx1 < idx2 share an
    (n-1)-dimensional boundary on the hyperplane sum_{j in J} x_j = d
    with d = min over pavé idx1 = max over pavé idx2.

    The walls are those of `interior_walls`.  Exactly one proper J (not
    its complement, which bounds the pavés the other way round) has
    pavé idx1's profile value d_J equal to the maximum over pavé idx2."""
    walls = []
    for k, l, _, _ in interior_walls(paving):
        d = paving.paves[k].profile.as_dict()
        for blocks in _proper_nonempty_subsets(paving.n):
            if d[blocks] == max(sum(p[j] for j in blocks) for p in paving.paves[l].points):
                walls.append((k, l, blocks, d[blocks]))
                break
    return walls


def check_gluing_condition(fam: GluedGraphFamily) -> GluingReport:
    """Across every shared wall (P', P'', J): the J-part of W_{P'} cut
    out by V^J must equal the J-projection of W_{P''}, and symmetrically
    with the complement on the other side."""
    r, n = fam.paving.r, fam.paving.n
    field = fam.field
    violations = []
    for (i1, i2, blocks, d) in shared_walls(fam.paving):
        comp = tuple(j for j in range(n + 1) if j not in set(blocks))
        # scaled forms are unique, so equal subspaces are equal pairs
        lhs2, lhs1 = _wall_side(field, fam.numerators[i1], r, n, blocks)
        rhs1, rhs2 = _wall_side(field, fam.numerators[i2], r, n, comp)
        if lhs1 != rhs1:
            violations.append((i1, i2, blocks, d, "pullback != projection"))
        if lhs2 != rhs2:
            violations.append((i1, i2, comp, d, "projection != pullback"))
    return GluingReport(not violations, violations)


# ---------------------------------------------------------------------------
# the rank-filtration dictionary at n = 1


def family_from_stratum(d: StratumData) -> GluedGraphFamily:
    """Build the glued-graph family over the interval paving of [0, r]
    cut at d.cuts: the pavé [r_{s-1}, r_s] carries

        (V^s x 0) + (0 x W_{s-1}) + graph of the s-th graded map

    in the adapted bases, which satisfies both glued-graph conditions by
    construction."""
    a_blocks, b_blocks, tables = _validate_stratum_data(d)
    field = d.field
    r = d.r
    bounds = [0] + list(d.cuts) + [r]
    # the vectors of the adapted bases A / B, in order, as scaled rows
    a, b = (([row for block in blocks for row in block], e) for blocks, e in (a_blocks, b_blocks))
    a_vecs, b_vecs = unscaled(field, a), unscaled(field, b)
    paves = []
    w_by_key = {}
    for sigma in range(1, len(bounds)):
        lo, hi = bounds[sigma - 1], bounds[sigma]
        pts = [(r - x, x) for x in range(lo, hi + 1)]
        pave = pave_from_points(r, 1, pts)
        rows = []
        for j in range(hi, r):  # V^sigma = trailing adapted vectors
            rows.append(a_vecs[j] + [field.zero()] * r)
        for j in range(lo):  # W_{sigma-1} = leading adapted vectors
            rows.append([field.zero()] * r + b_vecs[j])
        # graph of the true graded map g: adapted vector lo + t of A next
        # to its image, the sum over tp of g[tp][t] b_{lo + tp}
        g_n, g_d = tables[sigma - 1][0]
        g_t = [list(col) for col in zip(*g_n)], g_d
        images = unscaled(field, scaled_mul(field, g_t, (b[0][lo:hi], b[1])))
        rows.extend(a_vecs[lo + t] + img for t, img in enumerate(images))
        paves.append(pave)
        w_by_key[pave.key()] = tuple(tuple(row) for row in rows)
    paving = paving_from_paves(r, 1, paves)
    w = tuple(w_by_key[p.key()] for p in paving.paves)
    return GluedGraphFamily(field, paving, w)


def graph_family(field, paving: Paving, mats) -> GluedGraphFamily:
    """Family for the trivial paving from a tuple (g_0, ..., g_n): the
    common graph {(g_0 v, ..., g_n v)}."""
    r, n = paving.r, paving.n
    if paving.key() != trivial_paving(r, n).key():
        raise InvalidData("graph families live over the trivial paving")
    rows = []
    for t in range(r):
        row = []
        for g in mats:
            col = [g[i][t] for i in range(r)]
            row.extend(col)
        rows.append(row)
    return GluedGraphFamily(field, paving, (tuple(tuple(x) for x in rows),))
