"""Complete homomorphisms between rank-r spaces over an exact field:
exterior-power matrices, the open-locus relations, strata indexed by
subsets of [r-1], stratum data extraction/reconstruction, the scaling
torus action, and the matrix Lang map over finite fields.

A point is a tuple (u_1,...,u_r; lambda_1,...,lambda_{r-1}) where u_rho
is a nonzero C(r,rho)-square matrix (lexicographic wedge bases) and the
open locus satisfies  wedge^rho u_1 = lambda_1^{rho-1} ... lambda_{rho-1}
u_rho.  The stratum of a point is {rho : lambda_rho = 0}, identified
with a composition of r; a stratum point is equivalent to a pair of
filtrations with graded isomorphisms between the associated blocks.

Conventions fixed here so round trips are exact: adapted bases are built
by deterministic reduced-row-echelon completion, graded-map matrices are
stored with their first nonzero entry normalized to 1 alongside the
extracted scale, and wedge signs follow ascending lexicographic subsets.
Every exterior power of a matrix is taken from one table of its
compounds, each rho-minor expanded along its first row over the
(rho-1)-minors, so no minor costs an elimination or a field inversion.
The table has one body, `scaled_compounds`, run on the numerators of a
scaled matrix in `fields.ring` (integers over Q); `compounds` is it
between `scaled` and `unscaled`.  The stratum code carries every matrix
in the scaled form (N, d) of `fields` through the scaled kernels
(`scaled_compounds`, `fields.scaled_mul`, `qlinalg.scaled_inverse`,
...), so over Q it clears the denominators of an input matrix once and
forms a Fraction only for an entry of a returned `CompleteHom` or
`StratumData`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from math import comb, lcm

from .errors import InternalError, InvalidData, NotOnStratum, Singular, ZeroLambda, ZeroMu
from . import qlinalg
from .fields import (
    GF, _reduced, fmat_eq, fmat_mul, ring, scaled, scaled_mul, scaled_times, unscaled,
)


def wedge_subsets(r: int, rho: int) -> list[tuple[int, ...]]:
    return list(combinations(range(r), rho))


def compounds(field, a, top: int):
    """[wedge^1 a, ..., wedge^top a] in the lexicographic wedge bases,
    by `scaled_compounds`."""
    return [unscaled(field, m) for m in scaled_compounds(field, scaled(field, a), top)]


def scaled_compounds(field, a, top: int):
    """`compounds` of a scaled matrix (N, d), each level scaled:
    wedge^rho (N/d) is (wedge^rho N)/d^rho, the table of N taken in
    `fields.ring`.

    The (I', I) entry of wedge^rho N is the rho x rho minor on rows I'
    and columns I.  Each rho-minor is the Laplace expansion along the
    first row of I' over the (rho-1)-minors of the level below, so the
    table uses only add, sub and mul: no division, over any field."""
    n, d = a
    ops = ring(field)
    r = len(n)
    levels = [[list(row) for row in n]]
    prev_index = {(j,): j for j in range(r)}
    for rho in range(2, top + 1):
        prev = levels[-1]
        subs = wedge_subsets(r, rho)
        # column subset I -> [(column I[k], index of I minus I[k], k odd)]
        expansions = [
            [(c, prev_index[cols[:k] + cols[k + 1:]], k % 2) for k, c in enumerate(cols)]
            for cols in subs
        ]
        level = []
        for rows in subs:
            head = n[rows[0]]
            below = prev[prev_index[rows[1:]]]
            out = []
            for terms in expansions:
                acc = ops.zero()
                for c, j, odd in terms:
                    term = ops.mul(head[c], below[j])
                    acc = ops.sub(acc, term) if odd else ops.add(acc, term)
                out.append(acc)
            level.append(out)
        levels.append(level)
        prev_index = {sub: i for i, sub in enumerate(subs)}
    return [_reduced(level, d**rho) for rho, level in enumerate(levels[:top], start=1)]


def exterior_power(field, a, rho: int):
    """Matrix of wedge^rho(a) in the lexicographic wedge bases; the
    (I', I) entry is the rho x rho minor on rows I' and columns I."""
    return compounds(field, a, rho)[rho - 1]


@dataclass(frozen=True)
class CompleteHom:
    field: object
    r: int
    u: tuple  # u[rho-1]: C(r,rho)-square matrix
    lams: tuple  # lambda_1 ... lambda_{r-1}

    def __post_init__(self):
        if len(self.u) != self.r or len(self.lams) != self.r - 1:
            raise InvalidData("wrong number of matrices or scalars")
        for rho, m in enumerate(self.u, start=1):
            size = comb(self.r, rho)
            if len(m) != size or any(len(row) != size for row in m):
                raise InvalidData(f"u_{rho} must be {size}x{size}")
            if all(self.field.is_zero(x) for row in m for x in row):
                raise InvalidData(f"u_{rho} is zero")

    def eq(self, other: "CompleteHom") -> bool:
        return (
            self.r == other.r
            and all(fmat_eq(self.field, a, b) for a, b in zip(self.u, other.u))
            and all(self.field.eq(a, b) for a, b in zip(self.lams, other.lams))
        )


def lambda_monomial(field, lams, rho: int):
    """lambda_1^{rho-1} lambda_2^{rho-2} ... lambda_{rho-1}, where
    lams[j-1] is lambda_j."""
    out = field.one()
    for j in range(1, rho):
        for _ in range(rho - j):
            out = field.mul(out, lams[j - 1])
    return out


def complete_from_open(field, u1, lams) -> CompleteHom:
    """The unique point of the open locus over an isomorphism u1 and
    invertible scalars."""
    r = len(u1)
    lams = tuple(lams)
    if len(lams) != r - 1:
        raise InvalidData("need r-1 scalars")
    if any(field.is_zero(l) for l in lams):
        raise ZeroLambda("all lambda_rho must be invertible on the open locus")
    if any(len(row) != r for row in u1):
        raise InvalidData(f"u_1 must be {r}x{r}")
    wedges = scaled_compounds(field, scaled(field, u1), r)
    if field.is_zero(wedges[-1][0][0][0]):  # wedge^r u_1 = det u_1
        raise Singular("u_1 must be an isomorphism")
    us = [u1]
    for rho in range(2, r + 1):
        scale = field.inv(lambda_monomial(field, lams, rho))
        us.append(unscaled(field, scaled_times(field, scale, wedges[rho - 1])))
    return CompleteHom(field, r, tuple(us), lams)


def satisfies_open_relations(h: CompleteHom) -> bool:
    """Check wedge^rho u_1 = lambda-monomial * u_rho for rho = 2..r."""
    if any(h.field.is_zero(l) for l in h.lams):
        return False
    # scaled forms are unique, so equal matrices are equal pairs
    wedges = scaled_compounds(h.field, scaled(h.field, h.u[0]), h.r)
    return all(
        wedges[rho - 1] == scaled_times(
            h.field, lambda_monomial(h.field, h.lams, rho), scaled(h.field, h.u[rho - 1])
        )
        for rho in range(2, h.r + 1)
    )


def stratum_of(h: CompleteHom) -> tuple[int, ...]:
    return tuple(rho for rho in range(1, h.r) if h.field.is_zero(h.lams[rho - 1]))


def torus_action(h: CompleteHom, mus) -> CompleteHom:
    """(mu_1,...,mu_{r-1}) acts by u_rho -> prod_{j<rho} mu_j^{j-rho} u_rho
    and lambda_rho -> mu_rho lambda_rho, preserving the relations."""
    field = h.field
    mus = tuple(mus)
    if len(mus) != h.r - 1:
        raise InvalidData("need r-1 scalars")
    if any(field.is_zero(m) for m in mus):
        raise ZeroMu("torus scalars must be invertible")
    new_u = [h.u[0]]
    for rho in range(2, h.r + 1):
        scale = field.inv(lambda_monomial(field, mus, rho))
        new_u.append(unscaled(field, scaled_times(field, scale, scaled(field, h.u[rho - 1]))))
    new_lams = tuple(field.mul(m, l) for m, l in zip(mus, h.lams))
    return CompleteHom(field, h.r, tuple(new_u), new_lams)


# ---------------------------------------------------------------------------
# compositions


def composition_from_subset(r: int, subset) -> tuple[int, ...]:
    """{r_1 < ... < r_{s-1}} in [r-1]  <->  parts (r_1, r_2-r_1, ..., r-r_{s-1})."""
    cuts = [0] + sorted(subset) + [r]
    if len(set(cuts)) != len(cuts) or any(not 0 < c < r for c in cuts[1:-1]):
        raise InvalidData("subset must be a strictly increasing subset of [r-1]")
    return tuple(b - a for a, b in zip(cuts, cuts[1:]))


def subset_from_composition(parts) -> tuple[int, ...]:
    if any(p < 1 for p in parts):
        raise InvalidData("parts must be positive")
    cuts = []
    acc = 0
    for p in parts[:-1]:
        acc += p
        cuts.append(acc)
    return tuple(cuts)


# ---------------------------------------------------------------------------
# strata


@dataclass(frozen=True)
class StratumData:
    """Filtration pair with normalized graded isomorphisms.

    vfilt[t] is a row-basis of V^{t+1} (the proper members of the
    decreasing filtration, codimensions r_1 < ... < r_{s-1}); wfilt[t] a
    row-basis of W_{t+1} (increasing, dimensions r_1 < ... < r_{s-1}).
    v[sigma-1] is the graded map V^{sigma-1}/V^sigma -> W_sigma/W_{sigma-1}
    in the canonical adapted bases, normalized so its first nonzero entry
    (row-major) is 1; scales[sigma-1] carries the true scalar.
    free_lams[rho] holds lambda_rho for rho not in R.
    """

    field: object
    r: int
    cuts: tuple[int, ...]  # R as a sorted tuple
    vfilt: tuple
    wfilt: tuple
    v: tuple
    scales: tuple
    free_lams: tuple  # pairs (rho, lambda_rho), rho not in R, sorted

    def blocks(self) -> tuple[int, ...]:
        return composition_from_subset(self.r, self.cuts)

    def normalized(self) -> "StratumData":
        """Move each graded matrix's leading coefficient into the scale."""
        field = self.field
        normals = [_normalize(field, scaled(field, m)) for m in self.v]
        if None in normals:
            raise InvalidData("graded map is zero")
        return replace(
            self,
            v=tuple(m for _, m in normals),
            scales=tuple(field.mul(s, lead) for s, (lead, _) in zip(self.scales, normals)),
        )

    def eq(self, other: "StratumData") -> bool:
        if (self.r, self.cuts) != (other.r, other.cuts):
            return False
        f = self.field
        if len(self.free_lams) != len(other.free_lams):
            return False
        for (r1, l1), (r2, l2) in zip(self.free_lams, other.free_lams):
            if r1 != r2 or not f.eq(l1, l2):
                return False
        for a, b in zip(self.vfilt + self.wfilt, other.vfilt + other.wfilt):
            if not fmat_eq(f, qlinalg.row_basis(f, [list(r) for r in a]),
                           qlinalg.row_basis(f, [list(r) for r in b])):
                return False
        for a, b in zip(self.v, other.v):
            if not fmat_eq(f, [list(r) for r in a], [list(r) for r in b]):
                return False
        return all(f.eq(a, b) for a, b in zip(self.scales, other.scales))


def _first_nonzero(field, m):
    for row in m:
        for x in row:
            if not field.is_zero(x):
                return x
    return None


def _normalize(field, m):
    """The first nonzero entry (row-major) of the scaled map m, a field
    element, and m divided by it as a tuple of rows of field elements;
    None if m is zero."""
    x = _first_nonzero(field, m[0])
    if x is None:
        return None
    first = field.mul(x, field.inv(m[1]))  # x / d, d = 1 over GF(p^k)
    return first, tuple(map(tuple, unscaled(field, scaled_times(field, field.inv(first), m))))


def _flag_blocks(field, r: int, spaces):
    """Blocks of the basis of k^r adapted to the flag spaces[0] in
    spaces[1] in ..., each member given by its canonical basis (the
    scaled rows of `qlinalg.scaled_row_basis`), and the denominator e of
    the blocks' rows; None if the members are not nested.

    The members' bases, then the unit vectors, are scanned in order, and
    a vector is kept when it is independent of the vectors kept before
    it; block t holds those kept from member t (the last block from the
    unit vectors).  The kept vectors are the pivot columns of one rref of
    the transpose of the scanned rows, which are put over the lcm e of
    the members' denominators first: scaling a column moves no pivot."""
    # 0 and 1 are the zero and one of Z and of GF(p^k)
    spaces = [*spaces, ([[int(i == j) for j in range(r)] for i in range(r)], 1)]
    e = lcm(*[d for _, d in spaces])  # 1 over GF(p^k)
    rows = [[x * (e // d) for x in row] for n, d in spaces for row in n]
    _, pivots = qlinalg.scaled_rref(field, [list(col) for col in zip(*rows)])
    blocks = []
    start = 0
    for n, _ in spaces:
        end = start + len(n)
        blocks.append([rows[p] for p in pivots if start <= p < end])
        start = end
        # member t spans the sum of members 0..t exactly when it contains them
        if sum(map(len, blocks)) != len(n):
            return None
    return blocks, e


def _columns(blocks, e):
    """The scaled matrix whose columns are the rows of the blocks over e,
    in order: an adapted basis of `_flag_blocks`."""
    return _reduced([list(row) for row in zip(*(row for block in blocks for row in block))], e)


def _validate_stratum_data(d: StratumData):
    """Raise InvalidData unless d describes a stratum point; return its
    adapted bases and true graded maps (scale times map) as scaled
    matrices (A, B, maps).

    Columns of A are the V-adapted basis grouped in blocks 1..s with
    V^sigma spanned by the trailing columns; columns of B are the
    W-adapted basis with W_sigma spanned by the leading columns.  Each
    side is completed from the canonical bases of the flag V^{s-1} in
    ... in V^1 in k^r (resp. W_1 in ... in W_{s-1} in k^r), then the
    standard unit vectors, so the choice is deterministic.  A member's
    dimension is the row count of its canonical basis, and the flag is
    nested exactly when `_flag_blocks` completes it."""
    field = d.field
    r = d.r
    cuts = list(d.cuts)
    if cuts != sorted(set(cuts)) or any(not 0 < c < r for c in cuts):
        raise InvalidData("cuts must be a strictly increasing subset of [r-1]")
    s = len(cuts) + 1
    bounds = [0] + cuts + [r]
    if len(d.vfilt) != s - 1 or len(d.wfilt) != s - 1:
        raise InvalidData("need one proper subspace per cut")
    if any(len(row) != r for m in (*d.vfilt, *d.wfilt) for row in m):
        raise InvalidData(f"filtration rows must have length r = {r}")
    vfilt = [qlinalg.scaled_row_basis(field, scaled(field, m)[0]) for m in d.vfilt]
    wfilt = [qlinalg.scaled_row_basis(field, scaled(field, m)[0]) for m in d.wfilt]
    for t, (n, _) in enumerate(vfilt):
        if len(n) != r - bounds[t + 1]:
            raise InvalidData(f"V^{t+1} has wrong dimension")
    for t, (n, _) in enumerate(wfilt):
        if len(n) != bounds[t + 1]:
            raise InvalidData(f"W_{t+1} has wrong dimension")
    v_flag = _flag_blocks(field, r, vfilt[::-1])
    if v_flag is None:
        raise InvalidData("V filtration is not decreasing")
    w_flag = _flag_blocks(field, r, wfilt)
    if w_flag is None:
        raise InvalidData("W filtration is not increasing")
    if len(d.v) != s or len(d.scales) != s:
        raise InvalidData("need one graded map and scale per block")
    v = []
    for sigma in range(1, s + 1):
        m_sigma = bounds[sigma] - bounds[sigma - 1]
        mat = d.v[sigma - 1]
        if len(mat) != m_sigma or any(len(row) != m_sigma for row in mat):
            raise InvalidData(f"graded map {sigma} has wrong shape")
        v.append(scaled(field, mat))
        if field.is_zero(qlinalg.scaled_det(field, *v[-1])):
            raise InvalidData(f"graded map {sigma} is singular")
        if field.is_zero(d.scales[sigma - 1]):
            raise InvalidData("scales must be invertible")
    free = dict(d.free_lams)
    expected = [rho for rho in range(1, r) if rho not in set(cuts)]
    if sorted(free) != expected:
        raise InvalidData("free lambdas must cover exactly [r-1] minus the cuts")
    if any(field.is_zero(l) for l in free.values()):
        raise InvalidData("free lambdas must be invertible")
    maps = [scaled_times(field, sc, m) for m, sc in zip(v, d.scales)]
    return _columns(v_flag[0][::-1], v_flag[1]), _columns(*w_flag), maps


def build_stratum_point(d: StratumData) -> CompleteHom:
    """Construct the point of the stratum indexed by d.cuts.

    In the adapted bases, u_rho acts only on wedge coordinates that use
    all of blocks 1..sigma-1 plus rho - r_{sigma-1} indices from block
    sigma (r_{sigma-1} < rho <= r_sigma), where it is the corresponding
    minor of the graded maps; elsewhere it vanishes.  The free lambdas
    scale u_rho exactly as on the open locus."""
    field = d.field
    us = _stratum_point(d, *_validate_stratum_data(d))
    free = dict(d.free_lams)
    lams = tuple(free.get(rho, field.zero()) for rho in range(1, d.r))
    return CompleteHom(field, d.r, tuple(unscaled(field, u) for u in us), lams)


def _stratum_point(d: StratumData, a, b, maps):
    """The scaled matrices u_1, ..., u_r of the point of
    `build_stratum_point` from valid data d, its adapted bases (A, B) and
    its true graded maps (scale times normalized matrix), all scaled."""
    field = d.field
    r = d.r
    bounds = [0, *d.cuts, r]
    s = len(bounds) - 1
    free = dict(d.free_lams)
    # 1 at the cuts, so the lambda monomial runs over the free lambdas
    free_or_one = tuple(free.get(rho, field.one()) for rho in range(1, r))
    a_inv = qlinalg.scaled_inverse(field, *a)
    if a_inv is None:
        raise InternalError("adapted basis A is singular")
    # compounds of each true graded map; the last level is its determinant
    v_wedges = [scaled_compounds(field, m, len(m[0])) for m in maps]
    wb = scaled_compounds(field, b, r)
    wa = scaled_compounds(field, a_inv, r)
    us = []
    for rho in range(1, r + 1):
        sigma = next(t for t in range(1, s + 1) if bounds[t - 1] < rho <= bounds[t])
        # g_rho is zero outside the wedge coordinates S = base_block + K,
        # K running over the kk-subsets of block sigma, where it is the
        # kk-minors of graded map sigma times one scalar: the
        # determinants of the blocks before sigma over the lambda
        # monomial.  So u_rho = wb[:, S] (c minors) wa[S, :].
        c = field.inv(lambda_monomial(field, free_or_one, rho))
        for n, e in (block[-1] for block in v_wedges[: sigma - 1]):
            c = field.mul(c, field.mul(n[0][0], field.inv(e)))  # its determinant
        index = {sub: i for i, sub in enumerate(wedge_subsets(r, rho))}
        base_block = tuple(range(bounds[sigma - 1]))
        lo, hi = bounds[sigma - 1], bounds[sigma]
        kk = rho - lo
        cols = [index[base_block + k] for k in combinations(range(lo, hi), kk)]
        g = scaled_times(field, c, v_wedges[sigma - 1][kk - 1])
        (wb_n, wb_d), (wa_n, wa_d) = wb[rho - 1], wa[rho - 1]
        left = ([[row[j] for j in cols] for row in wb_n], wb_d)
        right = ([wa_n[j] for j in cols], wa_d)
        us.append(scaled_mul(field, scaled_mul(field, left, g), right))
    return us


def _kernel_of_wedge_map(field, n, r: int, rho: int):
    """Rows spanning {v : u_rho(v wedge psi) = 0 for every (rho-1)-vector
    psi}, the recovered subspace V^sigma, from the rows N of a scaled
    u_rho = (N, d): the numerators of a scaled basis of the kernel of the
    rows of v |-> u_rho(v wedge e_K) over all (rho-1)-subsets K, which
    neither d nor the basis's denominator moves."""
    index = {sub: i for i, sub in enumerate(wedge_subsets(r, rho))}
    zeros = [0] * len(n)  # 0 is the zero of Z and of GF(p^k)
    rows = []
    for k_sub in wedge_subsets(r, rho - 1):
        cols = []
        for i in range(r):
            if i in k_sub:
                cols.append(zeros)
                continue
            col = index[tuple(sorted(k_sub + (i,)))]
            vec = [row[col] for row in n]
            if sum(1 for x in k_sub if x < i) % 2:
                vec = [field.neg(x) for x in vec]
            cols.append(vec)
        rows.extend(zip(*cols))
    return qlinalg.scaled_kernel(field, rows, r)[0]


def _support(field, n, r: int, rho: int):
    """Scaled row basis of the smallest U with im(u_rho) inside
    wedge^rho U, the recovered W_sigma, from the rows N of a scaled
    u_rho.  Since im(u)^perp = ker(u^T), the annihilator of U is
    {phi : u_rho^T(phi wedge psi) = 0 for every psi}, the kernel of the
    wedge map of the transpose; U is the kernel of that kernel."""
    annihilator = _kernel_of_wedge_map(field, [list(col) for col in zip(*n)], r, rho)
    return qlinalg.scaled_row_basis(field, qlinalg.scaled_kernel(field, annihilator, r)[0])


def stratum_data(h: CompleteHom) -> StratumData:
    """Recover filtrations, graded maps and scales from a stratum point.

    The graded map of block sigma is read off u_{r_{sigma-1}+1} in the
    adapted bases; the lambda monomial and the determinants of the
    already-recovered blocks are divided out, so recovery is exact.  The
    result is validated by rebuilding the point from the adapted bases
    already at hand; any mismatch raises NotOnStratum.  Every matrix is
    carried scaled, and only the returned entries are field elements.

    The recovered data pass every check of `_validate_stratum_data` by
    construction, so the rebuild skips it: the cuts are the zero lambdas
    in increasing order; there is one V^t and one W_t per cut, each a
    row basis whose dimension is checked below, and their nesting is
    checked too; each graded map is a square block with nonzero
    determinant, divided by its first nonzero entry, which becomes the
    scale (as `StratumData.normalized` would); the free lambdas are
    exactly the nonzero ones."""
    field = h.field
    r = h.r
    cuts = stratum_of(h)
    bounds = [0, *cuts, r]
    s = len(cuts) + 1
    us = [scaled(field, [list(row) for row in u]) for u in h.u]
    vfilt: list = []
    wfilt: list = []
    for t, rho in enumerate(cuts):
        ker = _kernel_of_wedge_map(field, us[rho - 1][0], r, rho)
        if len(ker) != r - rho:
            raise NotOnStratum(
                f"recovered V^{t+1} has dimension {len(ker)}, expected {r - rho}"
            )
        vfilt.append(qlinalg.scaled_row_basis(field, ker))
        span = _support(field, us[rho - 1][0], r, rho)
        if len(span[0]) != rho:
            raise NotOnStratum(
                f"recovered W_{t+1} has dimension {len(span[0])}, expected {rho}"
            )
        wfilt.append(span)
    v_flag = _flag_blocks(field, r, vfilt[::-1])
    if v_flag is None:
        raise NotOnStratum("recovered V filtration is not nested")
    w_flag = _flag_blocks(field, r, wfilt)
    if w_flag is None:
        raise NotOnStratum("recovered W filtration is not nested")
    free = {rho: h.lams[rho - 1] for rho in range(1, r) if rho not in set(cuts)}
    a, b = _columns(v_flag[0][::-1], v_flag[1]), _columns(*w_flag)
    b_inv = qlinalg.scaled_inverse(field, *b)
    if b_inv is None:
        raise InternalError("adapted basis B is singular")
    top = bounds[s - 1] + 1
    wb = scaled_compounds(field, b_inv, top)
    wa = scaled_compounds(field, a, top)
    free_or_one = tuple(free.get(rho, field.one()) for rho in range(1, r))
    maps = []
    graded = []
    scales = []
    lead = field.one()
    for sigma in range(1, s + 1):
        rho = bounds[sigma - 1] + 1
        index = {sub: i for i, sub in enumerate(wedge_subsets(r, rho))}
        lo, hi = bounds[sigma - 1], bounds[sigma]
        base_block = tuple(range(lo))
        # the block of u_rho in adapted bases on the wedge coordinates
        # that use all of blocks 1..sigma-1 and one index of block sigma
        block = [index[base_block + (t,)] for t in range(lo, hi)]
        (wb_n, wb_d), (wa_n, wa_d) = wb[rho - 1], wa[rho - 1]
        left = scaled_mul(field, ([wb_n[i] for i in block], wb_d), us[rho - 1])
        phi = scaled_mul(field, left, ([[row[j] for j in block] for row in wa_n], wa_d))
        # the entries of u_rho outside this block must vanish on a genuine
        # stratum point (checked globally by the rebuild below)
        mono = lambda_monomial(field, free_or_one, rho)
        denom = field.mul(field.inv(mono), lead)
        if field.is_zero(denom):
            raise NotOnStratum("degenerate scaling while extracting graded maps")
        tilde = scaled_times(field, field.inv(denom), phi)
        normal = _normalize(field, tilde)
        if normal is None:
            raise NotOnStratum(f"graded map {sigma} vanishes")
        block_det = qlinalg.scaled_det(field, *tilde)
        if field.is_zero(block_det):
            raise NotOnStratum(f"graded map {sigma} is singular")
        maps.append(tilde)
        scales.append(normal[0])
        graded.append(normal[1])
        lead = field.mul(lead, block_det)
    data = StratumData(
        field,
        r,
        tuple(cuts),
        tuple(tuple(map(tuple, unscaled(field, m))) for m in vfilt),
        tuple(tuple(map(tuple, unscaled(field, m))) for m in wfilt),
        tuple(graded),
        tuple(scales),
        tuple(sorted(free.items())),
    )
    # scaled forms are unique; the lambdas of the rebuild are h's own
    if _stratum_point(data, a, b, maps) != us:
        raise NotOnStratum("point does not satisfy the stratum relations")
    return data


# ---------------------------------------------------------------------------
# Lang map


def lang_isogeny(g, q: int, field: GF):
    """tau(g)^{-1} g where tau raises every entry to the q-th power."""
    if not isinstance(field, GF):
        raise InvalidData("the Lang map needs a finite field")
    p = field.p
    qq = q
    while qq > 1 and qq % p == 0:  # q = 0 would never leave the loop
        qq //= p
    if qq != 1 or q < 2:
        raise InvalidData("q must be a positive power of the characteristic")
    if any(len(row) != len(g) for row in g):
        raise InvalidData("matrix must be square")
    tg = [[field.frobenius(x, q) for x in row] for row in g]
    tg_inv = qlinalg.inverse(field, tg)
    if tg_inv is None:  # det tau(g) = tau(det g), so g is singular too
        raise Singular("matrix must be invertible")
    return fmat_mul(field, tg_inv, g)
