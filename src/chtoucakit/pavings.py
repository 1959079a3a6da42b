"""Integer pavés and pavings of the simplex, regular subdivisions,
their secondary cones, admissibility (with an LP witness) and
q-admissibility, and the enumeration of admissible pavings as the faces
of one secondary cone.

A pavé is the region cut out of the simplex by inequalities
sum_{j in J} x_j >= d_J for a supermodular integer profile (d_J); it is
stored as its saturated set of lattice points together with the derived
profile.  A paving covers the simplex with pavés with pairwise disjoint
interiors.  For n <= 2 every pavé is a union of unit cells (segments or
unit triangles), which makes coverage and disjointness exact integer
bookkeeping.  A pavé has interior exactly when its lattice points have
integer rank n+1.

A paving is admissible exactly when some height function is affine on
each pavé's lattice points and strictly larger elsewhere; the closure of
that set of height classes is the pavé-wise secondary cone, computed
here in the coordinates of the integer quotient lattice.  Each
configuration has one secondary cone built by double description, that
of the unit-cell triangulation T, cut out by one fold row (a primitive
integer affine dependency) per wall of T.  Every paving coarsens T, so
`sigma_cone` reads its cone off T's as a face, and admissibility off
the fold rows that vanish on that face; `enumerate_admissible_pavings`
reads the pavings off the faces the same way.  `is_admissible` decides
admissibility by exact rational LP with a maximized slack variable, so
strict feasibility is an honest boolean, and returns the LP's height
function as a witness, the one use of the LP; q-admissibility is read
off the secondary cone.
The regular subdivision of a height function is read off the lower
facets of the lifted points (Gelfand-Kapranov-Zelevinsky, ch. 7;
De Loera-Rambau-Santos, *Triangulations*, ch. 2), from one integer
double description.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, product
from math import comb, lcm
from operator import ge

from . import zlattice
from .errors import (
    EmptyInterior,
    InternalError,
    InvalidData,
    NotAdmissible,
    NotAPave,
    NotAPaving,
    TooLarge,
    WrongDimension,
)
from .fans import (
    Cone,
    Fan,
    _dot,
    _incidence,
    double_description,
    face,
    face_masks,
)
from .ratlp import max_slack
from .simplex_core import (
    ENUMERATION_POINT_CAP,
    LatticeFunction,
    Point,
    check_simplex,
    enumerate_lattice_points,
    point_key,
    quotient_lattice,
)

ENUMERATION_N_CAP = 2  # unit-cell machinery covers n <= 2 (r >= 2)
# per-(r, n) caches: bounded above the 18 configurations 1 <= n <= 2
# under ENUMERATION_POINT_CAP
CONFIG_CACHE_SIZE = 64


def _subsets(n: int):
    """All subsets of {0,...,n} as sorted tuples, by size."""
    return [J for k in range(n + 2) for J in combinations(range(n + 1), k)]


def _proper_nonempty_subsets(n: int):
    return [J for J in _subsets(n) if 0 < len(J) < n + 1]


@dataclass(frozen=True)
class PaveProfile:
    r: int
    n: int
    d: tuple[tuple[tuple[int, ...], int], ...]  # ((J, d_J), ...) sorted

    def as_dict(self) -> dict[tuple[int, ...], int]:
        return dict(self.d)


@dataclass(frozen=True)
class IntegerPave:
    r: int
    n: int
    points: tuple[Point, ...]  # sorted lexicographically
    profile: PaveProfile

    def key(self):
        return (len(self.points), self.points)

    def point_set(self) -> frozenset:
        return frozenset(self.points)

    @cached_property
    def cell_mask(self) -> int:
        """Bitmask of the unit cells contained in the pavé (n <= 2), built
        once per pavé.  A cell is in the pavé iff all its vertices are,
        and its vertices are lattice points of the simplex, so they lie in
        the pavé exactly when they are among its points."""
        points = self.point_set()
        mask = 0
        for idx, cell in enumerate(unit_cells(self.r, self.n)):
            if points.issuperset(cell):
                mask |= 1 << idx
        return mask


def _check_supermodular(d: list, n: int, subsets, quads) -> None:
    """Raise NotAPave unless the profile d, its values on the subsets of
    {0,...,n} in the order ``subsets``, is supermodular.

    The local exchange condition d[S+i] + d[S+j] <= d[S] + d[S+i+j], for
    every S and i < j outside S (the index quadruples ``quads``), is
    equivalent to supermodularity over all pairs of subsets (Schrijver,
    *Combinatorial Optimization*, sec. 44.1).  Only when it fails are all
    pairs scanned, so that the error names the first failing pair in the
    order of `_subsets`."""
    if all(d[sa] + d[sb] <= d[s] + d[sab] for s, sa, sb, sab in quads):
        return
    d = dict(zip(subsets, d))
    for j1, j2 in product(_subsets(n), repeat=2):
        union = tuple(sorted(set(j1) | set(j2)))
        inter = tuple(sorted(set(j1) & set(j2)))
        if d[j1] + d[j2] > d[union] + d[inter]:
            raise NotAPave(f"profile not supermodular at {j1}, {j2}")


@lru_cache(maxsize=CONFIG_CACHE_SIZE)
def _pave_table(r: int, n: int):
    """The subsets of {0,...,n} in sorted order (that of `PaveProfile.d`),
    each lattice point with its vector of sums over them, and the index
    quadruples of the local exchange test of `_check_supermodular`.  No
    table grows past that of S^{1,CAP-1}, the largest the enumeration cap
    admits: CAP points with 2^CAP sums each."""
    check_simplex(r, n)
    if comb(r + n, n) << (n + 1) > ENUMERATION_POINT_CAP << ENUMERATION_POINT_CAP:
        raise TooLarge(f"the pavé table of S^{{{r},{n}}} exceeds the enumeration cap")
    subsets = sorted(_subsets(n))
    index = {sum(1 << j for j in J): k for k, J in enumerate(subsets)}
    sums = {p: tuple(sum(p[j] for j in J) for J in subsets) for p in enumerate_lattice_points(r, n)}
    quads = tuple(
        (k, index[s | a], index[s | b], index[s | a | b])
        for s, k in index.items()
        for a, b in combinations([1 << j for j in range(n + 1) if not s >> j & 1], 2)
    )
    return subsets, sums, quads


def pave_from_points(r: int, n: int, points) -> IntegerPave:
    """Build the pavé determined by a set of lattice points.

    The profile is d_J = min over the points of sum_{j in J} x_j; the
    construction fails (NotAPave) if the profile is not supermodular or
    if the region it cuts out contains lattice points beyond the input,
    and fails (EmptyInterior) if the points do not have integer rank
    n+1, i.e. the region has no interior.  The sums come from
    `_pave_table`, so nothing is summed per call."""
    pts = sorted({tuple(int(x) for x in p) for p in points}, key=point_key)
    if not pts:
        raise NotAPave("empty point set")
    subsets, sums, quads = _pave_table(r, n)
    for p in pts:
        if p not in sums:
            raise NotAPave(f"{p} is not a lattice point of the simplex")
    d = list(map(min, zip(*[sums[p] for p in pts])))
    _check_supermodular(d, n, subsets, quads)
    # every input point meets each d_J, which is its minimum, so only
    # the other lattice points can show the region to be larger (the
    # sums over J = {} and J = everything are 0 and r at every point)
    given = set(pts)
    extra = [p for p, v in sums.items() if p not in given and all(map(ge, v, d))]
    if extra:
        raise NotAPave(f"reconstruction mismatch: region also contains {extra[:3]}")
    # d is an integer supermodular profile, so the region is an integral
    # base polytope (Edmonds 1970): the hull of its lattice points, which
    # are pts.  It has interior exactly when pts span the hyperplane
    # sum x = r, i.e. have rank n+1; otherwise the points satisfy the
    # system and the largest slack of a strict solution is exactly 0.
    if zlattice.int_rank(pts) != n + 1:
        raise EmptyInterior("pave has empty interior (slack 0)")
    profile = PaveProfile(r, n, tuple(zip(subsets, d)))
    return IntegerPave(r, n, tuple(pts), profile)


# ---------------------------------------------------------------------------
# unit cells (n <= 2): exact volume and coverage bookkeeping


@lru_cache(maxsize=CONFIG_CACHE_SIZE)
def unit_cells(r: int, n: int) -> tuple[tuple[Point, ...], ...]:
    """Vertex sets of the unit cells tiling the simplex (n <= 2)."""
    if n == 0:
        return (((r,),),)
    if n == 1:
        return tuple(((r - k, k), (r - k - 1, k + 1)) for k in range(r))
    if n == 2:
        cells = []
        for a in range(r):
            for b in range(r - a):
                c = r - 1 - a - b
                cells.append(((a + 1, b, c), (a, b + 1, c), (a, b, c + 1)))
        for a in range(r - 1):
            for b in range(r - 1 - a):
                c = r - 2 - a - b
                cells.append(((a + 1, b + 1, c), (a + 1, b, c + 1), (a, b + 1, c + 1)))
        return tuple(sorted(cells, key=lambda c: tuple(point_key(v) for v in c)))
    raise TooLarge("unit-cell decomposition implemented for n <= 2 only")


@dataclass(frozen=True)
class Paving:
    r: int
    n: int
    paves: tuple[IntegerPave, ...]  # sorted by canonical pavé key

    def key(self):
        return tuple(p.key() for p in self.paves)

    def __hash__(self):
        return hash((self.r, self.n, self.key()))


def paving_from_paves(r: int, n: int, paves) -> Paving:
    """Assemble and validate a paving: pavés tile the simplex exactly
    (disjoint unit-cell sets whose union is everything)."""
    paves = tuple(sorted(paves, key=lambda p: p.key()))
    if any(p.r != r or p.n != n for p in paves):
        raise NotAPaving("mixed simplex parameters")
    if not paves:
        raise NotAPaving("no paves")
    if n > 2 and len(paves) > 1:
        raise TooLarge("paving validation implemented for n <= 2 only")
    if n > 2:
        if set(paves[0].points) != set(enumerate_lattice_points(r, n)):
            raise NotAPaving("only the trivial paving is supported for n > 2")
        return Paving(r, n, paves)
    total = (1 << len(unit_cells(r, n))) - 1
    acc = 0
    for p in paves:
        m = p.cell_mask
        if acc & m:
            raise NotAPaving("pave interiors overlap")
        acc |= m
    if acc != total:
        raise NotAPaving("paves do not cover the simplex")
    return Paving(r, n, paves)


def paving_from_point_sets(r: int, n: int, sets) -> Paving:
    return paving_from_paves(r, n, [pave_from_points(r, n, s) for s in sets])


def trivial_paving(r: int, n: int) -> Paving:
    return paving_from_paves(
        r, n, [pave_from_points(r, n, enumerate_lattice_points(r, n))]
    )


def refines(p: Paving, q: Paving) -> bool:
    """True iff every pavé of p is contained, as a lattice-point set, in
    some pavé of q."""
    if (p.r, p.n) != (q.r, q.n):
        raise WrongDimension("pavings of different simplices")
    qsets = [frozenset(x.points) for x in q.paves]
    return all(any(frozenset(a.points) <= qs for qs in qsets) for a in p.paves)


# ---------------------------------------------------------------------------
# regular subdivisions


def regular_subdivision(h: LatticeFunction) -> Paving:
    """The paving by the domains of affinity of the largest affine
    minorant of h, read off the lower hull of the lifted points.

    With D the common denominator of the heights, each lattice point p
    is lifted to the integer vector (p, D h(p)); one double description
    of the cone spanned by these and the upward direction gives its
    facet normals y = (y_x, y_z), and the lower facets are those with
    y_z > 0.  A lower facet carries the affine function
    f_y(p) = -(y_x . p) / y_z of D h, the envelope is the largest f_y,
    and a facet's cell is the full set of lattice points where f_y
    attains the envelope (points lifted above the hull included).  All
    comparisons are integer cross-multiplications.  Cells are checked in
    canonical order; if one is not an integer pavé (its lattice points
    do not reconstruct it), the height function is degenerate for this
    configuration and NotAPaving is raised."""
    r, n = h.r, h.n
    pts = enumerate_lattice_points(r, n)
    scale = lcm(*(v.denominator for v in h.values))
    lifted = [p + (v.numerator * (scale // v.denominator),) for p, v in zip(pts, h.values)]
    up = (0,) * (n + 1) + (1,)
    _, normals = double_description([up] + lifted, n + 2)
    # f_y(p) = num / y_z, with num = -(y_x . p) and y_z > 0
    lower = [
        ([-sum(a * x for a, x in zip(y, p)) for p in pts], y[-1])
        for y in normals
        if y[-1] > 0
    ]
    if not lower:
        raise InternalError("lifted points have no lower facet")
    env = []
    for i in range(len(pts)):
        best, best_den = lower[0][0][i], lower[0][1]
        for nums, den in lower[1:]:
            if nums[i] * best_den > best * den:
                best, best_den = nums[i], den
        env.append((best, best_den))
    cells = sorted({
        tuple(i for i, (e, e_den) in enumerate(env) if nums[i] * e_den == e * den)
        for nums, den in lower
    })
    try:
        paves = [pave_from_points(r, n, [pts[i] for i in c]) for c in cells]
        return paving_from_paves(r, n, paves)
    except NotAPave as e:
        raise NotAPaving(f"degenerate heights: {e}") from e


# ---------------------------------------------------------------------------
# admissibility


@dataclass
class AdmissibilityResult:
    admissible: bool
    delta: Fraction
    witness: LatticeFunction | None


def _cell_assignment(paving: Paving):
    """For each lattice point, the index of the first pavé containing it."""
    pts = enumerate_lattice_points(paving.r, paving.n)
    owner = {}
    for idx, pave in enumerate(paving.paves):
        for p in pave.points:
            owner.setdefault(p, idx)
    missing = [p for p in pts if p not in owner]
    if missing:
        raise NotAPaving(f"points not covered: {missing[:3]}")
    return owner


def interior_walls(paving: Paving):
    """Pairs (k, l, shared, witness): cells k < l sharing an (n-1)-wall
    (their common lattice points span dimension n-1), with a lattice
    point of cell l off the wall as the fold witness."""
    out = []
    paves = paving.paves
    for k in range(len(paves)):
        set_k = paves[k].point_set()
        for l in range(k + 1, len(paves)):
            shared = [p for p in paves[l].points if p in set_k]
            if shared and zlattice.int_rank(shared) == paving.n:
                witness = next(p for p in paves[l].points if p not in set_k)
                out.append((k, l, tuple(shared), witness))
    return out


def _admissibility_lp(paving: Paving):
    """LP over per-pavé affine coefficients c_k in R^{n+1} (the constant
    is absorbed since sum x = r on the simplex).

    The height function is h = c_k . x on pavé k.  Admissibility is the
    local convexity of the glued function: continuity on the lattice
    points of every shared wall, and a strictly positive fold across it,
    which for a piecewise-affine function on a convex domain is
    equivalent to being the lower envelope with the pavés as domains of
    affinity.  Returns (delta, solution_vector)."""
    n = paving.n
    nvars = len(paving.paves) * (n + 1)

    def cell_row(k, x):
        row = [0] * nvars
        row[k * (n + 1):(k + 1) * (n + 1)] = x
        return row

    eq_rows = []
    ineq_rows = []
    for k, l, shared, witness in interior_walls(paving):
        for x in shared:
            row = [a - b for a, b in zip(cell_row(k, x), cell_row(l, x))]
            if any(row):
                eq_rows.append(row)
        # the witness sits in pavé l, where the envelope is c_l . x, and
        # pavé k's support must stay strictly below: (c_l - c_k) . w > 0
        ineq_rows.append([a - b for a, b in zip(cell_row(l, witness), cell_row(k, witness))])
    return max_slack(ineq_rows, eq_rows, nvars=nvars)


# the LP answers of `pavings check` and of the selftest sweeps; the
# enumeration runs no LP, so the bound need not hold a whole enumeration
CACHE_SIZE = 4096


@lru_cache(maxsize=CACHE_SIZE)
def is_admissible(paving: Paving) -> AdmissibilityResult:
    """Exact LP: is there a height function affine on every pavé's
    lattice points and strictly above the pavé's affine support
    elsewhere?  The witness induces the paving as its regular
    subdivision."""
    delta, sol = _admissibility_lp(paving)
    witness = None
    if delta > 0:
        n = paving.n
        owner = _cell_assignment(paving)
        vals = tuple(
            sum((sol[owner[x] * (n + 1) + j] * x[j] for j in range(n + 1)), Fraction(0))
            for x in enumerate_lattice_points(paving.r, n)
        )
        witness = LatticeFunction(paving.r, n, vals)
    return AdmissibilityResult(delta > 0, delta, witness)


def _dependency_row(lattice, basis: list[Point], x: Point) -> tuple[int, ...]:
    """The primitive integer affine dependency among an affine basis and
    x, with x's coefficient positive, as a row on quotient-lattice
    coordinates.  It is linear in the height values, and positive exactly
    on the heights lying above, at x, the affine function that agrees
    with them on the basis."""
    coords = list(zip(*basis))  # coordinate k of every basis point
    # the points lie on sum x = r, so a linear dependency is affine
    (dep,) = zlattice.int_kernel(
        [list(ck) + [xk] for ck, xk in zip(coords, x)], len(basis) + 1
    )
    if dep[-1] < 0:
        dep = [-c for c in dep]
    # restricted to the normal form: vertex coordinates are zero
    nonv_index = {p: i for i, p in enumerate(lattice.points)}
    row = [0] * lattice.rank
    for p, c in zip(basis + [x], dep):
        if p in nonv_index:
            row[nonv_index[p]] += c
    return lattice.nf_row_to_coord_row(row)


@lru_cache(maxsize=CONFIG_CACHE_SIZE)
def _unit_cone(r: int, n: int):
    """The unit-cell triangulation T, its walls (k, l) of
    `interior_walls`, its closed secondary cone, the cone's facet
    incidence (`fans.face` and `fans.face_masks` read every face off
    it), and per wall the bitmask of the cone's rays on which the
    wall's fold row vanishes (1 <= n <= 2, r >= 2).

    A unit cell's lattice points are an affine basis, so every height
    function is affine on each cell and the cone is cut out by the fold
    rows alone: the dependency row of cell k at the witness of wall
    (k, l), positive exactly when the heights fold upward across it."""
    finest = paving_from_point_sets(r, n, unit_cells(r, n))
    lattice = quotient_lattice(r, n)
    walls, folds = [], []
    for k, l, _, witness in interior_walls(finest):
        walls.append((k, l))
        folds.append(_dependency_row(lattice, list(finest.paves[k].points), witness))
    cone = Cone.from_hrep(lattice.rank, folds)
    if cone.lin:
        raise InternalError("secondary cone of the unit-cell triangulation has lineality")
    if any(_dot(row, ray) < 0 for row in folds for ray in cone.rays):
        raise InternalError("fold row negative on a ray of the unit-cell cone")
    return finest, walls, cone, _incidence(cone.ineqs, cone.rays), _incidence(folds, cone.rays)


def sigma_cone(paving: Paving) -> Cone:
    """The closed secondary cone of the paving in the integer quotient
    lattice, read off the cone of the unit-cell triangulation T.

    Heights are restricted to the canonical section (vanishing at the
    vertices) and rewritten in lattice-basis coordinates, so the cone is
    integral.  A continuous piecewise-affine function on a convex domain
    is convex exactly when it folds upward across every wall
    (De Loera-Rambau-Santos, *Triangulations*, ch. 2 and 5).  For n <= 2
    every pavé is a union of unit cells, so a height is affine on each
    pavé exactly when it lies in T's cone and its folds vanish across
    the walls of T inside one pavé: the paving's cone is the face of T's
    cone on the rays where all those folds vanish (Gelfand-Kapranov-
    Zelevinsky, ch. 7).  The paving is admissible (its open cone is
    non-empty) exactly when no fold across a wall between two pavés
    vanishes on that whole face.  A one-pavé paving has the zero cone."""
    r, n = paving.r, paving.n
    if len(paving.paves) == 1:
        return Cone.zero(quotient_lattice(r, n).rank)
    finest, walls, cone, facets, masks = _unit_cone(r, n)
    pave_of = [
        next(i for i, pave in enumerate(paving.paves) if pave.cell_mask & cell.cell_mask)
        for cell in finest.paves
    ]
    face_mask = (1 << len(cone.rays)) - 1
    for (k, l), t in zip(walls, masks):
        if pave_of[k] == pave_of[l]:
            face_mask &= t
    if any(
        pave_of[k] != pave_of[l] and face_mask & t == face_mask
        for (k, l), t in zip(walls, masks)
    ):
        raise NotAdmissible("paving has empty secondary cone")
    return face(cone, face_mask, facets)


def paving_fan(pavings) -> Fan:
    """Assemble the fan of secondary cones over a family of admissible
    pavings (tags record the paving keys)."""
    pavings = list(pavings)
    if not pavings:
        raise NotAPaving("empty paving family")
    rank = quotient_lattice(pavings[0].r, pavings[0].n).rank
    cones = tuple(sigma_cone(p) for p in pavings)
    tags = tuple(str(p.key()) for p in pavings)
    return Fan(rank, cones, tags)


# ---------------------------------------------------------------------------
# enumeration


def enumerate_admissible_pavings(r: int, n: int) -> tuple[Paving, ...]:
    """Deterministic enumeration of the admissible pavings.

    For n <= 2 every integer pavé is a union of unit cells, so every
    paving coarsens the unit-cell triangulation T, and the closed
    secondary cone of a regular coarsening of T is a face of T's closed
    cone (Gelfand-Kapranov-Zelevinsky, ch. 7; De Loera-Rambau-Santos,
    ch. 5).  Each face is read off its ray mask m, the relation of
    `sigma_cone` read the other way: the cells on the two sides of a wall
    of T lie in one pavé exactly when the wall's fold row vanishes on
    every ray of the face (m & t == m for the wall's mask t).  Output is
    sorted canonically (number of pavés, then lex on pavé point lists)."""
    check_simplex(r, n)
    if comb(r + n, n) > ENUMERATION_POINT_CAP:
        raise TooLarge(f"|S^{{{r},{n}}}| exceeds the enumeration cap")
    if r == 1 or n == 0:
        return (trivial_paving(r, n),)
    if n > ENUMERATION_N_CAP:
        raise TooLarge("enumeration capped at n <= 2 for r >= 2")
    finest, walls, cone, facets, masks = _unit_cone(r, n)
    cells = finest.paves
    paves = {1 << k: cell for k, cell in enumerate(cells)}  # by cell bitmask
    out = []
    for m in face_masks(cone, facets):
        root = list(range(len(cells)))

        def find(k):
            while root[k] != k:
                root[k] = root[root[k]]
                k = root[k]
            return k

        for (k, l), t in zip(walls, masks):
            if m & t == m:
                root[find(l)] = find(k)
        groups: dict[int, int] = {}
        for k in range(len(cells)):
            g = find(k)
            groups[g] = groups.get(g, 0) | 1 << k
        try:
            for group in groups.values():
                if group not in paves:
                    points = [p for k, c in enumerate(cells) if group >> k & 1 for p in c.points]
                    paves[group] = pave_from_points(r, n, points)
            out.append(paving_from_paves(r, n, [paves[g] for g in groups.values()]))
        except (NotAPave, EmptyInterior, NotAPaving) as e:
            raise InternalError(f"face of the unit-cell cone is not a paving: {e}") from e
    out.sort(key=lambda p: (len(p.paves), p.key()))
    return tuple(out)


# ---------------------------------------------------------------------------
# q-admissibility (n = 2)


def _twisted_rows(r: int, q: int) -> list[tuple[int, ...]]:
    """Equality rows, on quotient-lattice coordinates, of the classes of
    the twisted heights (h(0,i1,i2) = q h(i1,0,i2)) plus the affine ones:
    the integer functionals vanishing on the n+1 coordinate functions and
    on one twisted function per point with nonzero first coordinate,
    read on the non-vertex points."""
    lattice = quotient_lattice(r, 2)
    pts = enumerate_lattice_points(r, 2)
    functions = [list(col) for col in zip(*pts)]
    for f in pts:
        if f[0] != 0:
            # value 1 at f, q at each p with p0 = 0 and (p1, 0, p2) = f
            functions.append([1 if p == f else q if (p[1], 0, p[2]) == f else 0 for p in pts])
    index = {p: i for i, p in enumerate(pts)}
    return [
        lattice.nf_row_to_coord_row([w[index[p]] for p in lattice.points])
        for w in zlattice.int_kernel(functions, len(pts))
    ]


@lru_cache(maxsize=CONFIG_CACHE_SIZE)
def _twisted_cone(r: int, q: int) -> Cone:
    """C cap L: the unit-cell cone C of (r, 2) cut by `_twisted_rows`."""
    cone = _unit_cone(r, 2)[2]
    return Cone.from_hrep(cone.rank, cone.ineqs, cone.eqs + tuple(_twisted_rows(r, q)))


def is_q_admissible(paving: Paving, q: int) -> bool:
    """Do some height h inducing the paving and some affine a satisfy
    (h+a)(0,i1,i2) = q (h+a)(i1,0,i2) wherever the first coordinate
    vanishes?  That is, does the subspace L cut out by `_twisted_rows`
    meet the relative interior of the paving's cone F, a face of the
    unit-cell cone C?  F cap L is the face of C cap L on its rays in F,
    so it does when their sum is positive on F's facets (`relint_meets`)."""
    if paving.n != 2:
        raise WrongDimension("q-admissibility is defined for n = 2")
    if q < 2:
        raise InvalidData("q must be at least 2")
    try:
        cone = sigma_cone(paving)
    except NotAdmissible:
        return False
    rays = [v for v in _twisted_cone(paving.r, q).rays if cone.contains_vector(v)]
    return all(sum(_dot(a, v) for v in rays) > 0 for a in cone.ineqs)


def pave_edge_count(pave: IntegerPave) -> int:
    """Number of edges of the pavé as a lattice polygon (n = 2 only).

    Every edge is parallel to some e_i - e_j, so it lies on the line
    x_k = const and bounds the pavé from one side: it is the face where
    the inequality sum_J x >= d_J of exactly one proper J ({k} or
    {i, j}) is tight, and that face is an edge exactly when it holds at
    least two lattice points."""
    if pave.n != 2:
        raise WrongDimension("edge counting is defined for n = 2")
    return sum(
        sum(sum(p[j] for j in J) == d for p in pave.points) >= 2
        for J, d in pave.profile.d
        if 0 < len(J) < 3
    )


def clear_caches():
    is_admissible.cache_clear()
    _pave_table.cache_clear()
    _unit_cone.cache_clear()
    _twisted_cone.cache_clear()
    unit_cells.cache_clear()
