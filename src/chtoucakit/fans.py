"""Rational polyhedral cones in a fixed-rank lattice: double description,
duality, face tests, fan-axiom verification, dual-monoid generators, and
the character-lattice exactness checks for the simplex tori.

Cones are stored canonically: the lineality space as a Hermite-basis of
the saturated integer kernel, extreme rays primitive and reduced modulo
the lineality, both sorted; the H-description mirrors this as equality
rows plus facet rows.  Equality of cones is equality of canonical data,
and the dual cone is the same data with the two sides swapped.

The double description method runs incrementally over facet rows
(Fukuda & Prodon, *Double description method revisited*, 1996).  Each
ray carries the set of processed rows tight on it as an int bitmask,
updated as rays are cut, kept or combined rather than recomputed.  Two
rays are adjacent exactly when no third ray is tight on every row tight
on both (the combinatorial test, a pure bitmask scan), and a pair with
fewer common tight rows than dim - dim(lineality) - 2 is skipped before
the scan.  All arithmetic is exact.

Each cone takes one double description, of its inequality rows; the
equalities are the integer kernel of the generators it returns, and the
facets are the rows with maximal tight-ray sets.  A cone given by
generators is the dual of the cone those generators cut out as rows.

Faces are read off the ray-facet incidence of a canonical cone, computed
once (Ziegler, *Lectures on Polytopes*, ch. 2): the faces are the
intersections of the facets' tight-ray sets, and `t` is a face of `c`
exactly when its rays are the rays of `c` on every facet tight on `t`.
A face's H-description comes from the same incidence by bit-ands: its
equalities are the integer kernel of its generators, and its facets are
its maximal intersections with the facets of `c`.  The faces of a face
are the faces of `c` whose ray masks lie inside its own, so `verify_fan`
reads the face lattice off the maximal members alone, as keys, and
intersects only the pairs that no two properly meeting maximal members
cover; its report lists the missing zero cone, faces, then pairs.

The dual monoid's generators come from the lattice points of fundamental
parallelepipeds (Bruns-Ichim, *Normaliz*, J. Algebra 324, 2010), with
no search box: every enumeration is counted against one cap first.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations, product
from math import comb

from . import zlattice
from .errors import InternalError, TooLarge
from .simplex_core import (
    ENUMERATION_POINT_CAP,
    enumerate_lattice_points,
    point_index,
    quotient_lattice,
    scaled_normal_form,
    vertices,
)

# explicit desk-scale caps for the expensive feature-flagged computations;
# the point cap bounds each enumeration of `monoid_generators` (subsets
# of rays, parallelepiped points, class members), checked before it runs,
# and the report cap the entries of one `verify_fan` report
MONOID_RANK_CAP = 4
MONOID_POINT_CAP = 10_000
FAN_REPORT_CAP = 100_000


def _dot(a, b) -> int:
    return sum(map(operator.mul, a, b))


def _unit_rows(k: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(k)) for i in range(k))


def _saturate(vectors: list[tuple[int, ...]], dim: int) -> list[tuple[int, ...]]:
    """HNF basis of the saturated lattice Z^dim intersect span(vectors):
    the integer kernel of its integer kernel."""
    return zlattice.int_kernel(zlattice.int_kernel(vectors, dim), dim)


def _is_saturated(rows, dim: int) -> bool:
    """Is the lattice spanned by ``rows`` saturated in Z^dim?  HNF bases
    are unique, so compare its HNF with that of its saturation."""
    return [tuple(row) for row in zlattice.hnf(rows)] == _saturate(rows, dim)


def _reduce_mod_lineality(ray, lin_rows) -> tuple[int, ...]:
    """Canonical primitive representative of a ray modulo the lineality
    lattice (zero out the Hermite pivot coordinates).  Hermite pivots
    are positive, so each integer step keeps the direction of the
    rational reduction."""
    v = ray
    for b in lin_rows:
        piv = next(j for j, x in enumerate(b) if x != 0)
        if v[piv] != 0:
            v = [b[piv] * x - v[piv] * y for x, y in zip(v, b)]
    return zlattice.primitive_ray(v)


def double_description(rows: list[tuple[int, ...]], dim: int):
    """Generators of {x : row . x >= 0 for all rows}.

    Returns (lineality_basis, rays): the lineality as a saturated HNF
    basis and the extreme rays (primitive, reduced mod lineality, sorted).
    The rays at each step are the extreme rays of the cone cut out so
    far, so the smallest face holding two holds the rays whose tight-row
    masks contain the and of theirs; they are adjacent when no third ray
    does (Fukuda & Prodon, LNCS 1120, 1996), whatever rows are redundant.
    """
    lin = list(_unit_rows(dim))
    # ray -> bitmask of the processed rows tight on it; ``bit``: the current row
    rays: dict[tuple[int, ...], int] = {}
    bit = 1

    for a in rows:
        if not any(a):
            continue
        lin_dots = [_dot(a, l) for l in lin]
        k = next((i for i, d in enumerate(lin_dots) if d != 0), None)
        if k is not None:
            # cut the lineality: every processed row vanishes on it, so the
            # cut ray is tight on all of them and the shifted vectors keep
            # their tight sets and become tight on ``a``
            cut, al = lin[k], lin_dots[k]
            if al < 0:
                cut, al = tuple(-x for x in cut), -al
            new_lin = []
            for l, d in zip(lin, lin_dots):
                adj = tuple(al * x - d * y for x, y in zip(l, cut))
                if any(adj):
                    new_lin.append(zlattice.primitive(adj))
            lin = new_lin
            new_rays = {zlattice.primitive_ray(cut): bit - 1}
            for r, mask in rays.items():
                d = _dot(a, r)
                adj = tuple(al * x - d * y for x, y in zip(r, cut))
                if any(adj):
                    new_rays[zlattice.primitive_ray(adj)] = mask | bit
        else:
            sides = [(r, mask, _dot(a, r)) for r, mask in rays.items()]
            new_rays = {r: mask | bit if d == 0 else mask for r, mask, d in sides if d >= 0}
            plus = [s for s in sides if s[2] > 0]
            minus = [s for s in sides if s[2] < 0]
            masks = list(rays.values())
            # adjacent rays share tight rows of rank dim - len(lin) - 2, so
            # never fewer rows than that, and no third ray is tight on them
            need = dim - len(lin) - 2
            for rp, mp, dp in plus:
                for rm, mm, dm in minus:
                    common = mp & mm
                    if common.bit_count() < need or any(
                        o & common == common and o != mp and o != mm for o in masks
                    ):
                        continue
                    combo = tuple(dp * x - dm * y for x, y in zip(rm, rp))
                    # a positive combination of two feasible rays is tight
                    # exactly where both are
                    new_rays.setdefault(zlattice.primitive_ray(combo), common | bit)
        rays = new_rays
        bit <<= 1

    lin = _saturate(lin, dim)
    canon = {_reduce_mod_lineality(r, lin) for r in rays}
    return lin, sorted(red for red in canon if any(red))


def _incidence(rows, vectors) -> list[int]:
    """For each row, the bitmask of the vectors it vanishes on."""
    return [sum(1 << i for i, v in enumerate(vectors) if _dot(row, v) == 0) for row in rows]


def _maximal_reduced(rows, masks, full, basis) -> tuple[tuple[int, ...], ...]:
    """The rows whose masks are maximal among those other than ``full``,
    each reduced modulo ``basis``; sorted, without repeats.

    Read off a ray-facet incidence, these are the facets of a cone (rows:
    valid inequalities, masks: their tight rays) or its extreme rays
    (rows: generators, masks: their tight facets), in canonical form."""
    cuts: dict[int, tuple[int, ...]] = {}
    for row, s in zip(rows, masks):
        if s != full:
            cuts.setdefault(s, row)
    return tuple(sorted({
        _reduce_mod_lineality(row, basis)
        for s, row in cuts.items()
        if not any(s != o and s & o == s for o in cuts)
    }))


@dataclass(frozen=True)
class Cone:
    """A closed rational polyhedral cone in Z^rank, canonical form.

    Both representations are canonical: ``lin`` and ``eqs`` are saturated
    HNF bases, ``rays`` and ``ineqs`` primitive rows reduced modulo them
    and sorted.  Every cone is built by one of the two constructors,
    ``face`` or ``dual_cone``, which keep this invariant; the
    dual of a cone is then its two representations swapped."""

    rank: int
    lin: tuple[tuple[int, ...], ...]  # lineality lattice basis (HNF)
    rays: tuple[tuple[int, ...], ...]  # extreme rays mod lineality, sorted
    eqs: tuple[tuple[int, ...], ...]  # implied equalities (HNF basis)
    ineqs: tuple[tuple[int, ...], ...]  # facet rows, canonical

    @staticmethod
    def from_hrep(rank: int, ineqs, eqs=()) -> "Cone":
        """One double description gives the generators; the equalities
        are their integer kernel, and the facets are the input rows with
        maximal tight-ray sets."""
        rows = [tuple(int(x) for x in r) for r in ineqs]
        for e in eqs:
            rows += [tuple(int(x) for x in e), tuple(-int(x) for x in e)]
        rows = list(dict.fromkeys(rows))
        lin, rays = double_description(rows, rank)
        eqs = zlattice.int_kernel(list(rays) + lin, rank)
        ineqs = _maximal_reduced(rows, _incidence(rows, rays), (1 << len(rays)) - 1, eqs)
        return Cone(rank, tuple(lin), tuple(rays), tuple(eqs), ineqs)

    @staticmethod
    def from_generators(rank: int, gens) -> "Cone":
        """The cone spanned by ``gens``: the dual of the cone cut out by
        them as inequality rows (one double description)."""
        return dual_cone(Cone.from_hrep(rank, gens))

    @staticmethod
    def zero(rank: int) -> "Cone":
        """The cone {0}: no generators, and the unit rows as equalities."""
        return Cone(rank, (), (), _unit_rows(rank), ())

    @staticmethod
    def full(rank: int) -> "Cone":
        return dual_cone(Cone.zero(rank))

    def generators(self) -> list[tuple[int, ...]]:
        return list(self.rays) + [v for b in self.lin for v in (b, tuple(-x for x in b))]

    def contains_vector(self, v) -> bool:
        return all(_dot(e, v) == 0 for e in self.eqs) and all(
            _dot(a, v) >= 0 for a in self.ineqs
        )

    def contains_cone(self, other: "Cone") -> bool:
        return all(self.contains_vector(g) for g in other.generators())

    def key(self):
        return (self.rank, self.lin, self.rays)

    def __eq__(self, other):
        return isinstance(other, Cone) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def intersect(self, other: "Cone") -> "Cone":
        return Cone.from_hrep(
            self.rank,
            list(self.ineqs) + list(other.ineqs),
            list(self.eqs) + list(other.eqs),
        )

    def transform(self, umat: list[list[int]]) -> "Cone":
        """Image under an integer linear map (rows act on coordinates)."""
        gens = [
            tuple(sum(umat[i][j] * g[j] for j in range(self.rank)) for i in range(len(umat)))
            for g in self.generators()
        ]
        return Cone.from_generators(len(umat), gens)


def dual_cone(c: Cone) -> Cone:
    """The closed dual {y : y(g) >= 0 for all generators g}: its
    lineality is c's equalities, its rays c's facet rows, and the other
    way round; both sides are already canonical."""
    return Cone(c.rank, c.eqs, c.ineqs, c.lin, c.rays)


def is_face(t: Cone, c: Cone) -> bool:
    """Standard face-lattice test: t is the intersection of c with the
    valid inequalities tight on it (c counts as a face of itself).  That
    intersection is the face of c spanned by its lineality and its rays
    on every facet tight on t, so canonical data decide it."""
    if t.rank != c.rank or not c.contains_cone(t):
        return False
    tgens = t.generators()
    tight = [row for row in c.ineqs if all(_dot(row, g) == 0 for g in tgens)]
    rays = tuple(r for r in c.rays if all(_dot(row, r) == 0 for row in tight))
    return (t.lin, t.rays) == (c.lin, rays)


def face_masks(c: Cone, facets: list[int]) -> set[int]:
    """The faces of c as bitmasks over c.rays, c itself included, from
    its facet incidence ``facets`` (`_incidence(c.ineqs, c.rays)`).

    A face is determined by the rays of c it contains, and those ray sets
    are the intersections of the facets' tight-ray sets; the full mask,
    on which no facet is tight, stands for c."""
    masks = {(1 << len(c.rays)) - 1} | set(facets)
    frontier = list(facets)
    while frontier:
        new = []
        for f in frontier:
            for g in facets:
                m = f & g
                if m not in masks:
                    masks.add(m)
                    new.append(m)
        frontier = new
    return masks


def face(c: Cone, m: int, facets: list[int]) -> Cone:
    """The face of c with ray mask m (one of `face_masks(c, facets)`),
    read off the facet incidence ``facets`` of c.

    The face F keeps c.lin; its equalities are the integer kernel of its
    generators.  Its facets are its maximal intersections with the
    facets G of c not containing it, whose ray masks ``facets[j] & m``
    stay in c's bit positions (only their inclusions matter); each is
    cut out by one such G, reduced modulo F's equalities."""
    lin_gens = [v for b in c.lin for v in (b, tuple(-x for x in b))]
    rays = tuple(r for i, r in enumerate(c.rays) if m >> i & 1)
    eqs = tuple(tuple(e) for e in zlattice.int_kernel(list(rays) + lin_gens, c.rank))
    ineqs = _maximal_reduced(c.ineqs, [t & m for t in facets], m, eqs)
    return Cone(c.rank, c.lin, rays, eqs, ineqs)


def proper_faces(c: Cone) -> set[Cone]:
    """All faces of c other than c itself (the zero cone included when
    c is pointed), from one facet incidence."""
    facets = _incidence(c.ineqs, c.rays)
    full = (1 << len(c.rays)) - 1
    return {face(c, m, facets) for m in face_masks(c, facets) if m != full}


def relint_meets(c1: Cone, c2: Cone, inter: Cone | None = None) -> bool:
    """Do the relative interiors intersect?  Read off inter = c1 & c2,
    intersected here unless given, with no LP.  The sum x of inter's rays
    lies in inter's relative interior.  If inter meets the relative
    interior of c1, it lies in no proper face of c1, and neither does x
    (Rockafellar, *Convex Analysis*, cor. 6.5.2); likewise for c2.  So
    the relative interiors meet exactly when x is strictly positive on
    every facet row of c1 and of c2."""
    inter = c1.intersect(c2) if inter is None else inter
    x = [sum(col) for col in zip(*inter.rays)] or [0] * inter.rank
    return all(_dot(a, x) > 0 for a in c1.ineqs + c2.ineqs)


@dataclass
class FanReport:
    ok: bool
    rank: int
    n_cones: int
    failures: list[tuple] = field(default_factory=list)


@dataclass(frozen=True)
class Fan:
    rank: int
    cones: tuple[Cone, ...]
    tags: tuple[str, ...] = ()  # parallel labels (e.g. paving keys)


def verify_fan(fan: Fan) -> FanReport:
    """Check the fan axioms: the zero cone is present, every face of a
    member is a member, and every pair intersects in a common face with
    disjoint relative interiors.  The report lists the missing zero cone,
    each member's first missing face (in the set order of `proper_faces`),
    then each pair (i, j)'s violations in order; a report longer than
    FAN_REPORT_CAP raises TooLarge before it is built.

    Let c1, c2 be faces of maximal members M1, M2, where M1 = M2 or
    M1 cap M2 is a common face with disjoint relative interiors.  Then
    c1 cap c2 is the face of both on their common rays, and distinct
    faces of a cone have disjoint relative interiors (Rockafellar,
    *Convex Analysis*, sec. 18): the pair breaks an axiom only if it
    repeats a member or that face is missing, and then both miss a face.
    Only maximal pairs and pairs no such M1, M2 cover are intersected."""
    index: dict[Cone, list[int]] = {}  # member -> its indices
    for idx, c in enumerate(fan.cones):
        index.setdefault(c, []).append(idx)
    maximal, covers, key = _maximal_members(index)
    present = set(key.values())
    # per maximal member, the ray bits of its minimal faces that are absent
    lacking: list[list[int]] = [[] for _ in maximal]
    for k in sorted(covers.keys() - present, key=lambda k: k[2].bit_count()):
        for a, gs in enumerate(lacking):
            if covers[k] >> a & 1 and not any(g & k[2] == g for g in gs):
                gs.append(k[2])
    incomplete = [c for c in index if any(
        g & key[c][2] == g for g in lacking[covers[key[c]].bit_length() - 1])]
    head = [("missing_zero_cone",)] if Cone.zero(fan.rank) not in index else []
    room = FAN_REPORT_CAP - len(head) - sum(len(index[c]) for c in incomplete)
    pairs: list[tuple] = []

    def add(kinds, ij, count):
        if len(pairs) + len(kinds) * count > room:
            raise TooLarge(f"fan report exceeds {FAN_REPORT_CAP} entries")
        pairs.extend((kind, *sorted(p)) for p in ij for kind in kinds)

    for i in index.values():
        add(["duplicate_cone"], combinations(i, 2), comb(len(i), 2))
    near = [1 << a for a in range(len(maximal))]  # maximal members meeting properly
    meets = {}
    for (a, m1), (b, m2) in combinations(enumerate(maximal), 2):
        meets[m1, m2] = meets[m2, m1] = m1.intersect(m2)
        if not _meet_violations(m1, m2, meets[m1, m2]):
            near[a] |= 1 << b
            near[b] |= 1 << a
    reach = {s: reduce(operator.or_, (n for a, n in enumerate(near) if s >> a & 1))
             for s in set(covers.values())}
    ends = [(key[c], covers[key[c]], index[c]) for c in incomplete]
    for ((rank, lin, g1), s1, i1), ((_, _, g2), s2, i2) in combinations(ends, 2):
        if reach[s1] & s2 and (rank, lin, g1 & g2) not in present:
            add(["intersection_not_member"], product(i1, i2), len(i1) * len(i2))
    groups: dict[int, list[Cone]] = {}  # members by the maximal members over them
    for c in index:
        groups.setdefault(covers[key[c]], []).append(c)
    for (s, cs1), (t, cs2) in combinations(groups.items(), 2):
        if reach[s] & t:
            continue
        for c1, c2 in product(cs1, cs2):
            inter = meets[c1, c2] if (c1, c2) in meets else c1.intersect(c2)
            kinds = _meet_violations(c1, c2, inter) if inter in index else ["intersection_not_member"]
            add(kinds, product(index[c1], index[c2]), len(index[c1]) * len(index[c2]))
    keys, missing = {c.key() for c in index}, []
    for c in incomplete:
        full = (1 << len(c.rays)) - 1
        faces = {(c.rank, c.lin, tuple(r for i, r in enumerate(c.rays) if m >> i & 1))
                 for m in face_masks(c, _incidence(c.ineqs, c.rays)) if m != full}
        rays = next(f for f in faces if f not in keys)[2]
        missing += [("face_missing", idx, rays) for idx in index[c]]
    failures = head + sorted(missing, key=lambda f: f[1]) + sorted(pairs, key=lambda f: f[1:])
    return FanReport(not failures, fan.rank, len(fan.cones), failures)


def _maximal_members(members) -> tuple[list[Cone], dict[tuple, int], dict[Cone, tuple]]:
    """The members that are faces of no other member; the key of each of
    their faces, mapped to the bitmask of the maximal members it is a
    face of; and each member's key, (rank, lineality, bitmask of its rays
    among all rays of maximal members).  A face of c with ray mask m keeps
    c's lineality and has the rays of c in m, so no face is built.  A
    proper face has fewer rays than its cone, so in order of decreasing
    ray count a member is maximal when it is not a face of one met before."""
    maximal: list[Cone] = []
    covers: dict[tuple, int] = {}
    bit: dict[tuple[int, ...], int] = {}  # ray -> its bit in every key

    def key(c):
        return (c.rank, c.lin, sum(bit.setdefault(r, 1 << len(bit)) for r in c.rays))

    for c in sorted(members, key=lambda c: -len(c.rays)):
        if key(c) not in covers:
            bits = [bit[r] for r in c.rays]
            for m in face_masks(c, _incidence(c.ineqs, c.rays)):
                f = (c.rank, c.lin, sum(b for i, b in enumerate(bits) if m >> i & 1))
                covers[f] = covers.get(f, 0) | 1 << len(maximal)
            maximal.append(c)
    return maximal, covers, {c: key(c) for c in members}


def _meet_violations(c1: Cone, c2: Cone, inter: Cone) -> list[str]:
    """Whether inter = c1 & c2 fails to be a common face of two distinct
    cones, and whether their relative interiors meet."""
    out = []
    if not (is_face(inter, c1) and is_face(inter, c2)):
        out.append("intersection_not_common_face")
    if relint_meets(c1, c2, inter):
        out.append("relative_interiors_meet")
    return out


# ---------------------------------------------------------------------------
# dual-monoid generators


def check_monoid_rank(rank: int) -> None:
    """TooLarge past MONOID_RANK_CAP, checked before any cone is built."""
    if rank > MONOID_RANK_CAP:
        raise TooLarge(f"monoid generators capped at rank {MONOID_RANK_CAP}")


def monoid_generators(c: Cone) -> list[tuple[int, ...]]:
    """Generators of the monoid Z^rank cap D, D = dual(c): both signs of
    the Hermite basis of its units U, and the least member in the order
    (|y|_1, y) of each irreducible class modulo U (the Hilbert basis
    when D is pointed).

    By Caratheodory an irreducible class is that of a ray of D or of a
    point sum l_i g_i + sum m_j u_j with l, m in [0, 1), where the g_i
    are rays of D independent modulo U and the u_j U's basis: if some
    l_i >= 1, subtracting g_i decomposes it (Bruns-Gubeladze,
    *Polytopes, Rings, and K-Theory*, ch. 2).  The classes are sieved
    in order of the height <sum of c's rays, y>: one is kept unless
    y - x lies in D for a kept x.  Each enumeration is counted against
    MONOID_POINT_CAP before it starts."""
    check_monoid_rank(c.rank)
    dual = dual_cone(c)
    size = c.rank - len(dual.lin + dual.eqs)
    _capped(comb(len(dual.rays), size))
    boxes = [_parallelepiped(dual, sub + dual.lin) for sub in combinations(dual.rays, size)]
    _capped(sum(map(next, boxes)))
    # the values of c's rays on each point: y - x lies in D when none
    # falls, and their sum is the height
    values = {y: [_dot(g, y) for g in c.rays] for y in set(dual.rays).union(*boxes)}
    kept = []
    for y in sorted(values, key=lambda y: (sum(values[y]), y)):
        if any(y) and not any(all(map(operator.ge, values[y], values[x])) for x in kept):
            kept.append(y)
    _capped(sum((2 * sum(map(abs, y)) + 1) ** len(dual.lin) for y in kept))
    return sorted([_least_member(y, dual.lin) for y in kept] + dual.generators()[len(dual.rays) :])


def _capped(count: int) -> None:
    if count > MONOID_POINT_CAP:
        raise TooLarge("monoid generators exceed the point cap")


def _parallelepiped(dual: Cone, gens):
    """The lattice points sum l_k gens[k] of span(D) with every l_k in
    [0, 1), as a generator that yields their number first, before it
    lists any.

    With D's equalities appended, ``gens`` make a square matrix m (no
    points if it is singular), and the points of the parallelepiped of m
    are one per residue e of Z^rank modulo its rows: the box of m's
    Hermite diagonal.  Bareiss on [m | I] gives e * det * m^-1, which is
    det * l modulo det.  A point with an equality coefficient is off
    span(D) and is skipped."""
    m = gens + dual.eqs
    k = len(m)
    diag = [row[i] for i, row in enumerate(zlattice.hnf(m))]
    if len(diag) < k:
        yield 0
        return
    aug = [list(g + e) for g, e in zip(m, _unit_rows(k))]
    det = zlattice._bareiss(aug, k, reduced=True)[1]
    inverse = list(zip(*aug))[k:]  # columns of det * m^-1
    yield abs(det)
    for e in product(*map(range, diag)):
        frac = [_dot(e, col) % det for col in inverse]
        if any(frac[len(gens) :]):
            continue
        y = [_dot(frac, col) for col in zip(*m)]
        point = tuple(v // det for v in y)
        if any(v % det for v in y) or not dual.contains_vector(point):
            raise InternalError(f"parallelepiped point {y} / {det} is not a lattice point of the dual")
        yield point


def _least_member(y, units) -> tuple[int, ...]:
    """The least member of y + Z units in the order (|w|_1, w), by a
    triangular search over the Hermite rows ``units``: each row moves
    its pivot entry, which no later row touches, and which is at most
    |y|_1 on the least member."""
    bound, members = sum(map(abs, y)), [y]
    for u in units:
        p = next(j for j, x in enumerate(u) if x)
        members = [
            tuple(a + t * b for a, b in zip(v, u))
            for v in members
            for t in range(-((bound + v[p]) // u[p]), (bound - v[p]) // u[p] + 1)
        ]
    return min(members, key=lambda v: (sum(map(abs, v)), v))


# ---------------------------------------------------------------------------
# torus exact-sequence checks


@dataclass
class SequenceReport:
    ok: bool
    dim_torus: int
    checks: list[tuple[str, bool]]


def torus_sequence_check(r: int, n: int) -> SequenceReport:
    """Exactness, on cocharacter lattices, of

        1 -> Gm -> Gm^{n+1} x Gm -> Gm^{S} -> T -> 1

    with the middle maps z |-> (z,...,z; z^r) and
    (u; z) |-> (u_0^{i_0} ... u_n^{i_n} z^{-1})_i."""
    pts = enumerate_lattice_points(r, n)
    if len(pts) > ENUMERATION_POINT_CAP:
        raise TooLarge("torus sequence check exceeds the enumeration cap")
    g_rows = [list(p) + [-1] for p in pts]  # map Z^{n+2} -> Z^{S}
    f_vec = [1] * (n + 1) + [r]
    ker = zlattice.int_kernel(g_rows, n + 2)
    dim_t = len(pts) - zlattice.int_rank(g_rows)
    checks = [
        # g o f = 0
        ("composite_zero", not any(_dot(row, f_vec) for row in g_rows)),
        # ker(g) = Z f(1)
        ("kernel_is_image", len(ker) == 1 and ker[0] == zlattice.primitive(f_vec)),
        # f injective
        ("first_map_injective", any(f_vec)),
        # image of g saturated: g and its transpose have the same
        # elementary divisors, so the image is saturated exactly when the
        # row lattice is
        ("image_saturated", _is_saturated(g_rows, n + 2)),
        ("dim_torus", dim_t == len(pts) - n - 1),
        # cross-check against the quotient lattice of normal forms
        ("quotient_rank", quotient_lattice(r, n).rank == dim_t),
        # image of g consists of affine functions (normal forms vanish)
        ("image_is_affine", not any(
            any(scaled_normal_form(r, n, [row[j] for row in g_rows])) for j in range(n + 2)
        )),
    ]
    return SequenceReport(all(ok for _, ok in checks), dim_t, checks)


def tau_points(r: int) -> tuple[tuple[int, ...], ...]:
    return tuple(p for p in enumerate_lattice_points(r, 2) if p[0] != 0)


def tau_sequence_check(r: int, q: int) -> SequenceReport:
    """Exactness of 1 -> Gm -> Gm^{S_tau} -> T_tau -> 1 where the first
    map is u |-> (u^{i_0 + q i_1}), and well-definedness of the embedding
    into the full simplex torus via t_(0,i1,i2) = t_(i1,0,i2)^q."""
    if r > 4:
        raise TooLarge("tau sequence check capped at r <= 4")
    s_tau = tau_points(r)
    w = [p[0] + q * p[1] for p in s_tau]
    checks = [("first_map_injective", any(w)), ("cokernel_torsion_free", zlattice.vec_gcd(w) == 1)]
    # embedding into Gm^{S^{r,2}} followed by the class map must kill w:
    # E w must be an integer affine exponent vector
    pts = enumerate_lattice_points(r, 2)
    index_tau = {p: i for i, p in enumerate(s_tau)}
    ew = []
    for p in pts:
        if p[0] != 0:
            ew.append(w[index_tau[p]])
        elif p[1] != 0:
            ew.append(q * w[index_tau[(p[1], 0, p[2])]])
        else:
            ew.append(0)
    # ew = G (u; z) for rows (p; -1) of G asks for ew(p) = u . p - z.  A
    # solution exists exactly when ew is affine (zero normal form), and
    # the one with z = 0 has u_k = ew(r e_k) / r: it is integral when r
    # divides ew at every vertex
    integral = not any(scaled_normal_form(r, 2, ew)) and all(
        ew[point_index(r, 2, v)] % r == 0 for v in vertices(r, 2)
    )
    checks.append(("embedding_descends", integral))
    dim_t = len(s_tau) - zlattice.int_rank([w])
    checks.append(("dim_torus", dim_t == len(s_tau) - 1))
    return SequenceReport(all(ok for _, ok in checks), dim_t, checks)


def orthant_fan(rank: int) -> Fan:
    """The fan of all faces of the nonnegative orthant."""
    basis = _unit_rows(rank)
    subs = [sub for k in range(rank + 1) for sub in combinations(range(rank), k)]
    return Fan(rank, tuple(Cone.from_generators(rank, [basis[i] for i in sub]) for sub in subs))
