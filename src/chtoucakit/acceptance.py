"""The acceptance suite: one callable per criterion, runnable through
pytest (tests/test_acceptance.py) or the CLI selftest command.

Every criterion is deterministic: randomized checks draw from seeded
generators, tolerances are pinned here, and a criterion that hits a
configured cap reports SKIP rather than failure.  Criteria test through
`check`, not `assert`, so the gate still fails under `python -O`.
"""

from __future__ import annotations

import io
import json
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction
from math import comb

from .errors import InvalidData, NoDominantChain, NotAPaving, TooLarge
from .fans import (
    is_face,
    tau_sequence_check,
    torus_sequence_check,
    verify_fan,
)
from . import qlinalg
from .fields import GF, QQ, fmat_eq, fmat_identity, fmat_mul
from .graph_gluing import (
    GluedGraphFamily,
    check_dimension_condition,
    check_gluing_condition,
    family_from_stratum,
)
from .hn_truncation import (
    Polygon,
    SubobjectLattice,
    SubobjectRecord,
    hn_polygon,
    is_mu_convex,
    polygon_leq,
    split_truncation,
)
from .l_functions import (
    PlaceData,
    SatakeParams,
    check_bounds,
    power_sum,
    star_convolve,
)
from .complete_homs import (
    StratumData,
    build_stratum_point,
    exterior_power,
    lang_isogeny,
    stratum_data,
    stratum_of,
    torus_action,
)
from .pavings import (
    enumerate_admissible_pavings,
    is_admissible,
    pave_edge_count,
    paving_fan,
    refines,
    regular_subdivision,
    sigma_cone,
)
from .simplex_core import (
    LatticeFunction,
    enumerate_lattice_points,
)

FAN_CONFIGS = ((2, 1), (3, 1), (4, 1), (2, 2))
FLOAT_TOL = 1e-9
HEIGHT_SAMPLES = 500
HEIGHT_ATTEMPT_CAP = 20000


class CheckFailed(AssertionError):
    """A criterion's check did not hold."""


def check(cond, msg=None):
    """Raise CheckFailed (with msg, if given) unless cond holds."""
    if not cond:
        raise CheckFailed() if msg is None else CheckFailed(msg)


# ---------------------------------------------------------------------------
# deterministic random helpers


def _rand_frac(rng, lo=-40, hi=40, dens=(1, 2, 3, 4)):
    return Fraction(rng.randint(lo, hi), rng.choice(dens))


def _rand_scalar(field, rng):
    if field is QQ:
        return Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3]))
    return rng.randrange(field.order)


def _rand_nonzero(field, rng):
    while True:
        x = _rand_scalar(field, rng)
        if not field.is_zero(x):
            return x


def _rand_invertible(field, rng, n):
    while True:
        m = [[_rand_scalar(field, rng) for _ in range(n)] for _ in range(n)]
        if qlinalg.inverse(field, m) is not None:
            return m


def _rand_stratum_data(field, rng, r) -> StratumData:
    cuts = tuple(sorted(rng.sample(range(1, r), rng.randint(0, r - 1))))
    bounds = [0] + list(cuts) + [r]
    g1 = _rand_invertible(field, rng, r)
    g2 = _rand_invertible(field, rng, r)
    vfilt = tuple(tuple(tuple(g1[i]) for i in range(cut, r)) for cut in cuts)
    wfilt = tuple(tuple(tuple(g2[i]) for i in range(0, cut)) for cut in cuts)
    v = tuple(
        tuple(tuple(row) for row in _rand_invertible(field, rng, bounds[t + 1] - bounds[t]))
        for t in range(len(bounds) - 1)
    )
    scales = tuple(_rand_nonzero(field, rng) for _ in range(len(bounds) - 1))
    free = tuple(
        sorted((rho, _rand_nonzero(field, rng)) for rho in range(1, r) if rho not in cuts)
    )
    return StratumData(field, r, cuts, vfilt, wfilt, v, scales, free)


# ---------------------------------------------------------------------------
# criteria


def criterion_1():
    """Lattice point counts match binomial(r+n, n) for r <= 6, n <= 4."""
    checked = 0
    for r in range(1, 7):
        for n in range(0, 5):
            pts = enumerate_lattice_points(r, n)
            check(len(pts) == comb(r + n, n), (r, n))
            check(len(set(pts)) == len(pts))
            checked += 1
    return f"{checked} configurations"


def criterion_2():
    """Interval pavings: 2^(r-1) admissible pavings in bijection with
    compositions, and the secondary fan is unimodularly isomorphic to
    the face fan of the nonnegative orthant of rank r-1."""
    details = []
    for r in (2, 3, 4):
        pavings = enumerate_admissible_pavings(r, 1)
        check(len(pavings) == 2 ** (r - 1), (r, len(pavings)))
        comps = set()
        for p in pavings:
            check(is_admissible(p).admissible)
            parts = tuple(sorted(len(q.points) - 1 for q in p.paves))
            comps.add(tuple(sorted((min(pt[1] for pt in q.points), max(pt[1] for pt in q.points)) for q in p.paves)))
        check(len(comps) == 2 ** (r - 1), "pavings are not distinct interval decompositions")
        # unimodular identification with the orthant face fan
        finest = next(p for p in pavings if len(p.paves) == r)
        cone_f = sigma_cone(finest)
        rays = list(cone_f.rays)
        check(len(rays) == r - 1)
        mat = [[Fraction(rays[j][i]) for j in range(r - 1)] for i in range(r - 1)]
        det = qlinalg.det(QQ, mat)
        check(abs(det) == 1, f"ray matrix determinant {det} is not a unit")
        inv = qlinalg.inverse(QQ, mat)
        umat = [[int(x) for x in row] for row in inv]
        basis = [tuple(1 if j == i else 0 for j in range(r - 1)) for i in range(r - 1)]
        seen = set()
        for p in pavings:
            img = sigma_cone(p).transform(umat)
            check(not img.lin)
            check(all(ray in basis for ray in img.rays), img.rays)
            key = frozenset(img.rays)
            check(key not in seen)
            seen.add(key)
        check(len(seen) == 2 ** (r - 1))
        details.append(f"r={r}: {len(pavings)} pavings, |det|=1")
    return "; ".join(details)


def criterion_3():
    """Fan axioms and face <=> coarsening over the enumerated admissible
    pavings of each desk-scale configuration."""
    details = []
    for (r, n) in FAN_CONFIGS:
        pavings = enumerate_admissible_pavings(r, n)
        fan = paving_fan(pavings)
        report = verify_fan(fan)
        check(report.ok, (r, n, report.failures[:3]))
        for i, p in enumerate(pavings):
            for j, q in enumerate(pavings):
                lhs = is_face(fan.cones[j], fan.cones[i])
                rhs = refines(p, q)
                check(lhs == rhs, (r, n, i, j, lhs, rhs))
        details.append(f"({r},{n}): {len(pavings)} cones")
    return "; ".join(details)


def criterion_4():
    """Random-height oracle: regular subdivisions of random rational
    heights are admissible and appear in the enumeration.  Heights whose
    affinity domains are not integer pavés are degenerate by contract
    (NotAPaving) and are redrawn, with the rate reported."""
    rng = random.Random(20240 + 4)
    details = []
    for (r, n) in FAN_CONFIGS:
        keys = {p.key() for p in enumerate_admissible_pavings(r, n)}
        pts = enumerate_lattice_points(r, n)
        produced = 0
        degenerate = 0
        attempts = 0
        while produced < HEIGHT_SAMPLES:
            attempts += 1
            check(attempts < HEIGHT_ATTEMPT_CAP, f"({r},{n}): too many degenerate draws")
            h = LatticeFunction(r, n, tuple(_rand_frac(rng) for _ in pts))
            try:
                paving = regular_subdivision(h)
            except NotAPaving:
                degenerate += 1
                continue
            check(is_admissible(paving).admissible, (r, n, h.values))
            check(paving.key() in keys, (r, n, h.values))
            produced += 1
        details.append(f"({r},{n}): {produced} ok, {degenerate} degenerate")
    return "; ".join(details)


def criterion_5():
    """Every pavé of every enumerated paving of the n=2 configurations
    with r <= 3 is a hexagon (at most 6 edges), possibly degenerate."""
    total = 0
    worst = 0
    for r in (1, 2, 3):
        for paving in enumerate_admissible_pavings(r, 2):
            for pave in paving.paves:
                edges = pave_edge_count(pave)
                worst = max(worst, edges)
                check(edges <= 6, (r, pave.points, edges))
                total += 1
    return f"{total} pavés, max edges {worst}"


def criterion_6():
    """Character-lattice exactness for the simplex torus sequences and
    the twisted (tau) sequences."""
    details = []
    for (r, n) in FAN_CONFIGS:
        rep = torus_sequence_check(r, n)
        check(rep.ok, (r, n, rep.checks))
        expected = comb(r + n, n) - n - 1
        check(rep.dim_torus == expected, (r, n, rep.dim_torus))
        details.append(f"T^({r},{n})={rep.dim_torus}")
    for r in (1, 2, 3):
        for q in (2, 3):
            rep = tau_sequence_check(r, q)
            check(rep.ok, (r, q, rep.checks))
            check(rep.dim_torus == len([p for p in enumerate_lattice_points(r, 2) if p[0] != 0]) - 1)
    return "; ".join(details) + "; tau r<=3 q in {2,3}"


def criterion_7():
    """Stratum round trips (200 per rank per field), exterior-power
    multiplicativity (100 pairs) and torus equivariance (100 actions)."""
    rng = random.Random(20240 + 7)
    trips = 0
    for field in (QQ, GF(5, 1)):
        for r in (2, 3, 4):
            for _ in range(200):
                d = _rand_stratum_data(field, rng, r)
                h = build_stratum_point(d)
                check(stratum_of(h) == d.cuts)
                rec = stratum_data(h)
                check(rec.eq(d.normalized()), (field.name, r))
                check(build_stratum_point(rec).eq(h), (field.name, r))
                trips += 1
    for _ in range(100):
        field = rng.choice([QQ, GF(5, 1)])
        n = rng.randint(2, 3)
        a = _rand_invertible(field, rng, n)
        b = _rand_invertible(field, rng, n)
        rho = rng.randint(1, n)
        lhs = exterior_power(field, fmat_mul(field, a, b), rho)
        rhs = fmat_mul(field, exterior_power(field, a, rho), exterior_power(field, b, rho))
        check(fmat_eq(field, lhs, rhs))
    for _ in range(100):
        field = rng.choice([QQ, GF(5, 1)])
        r = rng.randint(2, 4)
        d = _rand_stratum_data(field, rng, r)
        h = build_stratum_point(d)
        mus = tuple(_rand_nonzero(field, rng) for _ in range(r - 1))
        acted = torus_action(h, mus)
        check(stratum_of(acted) == stratum_of(h))
        for rho in range(1, r):
            check(field.eq(acted.lams[rho - 1], field.mul(mus[rho - 1], h.lams[rho - 1])))
        trips += 1
    return f"{trips} checks"


def criterion_8():
    """Lang fixed points: L(g) = 1 exactly on the rational matrices,
    exhaustively over the configured (r, q, k) triples."""
    cases = []
    for (r, q, k) in ((1, 2, 2), (1, 3, 2), (2, 2, 2)):
        field = GF(q, k)
        rational = {x for x in range(field.order) if field.eq(field.frobenius(x, q), x)}
        fixed = 0
        rational_invertible = 0
        total = 0
        order = field.order
        for code in range(order ** (r * r)):
            digits = []
            c = code
            for _ in range(r * r):
                digits.append(c % order)
                c //= order
            m = [digits[i * r:(i + 1) * r] for i in range(r)]
            if qlinalg.inverse(field, m) is None:
                continue
            total += 1
            is_fixed = fmat_eq(field, lang_isogeny(m, q, field), fmat_identity(field, r))
            is_rational = all(x in rational for row in m for x in row)
            check(is_fixed == is_rational, (r, q, k, m))
            if is_fixed:
                fixed += 1
            if is_rational:
                rational_invertible += 1
        check(fixed == rational_invertible)
        cases.append(f"(r={r},q={q},k={k}): {fixed} of {total}")
    return "; ".join(cases)


def _block_lattice(rng, r):
    """A boolean lattice of block unions with random degrees; the greedy
    slope ordering guarantees a dominant chain exists."""
    nblocks = rng.randint(1, min(3, r))
    sizes = []
    left = r
    for b in range(nblocks):
        if b == nblocks - 1:
            sizes.append(left)
        else:
            s = rng.randint(1, left - (nblocks - 1 - b))
            sizes.append(s)
            left -= s
    degs = [(rng.randint(-8, 8), rng.randint(-8, 8)) for _ in sizes]
    records = []
    order = []
    subsets = []
    for mask in range(1 << nblocks):
        rank = sum(sizes[b] for b in range(nblocks) if mask & (1 << b))
        d0 = sum(degs[b][0] for b in range(nblocks) if mask & (1 << b))
        d1 = sum(degs[b][1] for b in range(nblocks) if mask & (1 << b))
        records.append(SubobjectRecord(f"s{mask}", rank, d0, d1))
        subsets.append(mask)
    for a in subsets:
        for b in subsets:
            if a != b and a & b == a:
                order.append((f"s{a}", f"s{b}"))
    return SubobjectLattice.build(r, records, order), nblocks, sizes


def criterion_9():
    """Maximal-polygon existence on lattices built to admit one: the
    returned polygon dominates every chain polygon and the canonical
    chain is the unique coarsest achiever; crossing inputs raise."""
    from .hn_truncation import _all_chains, polygon_of_filtration

    rng = random.Random(20240 + 9)
    done = 0
    while done < 200:
        r = rng.randint(2, 5)
        lat, nblocks, sizes = _block_lattice(rng, r)
        alpha = Fraction(rng.randint(0, 4), 4)
        polygon, chain = hn_polygon(lat, alpha)
        for other in _all_chains(lat):
            check(polygon_leq(polygon_of_filtration(lat, other, alpha), polygon))
        # uniqueness of the coarsest achiever is enforced inside
        # hn_polygon; reaching here certifies it for this input
        done += 1
    # adversarial crossing: two incomparable middles, each the best at
    # its own abscissa
    lat = SubobjectLattice.build(
        3,
        [
            SubobjectRecord("0", 0, 0, 0),
            SubobjectRecord("A", 1, 3, 3),
            SubobjectRecord("B", 2, 4, 4),
            SubobjectRecord("E", 3, 0, 0),
        ],
        [],
    )
    try:
        hn_polygon(lat, 0)
        raise CheckFailed("crossing input must raise NoDominantChain")
    except NoDominantChain:
        pass
    return "200 lattices + crossing rejection"


def _rand_convex_parameter(rng, r, mu):
    drops = [Fraction(mu) + Fraction(rng.randint(0, 8), rng.choice([1, 2])) for _ in range(r - 1)]
    acc = Fraction(0)
    raw = [Fraction(0)]
    for d in drops:
        acc += d
        raw.append(acc)
    # slope of step rho is -(raw[rho-1]); recentre so the total is zero
    total = sum(raw[rho] for rho in range(r))
    shift = Fraction(total, r)
    vals = [Fraction(0)]
    for rho in range(r):
        vals.append(vals[-1] + (shift - raw[rho]))
    check(vals[-1] == 0)
    return Polygon(r, tuple(vals))


def criterion_10():
    """Splitting bookkeeping: the degree identity on 1000 random draws
    and the convexity drop of exactly 2 on 500 mu-convex draws."""
    rng = random.Random(20240 + 10)
    for _ in range(1000):
        r = rng.randint(2, 8)
        p = _rand_convex_parameter(rng, r, 2)
        d = rng.randint(-20, 20)
        cuts = sorted(rng.sample(range(1, r), rng.randint(0, r - 1)))
        res = split_truncation(p, d, cuts)
        check(sum(res.d_parts) == d - (len(cuts) + 1) + 1)
    for _ in range(500):
        r = rng.randint(2, 8)
        mu = rng.randint(2, 6)
        p = _rand_convex_parameter(rng, r, mu)
        check(is_mu_convex(p, mu))
        cuts = sorted(rng.sample(range(1, r), rng.randint(0, r - 1)))
        res = split_truncation(p, rng.randint(-20, 20), cuts)
        for part in res.p_parts:
            check(is_mu_convex(part, mu - 2), (r, mu, cuts))
    return "1000 degree identities + 500 convexity drops"


def criterion_11():
    """Root-pairing against the float-root oracle (1e-9 per coefficient)
    and exact power-sum multiplicativity for nu in {±1, ±2, ±3}."""
    import numpy as np

    rng = random.Random(20240 + 11)
    for trial in range(200):
        da, db = rng.randint(1, 3), rng.randint(1, 3)
        ca = [Fraction(1)] + [Fraction(rng.randint(-4, 4), rng.choice([1, 2])) for _ in range(da)]
        cb = [Fraction(1)] + [Fraction(rng.randint(-4, 4), rng.choice([1, 2])) for _ in range(db)]
        if ca[-1] == 0:
            ca[-1] = Fraction(1)
        if cb[-1] == 0:
            cb[-1] = Fraction(1)
        a, b = SatakeParams(tuple(ca)), SatakeParams(tuple(cb))
        c = star_convolve(a, b)
        check(c.degree == a.degree * b.degree)
        prod = np.poly1d([1.0])
        for x in a.float_roots():
            for y in b.float_roots():
                prod = prod * np.poly1d([-(x * y), 1.0])
        ref = list(prod.coefficients[::-1])
        ref += [0.0] * (c.degree + 1 - len(ref))
        err = max(abs(complex(g) - rr) for g, rr in zip(c.coeffs, ref))
        check(err < FLOAT_TOL, (trial, err))
        for nu in (-3, -2, -1, 1, 2, 3):
            check(power_sum(c, nu) == power_sum(a, nu) * power_sum(b, nu), (trial, nu))
    return "200 pairs within 1e-9; power sums exact"


def criterion_12():
    """Glued graphs: stratum-derived families satisfy both conditions,
    a deterministic corruption fails, and the trivial-paving
    characterization is exhaustive for r = 1, n = 1 over F2 and F3."""
    rng = random.Random(20240 + 12)
    built = 0
    for field in (QQ, GF(5, 1), GF(2, 1)):
        for r in (2, 3):
            for _ in range(10):
                d = _rand_stratum_data(field, rng, r)
                fam = family_from_stratum(d)
                check(check_dimension_condition(fam).ok, (field.name, r, d.cuts))
                check(check_gluing_condition(fam).ok, (field.name, r, d.cuts))
                built += 1
    # deterministic corruption: overwrite the last pavé's subspace with
    # the first-factor copy of V, which breaks the dimension count
    field = GF(5, 1)
    one, zero = field.one(), field.zero()
    d = StratumData(
        field,
        2,
        (1,),
        vfilt=(((one, zero),),),
        wfilt=(((one, zero),),),
        v=(((one,),), ((one,),)),
        scales=(one, one),
        free_lams=(),
    )
    fam = family_from_stratum(d)
    w_bad = list(fam.w)
    w_bad[-1] = tuple(
        tuple(one if i == j else zero for j in range(4)) for i in range(2)
    )
    corrupted = GluedGraphFamily(field, fam.paving, tuple(w_bad))
    check(
        not (check_dimension_condition(corrupted).ok and check_gluing_condition(corrupted).ok),
        "corrupted family must fail",
    )
    # exhaustive characterization at r = 1, n = 1
    from .pavings import trivial_paving

    counts = []
    for field in (GF(2, 1), GF(3, 1)):
        q = field.order
        triv = trivial_paving(1, 1)
        passing_lines = set()
        for a in range(q):
            for b in range(q):
                if a == b == 0:
                    continue
                w = ((a, b),)
                fam = GluedGraphFamily(field, triv, (w,))
                if check_dimension_condition(fam).ok and check_gluing_condition(fam).ok:
                    # normalize the line
                    if a != 0:
                        key = (1, field.mul(field.inv(a), b))
                    else:
                        key = (0, 1)
                    passing_lines.add(key)
                    check(a != 0 and b != 0, "passing family must avoid both axes")
        check(len(passing_lines) == q - 1, (q, passing_lines))
        counts.append(f"F{q}: {len(passing_lines)} graphs")
    return f"{built} stratum families; corruption fails; " + "; ".join(counts)


def criterion_13():
    """Numeric bounds: strict rejection on the two-sided boundary and
    acceptance of unit-circle eigenvalues within 1e-9."""
    check(check_bounds(PlaceData(1, SatakeParams.from_coeffs([1, 0, 1])), 4, "RP", FLOAT_TOL))
    check(check_bounds(PlaceData(1, SatakeParams.from_coeffs([1, -1])), 4, "RP", FLOAT_TOL))
    check(not check_bounds(PlaceData(1, SatakeParams.from_roots([2])), 4, "JS", FLOAT_TOL))
    check(
        not check_bounds(PlaceData(2, SatakeParams.from_roots([4])), 4, "JS", FLOAT_TOL),
        "root exactly q^{deg/2} must be rejected",
    )
    check(
        check_bounds(
            PlaceData(1, SatakeParams.from_coeffs([1, Fraction(-19, 10)])), 4, "JS", FLOAT_TOL
        )
    )
    check(not check_bounds(PlaceData(1, SatakeParams.from_roots([Fraction(1, 2)])), 4, "RP", FLOAT_TOL))
    return "boundary strictness and unit-circle acceptance"


DETERMINISM_COMMANDS = (
    ["pavings", "enum", "--r", "3", "--n", "1"],
    ["pavings", "enum", "--r", "2", "--n", "2"],
    ["fans", "torus-seq", "--r", "2", "--n", "2"],
    ["fans", "tau-seq", "--r", "2", "--q", "2"],
)


def criterion_14():
    """CLI byte-determinism: each command run three times with
    `--jobs 1` and once with `--jobs 4`.  The flag is accepted and
    execution is sequential, so this checks run-to-run determinism and
    that the flag is accepted, not parallel execution."""
    from . import cli

    outputs = {}
    for cmd in DETERMINISM_COMMANDS:
        runs = []
        for jobs in ("1", "1", "1", "4"):
            buf = io.StringIO()
            with redirect_stdout(buf):
                rc = cli.main(["--jobs", jobs] + cmd)
            check(rc == 0, (cmd, jobs))
            runs.append(buf.getvalue())
        check(len(set(runs)) == 1, f"nondeterministic output for {cmd}")
        outputs[" ".join(cmd)] = runs[0]
        payload = json.loads(runs[0])
        check(payload.get("version") == "chtouca-kit/1")
    return f"{len(outputs)} commands x 4 runs byte-identical"


CRITERIA = (
    (1, "lattice point counts", criterion_1),
    (2, "interval pavings and orthant fan", criterion_2),
    (3, "fan axioms and face-coarsening", criterion_3),
    (4, "regular-subdivision oracle", criterion_4),
    (5, "hexagon bound", criterion_5),
    (6, "torus sequence exactness", criterion_6),
    (7, "complete-homomorphism round trips", criterion_7),
    (8, "Lang fixed points", criterion_8),
    (9, "maximal polygon and coarsest chain", criterion_9),
    (10, "truncation splitting identities", criterion_10),
    (11, "root pairing and power sums", criterion_11),
    (12, "glued graphs", criterion_12),
    (13, "eigenvalue bound checks", criterion_13),
    (14, "CLI determinism", criterion_14),
)


def run_all(wanted=None, verbose=False):
    """Run the acceptance criteria; returns [(number, status, seconds,
    detail)] with status PASS, FAIL or SKIP (cap exceeded).  A wanted
    number that names no criterion is InvalidData, before any runs."""
    unknown = sorted(set(wanted or ()) - {number for number, _, _ in CRITERIA})
    if unknown:
        raise InvalidData(f"no acceptance criterion {', '.join(map(str, unknown))}")
    results = []
    for number, title, fn in CRITERIA:
        if wanted is not None and number not in wanted:
            continue
        t0 = time.time()
        try:
            detail = fn()
            status = "PASS"
        except TooLarge as e:
            status, detail = "SKIP", str(e)
        except AssertionError as e:
            status, detail = "FAIL", str(e)
        dt = time.time() - t0
        results.append((number, status, dt, detail))
        if verbose:
            print(f"{status} criterion {number:2d} ({dt:7.2f} s): {title} -- {detail}")
    return results
