"""`algebra`: complete homomorphisms, slope polygons, glued graphs and
L-factor algebra, every operation passing through its JSON wire format.

Per round, over Q, GF(5), GF(4) and GF(9): stratum round trips at
r = 3..5, exterior powers of products, torus actions and glued families
from stratum data; the Lang map over GF(4), GF(8) and GF(9);
`star_convolve` with `power_sum` at degrees 2-5, `partial_l`,
`hn_polygon` and `split_truncation`. The make-up of a round is fixed;
the seed draws the matrices, scalars, polynomials and lattices. Each
answer is checked with the arithmetic of exact.py.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from exact import (
    FiniteOps,
    RationalOps,
    coeffs_from_power_sums,
    det,
    identity,
    matmul,
    power_sums,
    rank,
    rref,
    series_inverse,
    series_mul,
)

import chtoucakit.complete_homs as ch
import chtoucakit.fields as fields
import chtoucakit.graph_gluing as gg
import chtoucakit.hn_truncation as hn
import chtoucakit.jsonio as jsonio
import chtoucakit.l_functions as lf

STRATUM_FIELDS = (RationalOps(), FiniteOps(5, 1), FiniteOps(2, 2), FiniteOps(3, 2))
LANG_FIELDS = ((FiniteOps(2, 2), 2), (FiniteOps(2, 3), 2), (FiniteOps(3, 2), 3))
EXTERIOR_SHAPES = ((3, 2), (4, 2), (5, 2), (5, 3))
# A block of identical exterior-power products over GF(9): their cost does
# not depend on the drawn entries, and about as many operations of the
# round are cheaper as are dearer, so op_p50_ms reads one of this block.
BLOCK_FIELD, BLOCK_SHAPE, BLOCK_SIZE = FiniteOps(3, 2), (4, 2), 30
STAR_DEGREES = ((2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (2, 5), (5, 2), (3, 4),
                (4, 3), (4, 4), (3, 5), (5, 3))
POWER_SUM_NUS = (-2, -1, 1, 2, 3, 5)
PARTIAL_L_ORDER = 10


# ---------------------------------------------------------------------------
# seeded inputs


def rand_scalar(f, rng):
    if f.is_q:
        return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))
    return rng.randrange(f.q)


def rand_nonzero(f, rng):
    while True:
        x = rand_scalar(f, rng)
        if x != f.zero:
            return x


def rand_invertible(f, rng, n, entry=rand_scalar):
    while True:
        m = [[entry(f, rng) for _ in range(n)] for _ in range(n)]
        if rank(f, m) == n:
            return m


def mat_json(f, m):
    return [[f.fmt(x) for x in row] for row in m]


def mat_parse(f, rows):
    return [[f.parse(x) for x in row] for row in rows]


def stratum_json(f, rng, r: int, ncuts: int) -> dict:
    cuts = sorted(rng.sample(range(1, r), ncuts))
    bounds = [0] + cuts + [r]
    g1, g2 = rand_invertible(f, rng, r), rand_invertible(f, rng, r)
    blocks = [rand_invertible(f, rng, b - a) for a, b in zip(bounds, bounds[1:])]
    return {
        "r": r,
        "field": f.descriptor(),
        "cuts": cuts,
        "vfilt": [mat_json(f, g1[cut:]) for cut in cuts],
        "wfilt": [mat_json(f, g2[:cut]) for cut in cuts],
        "v": [mat_json(f, m) for m in blocks],
        "scales": [f.fmt(rand_nonzero(f, rng)) for _ in blocks],
        "free_lambda": {str(rho): f.fmt(rand_nonzero(f, rng))
                        for rho in range(1, r) if rho not in cuts},
    }


def exterior_args(f, rng, n: int, rho: int):
    a = [[rand_scalar(f, rng) for _ in range(n)] for _ in range(n)]
    b = [[rand_scalar(f, rng) for _ in range(n)] for _ in range(n)]
    return f.descriptor(), mat_json(f, a), mat_json(f, b), rho


def satake_json(rng, degree: int) -> dict:
    coeffs = [Fraction(1)] + [Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
                              for _ in range(degree)]
    while coeffs[-1] == 0:
        coeffs[-1] = Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
    return {"coeffs": [RationalOps().fmt(c) for c in coeffs]}


def block_lattice(rng, r: int):
    """A boolean lattice of block unions with additive degrees; blocks get
    distinct slopes at alpha, so one chain is the unique coarsest maximum."""
    alpha = Fraction(rng.randint(0, 4), 4)
    nblocks = rng.randint(2, min(3, r))
    while True:
        cuts = sorted(rng.sample(range(1, r), nblocks - 1))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [r])]
        degs = [(rng.randint(-8, 8), rng.randint(-8, 8)) for _ in sizes]
        slopes = [((1 - alpha) * d0 + alpha * d1) / s for (d0, d1), s in zip(degs, sizes)]
        if len(set(slopes)) == nblocks:
            break
    records, order = [], []
    for mask in range(1 << nblocks):
        inside = [b for b in range(nblocks) if mask >> b & 1]
        records.append({"id": f"s{mask}", "rank": sum(sizes[b] for b in inside),
                        "deg0": sum(degs[b][0] for b in inside),
                        "deg1": sum(degs[b][1] for b in inside)})
    for a in range(1 << nblocks):
        for b in range(1 << nblocks):
            if a != b and a & b == a:
                order.append([f"s{a}", f"s{b}"])
    return {"r": r, "records": records, "order": order}, str(alpha)


def convex_polygon(rng, r: int, mu: int) -> dict:
    """A mu-convex truncation parameter (values >= 0, vanishing at 0, r)."""
    raw = [Fraction(0)]
    for _ in range(r - 1):
        raw.append(raw[-1] + mu + Fraction(rng.randint(0, 8), rng.choice((1, 2))))
    shift = sum(raw[:r]) / r
    vals = [Fraction(0)]
    for rho in range(r):
        vals.append(vals[-1] + shift - raw[rho])
    return {"r": r, "values": [RationalOps().fmt(v) for v in vals]}


# ---------------------------------------------------------------------------
# operations: JSON in, program call, JSON out


def op_stratum(obj):
    d = jsonio.stratum_from_json(obj)
    h = ch.build_stratum_point(d)
    hj = jsonio.hom_to_json(h)
    h2 = jsonio.hom_from_json(hj)
    cuts = ch.stratum_of(h2)
    rj = jsonio.stratum_to_json(ch.stratum_data(h2))
    d2 = jsonio.stratum_from_json(rj)
    rebuilt = jsonio.hom_to_json(ch.build_stratum_point(d2))
    return hj, jsonio.hom_to_json(h2), cuts, rj, jsonio.stratum_to_json(d2), rebuilt


def op_exterior(fobj, a_rows, b_rows, rho):
    field = jsonio.field_from_json(fobj)
    a = jsonio.matrix_from_json(field, a_rows)
    b = jsonio.matrix_from_json(field, b_rows)
    ab = fields.fmat_mul(field, a, b)
    return [jsonio.matrix_to_json(field, ch.exterior_power(field, m, rho)) for m in (a, b, ab)]


def op_torus(obj, mus):
    d = jsonio.stratum_from_json(obj)
    h = ch.build_stratum_point(d)
    acted = ch.torus_action(h, [jsonio.scalar_from_str(d.field, s) for s in mus])
    return jsonio.hom_to_json(h), jsonio.hom_to_json(acted), ch.stratum_of(acted)


def op_lang(fobj, g_rows, q):
    field = jsonio.field_from_json(fobj)
    g = jsonio.matrix_from_json(field, g_rows)
    return jsonio.matrix_to_json(field, ch.lang_isogeny(g, q, field))


def op_star(a_obj, b_obj):
    c = lf.star_convolve(jsonio.satake_from_json(a_obj), jsonio.satake_from_json(b_obj))
    cj = jsonio.satake_to_json(c)
    again = jsonio.satake_to_json(jsonio.satake_from_json(cj))
    sums = {nu: jsonio.frac_str(lf.power_sum(c, nu)) for nu in POWER_SUM_NUS}
    return cj, again, sums


def op_partial(obj):
    return jsonio.series_to_json(lf.partial_l(jsonio.places_from_json(obj), PARTIAL_L_ORDER))


def op_hn(obj, alpha):
    lat = jsonio.subobject_lattice_from_json(obj)
    polygon, chain = hn.hn_polygon(lat, jsonio.parse_frac(alpha))
    return jsonio.polygon_to_json(polygon), list(chain)


def op_split(obj, d, cuts):
    res = hn.split_truncation(jsonio.polygon_from_json(obj), d, cuts)
    return list(res.d_parts), [jsonio.polygon_to_json(p) for p in res.p_parts]


def op_glued(obj):
    fam = gg.family_from_stratum(jsonio.stratum_from_json(obj))
    fj = jsonio.family_to_json(fam)
    fam2 = jsonio.family_from_json(fj)
    return (fj, jsonio.family_to_json(fam2), gg.check_dimension_condition(fam2).ok,
            gg.check_gluing_condition(fam2).ok)


# ---------------------------------------------------------------------------
# the workload


class Workload:
    def __init__(self, seed: int, tmpdir: str):
        rng = random.Random(seed)
        self.cases = []  # (kind, field ops or None, args)
        for fi, f in enumerate(STRATUM_FIELDS):
            for r in (3, 4, 5):
                for j in range(2):
                    ncuts = 1 + (fi + r + j) % (r - 1)
                    self.cases.append(("stratum", f, (stratum_json(f, rng, r, ncuts),)))
            for n, rho in EXTERIOR_SHAPES:
                self.cases.append(("exterior", f, exterior_args(f, rng, n, rho)))
            for r in (3, 4):
                mus = [f.fmt(rand_nonzero(f, rng)) for _ in range(r - 1)]
                self.cases.append(("torus", f, (stratum_json(f, rng, r, 1), mus)))
            for r in (2, 3):
                self.cases.append(("glued", f, (stratum_json(f, rng, r, r - 1),)))
        for _ in range(BLOCK_SIZE):
            self.cases.append(("exterior", BLOCK_FIELD, exterior_args(BLOCK_FIELD, rng, *BLOCK_SHAPE)))
        for f, q in LANG_FIELDS:
            for r in (2, 3):
                prime = rand_invertible(f, rng, r, lambda f, rng: rng.randrange(f.p))
                self.cases.append(("lang", f, (f.descriptor(), mat_json(f, prime), q)))
                self.cases.append(("lang", f, (f.descriptor(), mat_json(f, rand_invertible(f, rng, r)), q)))
        for da, db in STAR_DEGREES:
            self.cases.append(("star", None, (satake_json(rng, da), satake_json(rng, db))))
        for _ in range(8):
            places = []
            for _ in range(rng.randint(2, 4)):
                place = satake_json(rng, rng.randint(1, 3))
                place["deg"] = rng.randint(1, 3)
                places.append(place)
            self.cases.append(("partial", None, ({"places": places},)))
        for k in range(8):
            self.cases.append(("hn", None, block_lattice(rng, 3 + k % 3)))
        for _ in range(10):
            r = rng.randint(2, 8)
            obj = convex_polygon(rng, r, rng.randint(2, 6))
            cuts = sorted(rng.sample(range(1, r), rng.randint(0, r - 1)))
            self.cases.append(("split", None, (obj, rng.randint(-20, 20), cuts)))

    def ops(self):
        run = {"stratum": op_stratum, "exterior": op_exterior, "torus": op_torus,
               "lang": op_lang, "star": op_star, "partial": op_partial, "hn": op_hn,
               "split": op_split, "glued": op_glued}
        return [(kind, lambda fn=run[kind], args=args: fn(*args)) for kind, _, args in self.cases]

    def check(self, results) -> list[str]:
        check = {"stratum": check_stratum, "exterior": check_exterior, "torus": check_torus,
                 "lang": check_lang, "star": check_star, "partial": check_partial,
                 "hn": check_hn, "split": check_split, "glued": check_glued}
        problems = []
        for k, ((kind, f, args), out) in enumerate(zip(self.cases, results)):
            if out is None:
                continue
            fault = check[kind](f, args, out)
            if fault:
                problems.append(f"{kind} case {k}: {fault}")
        return problems


# ---------------------------------------------------------------------------
# checks, in the arithmetic of exact.py


def _first_nonzero(f, m):
    return next(x for row in m for x in row if x != f.zero)


def check_stratum(f, args, out):
    (obj,) = args
    hj, hj_again, cuts, rj, rj_again, rebuilt = out
    if hj_again != hj or rj_again != rj:
        return "a wire format does not round-trip"
    if list(cuts) != obj["cuts"] or rj["cuts"] != obj["cuts"]:
        return "stratum_of does not return the cuts"
    free = {int(k): f.parse(v) for k, v in obj["free_lambda"].items()}
    lams = [f.parse(x) for x in hj["lambda"]]
    for rho, lam in enumerate(lams, start=1):
        if lam != free.get(rho, f.zero):
            return f"lambda_{rho} is not the input's"
    if {int(k): f.parse(v) for k, v in rj["free_lambda"].items()} != free:
        return "recovered free lambdas differ"
    for side in ("vfilt", "wfilt"):
        for mine, theirs in zip(obj[side], rj[side]):
            if rref(f, mat_parse(f, mine))[0] != rref(f, mat_parse(f, theirs))[0]:
                return f"recovered {side} spans another subspace"
    for m, s, m_rec, s_rec in zip(obj["v"], obj["scales"], rj["v"], rj["scales"]):
        m = mat_parse(f, m)
        lead = _first_nonzero(f, m)
        inv = f.inv(lead)
        if mat_parse(f, m_rec) != [[f.mul(inv, x) for x in row] for row in m] \
                or f.parse(s_rec) != f.mul(f.parse(s), lead):
            return "recovered graded map is not the normalized input"
    if rebuilt != hj:
        return "build_stratum_point(stratum_data(h)) differs from h"
    return None


def exterior_power(f, a, rho):
    subs = list(combinations(range(len(a)), rho))
    return [[det(f, [[a[i][j] for j in cols] for i in rows]) for cols in subs] for rows in subs]


def check_exterior(f, args, out):
    _, a_rows, b_rows, rho = args
    ea, eb, eab = (mat_parse(f, m) for m in out)
    if ea != exterior_power(f, mat_parse(f, a_rows), rho) \
            or eb != exterior_power(f, mat_parse(f, b_rows), rho):
        return "exterior power differs from the minors"
    if eab != matmul(f, ea, eb):
        return "Cauchy-Binet fails"
    return None


def check_torus(f, args, out):
    obj, mus = args
    hj, acted, cuts = out
    mus = [f.parse(x) for x in mus]
    if list(cuts) != obj["cuts"]:
        return "the action moved the stratum"
    lams = [f.parse(x) for x in hj["lambda"]]
    if [f.parse(x) for x in acted["lambda"]] != [f.mul(m, l) for m, l in zip(mus, lams)]:
        return "lambda is not scaled by mu"
    for rho, (u, v) in enumerate(zip(hj["u"], acted["u"]), start=1):
        scale = f.one
        for j in range(1, rho):
            for _ in range(rho - j):
                scale = f.mul(scale, f.inv(mus[j - 1]))
        if mat_parse(f, v) != [[f.mul(scale, x) for x in row] for row in mat_parse(f, u)]:
            return f"u_{rho} is not scaled by the torus character"
    return None


def check_lang(f, args, out):
    _, g_rows, q = args
    g = mat_parse(f, g_rows)
    lang = mat_parse(f, out)
    tau = [[f.power(x, q) for x in row] for row in g]
    if matmul(f, tau, lang) != g:
        return "tau(g) L(g) != g"
    rational = all(f.power(x, q) == x for row in g for x in row)
    if (lang == identity(f, len(g))) != rational:
        return "L(g) = 1 does not match g having entries in GF(q)"
    return None


def _coeffs(obj):
    return [Fraction(c) for c in obj["coeffs"]]


def _power_sum(coeffs, nu):
    if nu < 0:
        coeffs = [c / coeffs[-1] for c in reversed(coeffs)]
        nu = -nu
    return power_sums(coeffs, nu)[nu - 1]


def check_star(f, args, out):
    a, b = (_coeffs(x) for x in args)
    cj, again, sums = out
    if again != cj:
        return "satake wire format does not round-trip"
    degree = (len(a) - 1) * (len(b) - 1)
    ps = [x * y for x, y in zip(power_sums(a, degree), power_sums(b, degree))]
    c = _coeffs(cj)
    if c != coeffs_from_power_sums(ps, degree):
        return "star_convolve differs from the Newton-identity product"
    for nu, s in sums.items():
        if Fraction(s) != _power_sum(c, nu):
            return f"power_sum at nu={nu} differs"
    return None


def check_partial(f, args, out):
    (obj,) = args
    acc = [Fraction(1)] + [Fraction(0)] * PARTIAL_L_ORDER
    for place in obj["places"]:
        poly = [Fraction(0)] * (PARTIAL_L_ORDER + 1)
        for k, c in enumerate(_coeffs(place)):
            if k * place["deg"] <= PARTIAL_L_ORDER:
                poly[k * place["deg"]] = c
        acc = series_mul(acc, series_inverse(poly, PARTIAL_L_ORDER), PARTIAL_L_ORDER)
    if [Fraction(c) for c in out["coeffs"]] != acc:
        return "partial_l differs from the product of local series"
    return None


def _chain_polygon(r, recs, chain, alpha):
    def deg(rec):
        return (1 - alpha) * rec["deg0"] + alpha * rec["deg1"]

    top = deg(recs[chain[-1]])
    anchors = {recs[i]["rank"]: deg(recs[i]) - Fraction(recs[i]["rank"], r) * top for i in chain}
    xs = sorted(anchors)
    vals = []
    for x in range(r + 1):
        lo = max(t for t in xs if t <= x)
        hi = min(t for t in xs if t >= x)
        vals.append(anchors[lo] if lo == hi else
                    anchors[lo] + (anchors[hi] - anchors[lo]) * Fraction(x - lo, hi - lo))
    return vals


def check_hn(f, args, out):
    obj, alpha = args
    alpha = Fraction(alpha)
    r = obj["r"]
    recs = {rec["id"]: rec for rec in obj["records"]}
    full = max(int(i[1:]) for i in recs)
    chains = []

    def walk(chain):
        last = int(chain[-1][1:])
        if last == full:
            chains.append(chain)
            return
        for m in range(full + 1):
            if m != last and m & last == last:
                walk(chain + [f"s{m}"])

    walk(["s0"])
    polys = [_chain_polygon(r, recs, c, alpha) for c in chains]
    best = [max(p[x] for p in polys) for x in range(r + 1)]
    values = [Fraction(v) for v in out[0]["values"]]
    if values != best:
        return "hn_polygon is not the pointwise maximum of the chain polygons"
    if out[1] not in chains or _chain_polygon(r, recs, out[1], alpha) != values:
        return "the returned chain does not achieve the polygon"
    return None


def check_split(f, args, out):
    obj, d, cuts = args
    d_parts, parts = out
    bounds = [0] + cuts + [obj["r"]]
    if sum(d_parts) != d - len(bounds) + 2:
        return "degree identity fails"
    mu = min(2 * Fraction(obj["values"][k]) - Fraction(obj["values"][k - 1])
             - Fraction(obj["values"][k + 1]) for k in range(1, obj["r"])) if obj["r"] > 1 else 2
    for part, a, b in zip(parts, bounds, bounds[1:]):
        vals = [Fraction(v) for v in part["values"]]
        if part["r"] != b - a or vals[0] != 0 or vals[-1] != 0 or min(vals) < 0:
            return "a part is not a truncation parameter of its block"
        if any(2 * vals[k] - vals[k - 1] - vals[k + 1] < mu - 2 for k in range(1, len(vals) - 1)):
            return "a part lost more than 2 of convexity"
    return None


def check_glued(f, args, out):
    fj, again, dim_ok, glue_ok = out
    if again != fj:
        return "family wire format does not round-trip"
    if not (dim_ok and glue_ok):
        return "glued family fails a condition"
    r = fj["r"]
    for i, pave in enumerate(fj["paving"]["paves"]):
        w = mat_parse(f, fj["W"][str(i)])
        if rank(f, w) != r:
            return "a subspace does not have rank r"
        for blocks in ((), (0,), (1,), (0, 1)):
            other = [c for c in range(2 * r) if c // r not in blocks]
            dim = r - (rank(f, [[row[c] for c in other] for row in w]) if other else 0)
            if dim != min(sum(p[j] for j in blocks) for p in pave["points"]):
                return f"dimension condition fails on pavé {i}, blocks {blocks}"
    return None
