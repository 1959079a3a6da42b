"""Canonical JSON serialization for every wire format.

Output is deterministic: sorted keys, compact separators, one trailing
newline; rationals travel as "p" or "p/q" strings, finite-field elements
as integer-index strings, lattice points as integer arrays.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import VERSION
from .errors import InvalidData
from .fields import GF, QQ, RationalField
from .hn_truncation import Polygon, SubobjectLattice, SubobjectRecord
from .l_functions import PlaceData, SatakeParams
from .pavings import Paving, pave_from_points, paving_from_paves
from .complete_homs import CompleteHom, StratumData
from .simplex_core import LatticeFunction, enumerate_lattice_points
from .fans import Cone, Fan
from .graph_gluing import GluedGraphFamily


def dumps_canonical(obj) -> str:
    payload = dict(obj)
    payload["version"] = VERSION
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def frac_str(x: Fraction) -> str:
    return QQ.format(x)


def parse_frac(s) -> Fraction:
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as e:
        raise InvalidData(f"bad rational {s!r}") from e


def _json_int(x, what: str) -> int:
    """A JSON integer; a float, a string or a boolean is InvalidData."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise InvalidData(f"{what} must be an integer, got {x!r}")
    return x


def _json_int_key(key: str, what: str) -> int:
    """An object key naming an integer k, written as str(k); any other
    key ("1.0", " 1 ", "+1", "01") is InvalidData."""
    try:
        k = int(key)
    except ValueError:
        k = None
    if k is None or str(k) != key:
        raise InvalidData(f"{what} must be an integer key, got {key!r}")
    return k


# fields ---------------------------------------------------------------------


def field_to_json(field):
    if isinstance(field, RationalField):
        return {"Q": True}
    return {"GF": [field.p, field.k], "modulus_poly": list(field.modulus)}


def field_from_json(obj):
    if not isinstance(obj, dict):
        raise InvalidData("field descriptor must be an object")
    if obj.get("Q"):
        return QQ
    if "GF" in obj:
        p, k = (_json_int(x, "a GF parameter") for x in obj["GF"])
        modulus = obj.get("modulus_poly") or ()
        return GF(p, k, tuple(_json_int(c, "a modulus coefficient") for c in modulus) or None)
    raise InvalidData("unknown field descriptor")


def scalar_to_str(field, x) -> str:
    return field.format(x)


def scalar_from_str(field, s):
    try:
        return field.parse(str(s))
    except (ValueError, ZeroDivisionError) as e:
        raise InvalidData(f"bad scalar {s!r}") from e


def matrix_to_json(field, m):
    return [[scalar_to_str(field, x) for x in row] for row in m]


def matrix_from_json(field, rows):
    return [[scalar_from_str(field, x) for x in row] for row in rows]


# simplex / pavings ----------------------------------------------------------


def lattice_function_to_json(f: LatticeFunction):
    pts = enumerate_lattice_points(f.r, f.n)
    return {
        "r": f.r,
        "n": f.n,
        "values": [[list(p), frac_str(v)] for p, v in zip(pts, f.values)],
    }


def lattice_function_from_json(obj) -> LatticeFunction:
    r, n = _json_int(obj["r"], "r"), _json_int(obj["n"], "n")
    mapping = {}
    for entry in obj["values"]:
        point, val = entry
        mapping[tuple(_json_int(c, "a point coordinate") for c in point)] = parse_frac(val)
    return LatticeFunction.from_map(r, n, mapping)


def paving_to_json(p: Paving):
    return {
        "r": p.r,
        "n": p.n,
        "paves": [{"points": [list(pt) for pt in pave.points]} for pave in p.paves],
    }


def paving_from_json(obj) -> Paving:
    return _paving_from_json(obj, {})


def pavings_from_json(obj) -> list[Paving]:
    """The pavings of a `pavings enum` output, {"r", "n", "pavings": [the
    "paves" of each paving]}.  Pavings share pavés, so each distinct point
    set is built into a pavé once per parse."""
    built: dict = {}
    return [
        _paving_from_json({"r": obj["r"], "n": obj["n"], "paves": paves}, built)
        for paves in obj["pavings"]
    ]


def _paving_from_json(obj, built) -> Paving:
    """The paving of ``obj``; ``built`` maps each point set already built
    in this parse to its pavé."""
    r, n = _json_int(obj["r"], "r"), _json_int(obj["n"], "n")
    sets = [
        [tuple(_json_int(c, "a point coordinate") for c in pt) for pt in pave["points"]]
        for pave in obj["paves"]
    ]
    paves = []
    for points in sets:
        key = frozenset(points)
        if key not in built:
            built[key] = pave_from_points(r, n, points)
        paves.append(built[key])
    return paving_from_paves(r, n, paves)


# cones / fans ---------------------------------------------------------------


def cone_to_json(c: Cone):
    return {
        "rank": c.rank,
        "rays": [list(r) for r in c.generators()],
        "ineqs": [list(r) for r in c.ineqs] + [
            row for e in c.eqs for row in (list(e), [-x for x in e])
        ],
    }


def _lattice_rows(rows, rank: int) -> list[tuple[int, ...]]:
    """Integer rows, each of length ``rank``."""
    out = [tuple(_json_int(x, "a coordinate") for x in row) for row in rows]
    for row in out:
        if len(row) != rank:
            raise InvalidData(f"row {list(row)} has length {len(row)}, expected rank {rank}")
    return out


def rank_from_json(obj) -> int:
    rank = _json_int(obj["rank"], "rank")
    if rank < 0:
        raise InvalidData(f"rank must be >= 0, got {rank}")
    return rank


def cone_from_json(obj) -> Cone:
    rank = rank_from_json(obj)
    if obj.get("ineqs") is not None:
        return Cone.from_hrep(
            rank, _lattice_rows(obj["ineqs"], rank), _lattice_rows(obj.get("eqs") or [], rank)
        )
    if "rays" in obj:
        return Cone.from_generators(rank, _lattice_rows(obj["rays"], rank))
    raise InvalidData("cone needs rays or ineqs")


def fan_to_json(fan: Fan):
    ray_index: dict = {}
    rays: list = []
    cones = []
    for i, c in enumerate(fan.cones):
        idxs = []
        for g in c.generators():
            g = tuple(g)
            if g not in ray_index:
                ray_index[g] = len(rays)
                rays.append(list(g))
            idxs.append(ray_index[g])
        entry = {"rays": sorted(idxs)}
        if fan.tags:
            entry["paving"] = fan.tags[i]
        cones.append(entry)
    return {
        "rank": fan.rank,
        "rays": rays,
        "cones": cones,
        "zero_included": any(not c.generators() for c in fan.cones),
    }


def fan_from_json(obj) -> Fan:
    rank = rank_from_json(obj)
    rays = _lattice_rows(obj["rays"], rank)
    cones = []
    tags = []
    for entry in obj["cones"]:
        for i in entry["rays"]:
            if not 0 <= _json_int(i, "a ray index") < len(rays):
                raise InvalidData(f"ray index {i!r} is not in range({len(rays)})")
        gens = [rays[i] for i in entry["rays"]]
        cones.append(Cone.from_generators(rank, gens))
        tags.append(str(entry.get("paving", "")))
    return Fan(rank, tuple(cones), tuple(tags))


# complete homomorphisms -----------------------------------------------------


def hom_to_json(h: CompleteHom):
    return {
        "r": h.r,
        "field": field_to_json(h.field),
        "u": [matrix_to_json(h.field, m) for m in h.u],
        "lambda": [scalar_to_str(h.field, l) for l in h.lams],
    }


def hom_from_json(obj) -> CompleteHom:
    field = field_from_json(obj["field"])
    r = _json_int(obj["r"], "r")
    u = tuple(matrix_from_json(field, m) for m in obj["u"])
    lams = tuple(scalar_from_str(field, s) for s in obj["lambda"])
    return CompleteHom(field, r, u, lams)


def stratum_to_json(d: StratumData):
    f = d.field
    return {
        "r": d.r,
        "field": field_to_json(f),
        "cuts": list(d.cuts),
        "vfilt": [matrix_to_json(f, m) for m in d.vfilt],
        "wfilt": [matrix_to_json(f, m) for m in d.wfilt],
        "v": [matrix_to_json(f, m) for m in d.v],
        "scales": [scalar_to_str(f, s) for s in d.scales],
        "free_lambda": {str(rho): scalar_to_str(f, l) for rho, l in d.free_lams},
    }


def stratum_from_json(obj) -> StratumData:
    field = field_from_json(obj["field"])
    return StratumData(
        field,
        _json_int(obj["r"], "r"),
        tuple(_json_int(c, "a cut") for c in obj["cuts"]),
        tuple(tuple(tuple(row) for row in matrix_from_json(field, m)) for m in obj["vfilt"]),
        tuple(tuple(tuple(row) for row in matrix_from_json(field, m)) for m in obj["wfilt"]),
        tuple(tuple(tuple(row) for row in matrix_from_json(field, m)) for m in obj["v"]),
        tuple(scalar_from_str(field, s) for s in obj["scales"]),
        tuple(
            sorted(
                (_json_int_key(rho, "a free_lambda key"), scalar_from_str(field, l))
                for rho, l in obj["free_lambda"].items()
            )
        ),
    )


# polygons / lattices --------------------------------------------------------


def polygon_to_json(p: Polygon):
    return {"r": p.r, "values": [frac_str(v) for v in p.values]}


def polygon_from_json(obj) -> Polygon:
    """A polygon from its values; an "r" other than len(values) - 1 is
    InvalidData."""
    values = tuple(parse_frac(v) for v in obj["values"])
    if "r" in obj:
        return Polygon(_json_int(obj["r"], "r"), values)
    return Polygon.from_values(values)


def subobject_lattice_from_json(obj) -> SubobjectLattice:
    records = [
        SubobjectRecord(str(e["id"]), *(_json_int(e[k], k) for k in ("rank", "deg0", "deg1")))
        for e in obj["records"]
    ]
    order = [(str(a), str(b)) for a, b in obj.get("order", [])]
    return SubobjectLattice.build(_json_int(obj["r"], "r"), records, order)


# glued graphs ---------------------------------------------------------------


def family_to_json(fam: GluedGraphFamily):
    return {
        "r": fam.paving.r,
        "n": fam.paving.n,
        "field": field_to_json(fam.field),
        "paving": paving_to_json(fam.paving),
        "W": {str(i): matrix_to_json(fam.field, m) for i, m in enumerate(fam.w)},
    }


def family_from_json(obj) -> GluedGraphFamily:
    field = field_from_json(obj["field"])
    paving = paving_from_json(obj["paving"])
    w = []
    for i in range(len(paving.paves)):
        key = str(i)
        if key not in obj["W"]:
            raise InvalidData(f"missing subspace for pave index {i}")
        w.append(tuple(tuple(row) for row in matrix_from_json(field, obj["W"][key])))
    return GluedGraphFamily(field, paving, tuple(w))


# L-functions ----------------------------------------------------------------


def satake_to_json(p: SatakeParams):
    return {"coeffs": [frac_str(c) for c in p.coeffs]}


def satake_from_json(obj) -> SatakeParams:
    return SatakeParams.from_coeffs([parse_frac(c) for c in obj["coeffs"]])


def place_from_json(obj) -> PlaceData:
    return PlaceData(_json_int(obj["deg"], "deg"), satake_from_json(obj))


def places_from_json(obj) -> list[PlaceData]:
    return [place_from_json(e) for e in obj["places"]]


def series_to_json(s):
    return {"order": s.order, "coeffs": [frac_str(c) for c in s.coeffs]}
