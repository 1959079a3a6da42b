import json
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chtoucakit import jsonio
from chtoucakit.errors import InvalidData
from chtoucakit.hn_truncation import Polygon
from chtoucakit.fans import Cone
from chtoucakit.fields import GF, QQ
from chtoucakit.l_functions import PlaceData, SatakeParams
from chtoucakit.pavings import enumerate_admissible_pavings, is_admissible, paving_fan, sigma_cone
from chtoucakit.complete_homs import (
    StratumData,
    build_stratum_point,
    complete_from_open,
    stratum_data,
)
from chtoucakit.graph_gluing import family_from_stratum
from chtoucakit.simplex_core import LatticeFunction
from test_complete_homs import rand_stratum_data


def test_frac_strings():
    assert jsonio.frac_str(Fraction(3)) == "3"
    assert jsonio.frac_str(Fraction(-5, 6)) == "-5/6"
    assert jsonio.parse_frac("7/2") == Fraction(7, 2)


def test_canonical_dump_is_sorted_and_versioned():
    text = jsonio.dumps_canonical({"b": 1, "a": 2})
    assert text.endswith("\n")
    payload = json.loads(text)
    assert payload["version"] == "chtouca-kit/1"
    assert text.index('"a"') < text.index('"b"')


def test_field_round_trip():
    for field in (QQ, GF(2, 2), GF(5, 1)):
        again = jsonio.field_from_json(jsonio.field_to_json(field))
        assert again == field or (field is QQ and again is QQ)


def test_lattice_function_round_trip():
    rng = random.Random(0)
    f = LatticeFunction(
        2, 2, tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(6))
    )
    again = jsonio.lattice_function_from_json(jsonio.lattice_function_to_json(f))
    assert again.values == f.values


def test_paving_round_trip():
    for paving in enumerate_admissible_pavings(2, 2):
        again = jsonio.paving_from_json(jsonio.paving_to_json(paving))
        assert again.key() == paving.key()


def enum_output(r, n):
    """The JSON object `pavings enum --r r --n n` writes, without its version."""
    pavings = enumerate_admissible_pavings(r, n)
    return {"r": r, "n": n, "pavings": [jsonio.paving_to_json(p)["paves"] for p in pavings]}


def parse_one_by_one(obj):
    """The multi-paving parse as one `paving_from_json` per paving."""
    return [
        jsonio.paving_from_json({"r": obj["r"], "n": obj["n"], "paves": paves})
        for paves in obj["pavings"]
    ]


def test_pavings_parse_builds_each_distinct_pave_once():
    obj = enum_output(3, 2)
    distinct = {frozenset(map(tuple, pave["points"])) for paves in obj["pavings"] for pave in paves}
    total = sum(map(len, obj["pavings"]))
    assert (len(obj["pavings"]), total, len(distinct)) == (176, 944, 50)
    with mock.patch.object(jsonio, "pave_from_points", wraps=jsonio.pave_from_points) as built:
        pavings = jsonio.pavings_from_json(obj)
    assert built.call_count == len(distinct)
    assert [p.key() for p in pavings] == [p.key() for p in parse_one_by_one(obj)]


def _first_error(parse, obj):
    try:
        parse(obj)
    except Exception as e:  # the error itself is what is compared
        return type(e), str(e)
    return None


def _corrupted(obj, edits):
    obj = through_text(obj)
    for edit in edits:
        edit(obj)
    return obj


def _drop_point(i, j):
    def edit(obj):
        obj["pavings"][i][j]["points"].pop()
    return edit


def _set_coordinate(i, j, value):
    def edit(obj):
        obj["pavings"][i][j]["points"][0][0] = value
    return edit


def _repeat_pave(i):
    def edit(obj):
        obj["pavings"][i].append(obj["pavings"][i][0])
    return edit


@pytest.mark.parametrize("edits", [
    [_drop_point(5, 0)],
    [_drop_point(40, 1), _set_coordinate(60, 0, "x")],
    [_set_coordinate(7, 0, 1.5), _drop_point(9, 0)],
    [_repeat_pave(3), _drop_point(4, 0)],
    [_drop_point(175, 2)],
    [lambda obj: obj.pop("r")],
], ids=["pave", "pave-then-coordinate", "coordinate-then-pave", "overlap", "last", "no-r"])
def test_pavings_parse_raises_the_first_error_of_a_parse_one_by_one(edits):
    obj = _corrupted(enum_output(3, 2), edits)
    expected = _first_error(parse_one_by_one, obj)
    assert expected is not None
    assert _first_error(jsonio.pavings_from_json, obj) == expected


def test_cone_round_trip():
    c = Cone.from_generators(2, [(1, 0), (1, 2)])
    again = jsonio.cone_from_json(json.loads(json.dumps(jsonio.cone_to_json(c))))
    assert again == c


def test_fan_round_trip():
    fan = paving_fan(enumerate_admissible_pavings(2, 1))
    obj = jsonio.fan_to_json(fan)
    again = jsonio.fan_from_json(obj)
    assert set(again.cones) == set(fan.cones)
    assert obj["zero_included"] is True


def test_hom_round_trip():
    for field, lam in ((QQ, Fraction(5)), (GF(5, 1), 3)):
        one = field.one()
        zero = field.zero()
        u1 = [[one, zero], [zero, one]]
        h = complete_from_open(field, u1, (lam,))
        again = jsonio.hom_from_json(jsonio.hom_to_json(h))
        assert again.eq(h)


def test_satake_round_trip():
    p = SatakeParams.from_coeffs([1, Fraction(-5, 2), 6])
    again = jsonio.satake_from_json(jsonio.satake_to_json(p))
    assert again.coeffs == p.coeffs


ROUND_TRIP_FIELDS = [QQ, GF(2, 2), GF(5, 1), GF(3, 2), GF(3, 2, (2, 2, 1))]


def through_text(obj):
    return json.loads(json.dumps(obj))


def test_stratum_hom_and_family_round_trips():
    """Strata with a zero lambda, their points and their glued families
    survive JSON text, over Q and finite fields of several moduli."""
    rng = random.Random(41)
    for field in ROUND_TRIP_FIELDS:
        for _ in range(4):
            h = build_stratum_point(rand_stratum_data(field, rng, 3))
            if not any(field.is_zero(lam) for lam in h.lams):
                continue
            hj = jsonio.hom_to_json(h)
            assert jsonio.hom_from_json(through_text(hj)).eq(h)
            d = stratum_data(h)
            dj = jsonio.stratum_to_json(d)
            d2 = jsonio.stratum_from_json(through_text(dj))
            assert d2.field == field and d2.eq(d)
            assert jsonio.stratum_to_json(d2) == dj
            fj = jsonio.family_to_json(family_from_stratum(d))
            fam = jsonio.family_from_json(through_text(fj))
            assert fam.field == field and jsonio.family_to_json(fam) == fj


def test_paving_cone_fan_and_witness_round_trips_on_3_2():
    """Every admissible (3,2) paving, its secondary cone, its admissibility
    witness and the fan of all of them survive JSON text unchanged."""
    pavings = enumerate_admissible_pavings(3, 2)
    assert len(pavings) == 176
    for paving in pavings:
        pj = jsonio.paving_to_json(paving)
        again = jsonio.paving_from_json(through_text(pj))
        assert again == paving and jsonio.paving_to_json(again) == pj
        cone = sigma_cone(paving)
        cj = jsonio.cone_to_json(cone)
        c2 = jsonio.cone_from_json(through_text(cj))
        assert (c2.lin, c2.rays, c2.eqs, c2.ineqs) == (cone.lin, cone.rays, cone.eqs, cone.ineqs)
        assert jsonio.cone_to_json(c2) == cj
        witness = is_admissible(paving).witness
        wj = jsonio.lattice_function_to_json(witness)
        w2 = jsonio.lattice_function_from_json(through_text(wj))
        assert (w2.r, w2.n, w2.values) == (3, 2, witness.values)
        assert jsonio.lattice_function_to_json(w2) == wj
    fan = paving_fan(pavings)
    fj = jsonio.fan_to_json(fan)
    again = jsonio.fan_from_json(through_text(fj))
    assert again == fan and jsonio.fan_to_json(again) == fj


rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


@settings(max_examples=200, deadline=None)
@given(st.lists(rationals, max_size=8))
def test_polygon_round_trip(inner):
    """A polygon with rational vertices p(0) = 0, p(1), ..., p(r) = 0
    survives JSON text, values and all."""
    polygon = Polygon.from_values([0, *inner, 0])
    pj = jsonio.polygon_to_json(polygon)
    again = jsonio.polygon_from_json(through_text(pj))
    assert again == polygon and again.r == len(inner) + 1
    assert jsonio.polygon_to_json(again) == pj


@given(rationals.filter(bool), st.lists(rationals, max_size=4))
def test_polygon_from_json_rejects_nonzero_ends(end, inner):
    values = [jsonio.frac_str(v) for v in [end, *inner, 0]]
    with pytest.raises(InvalidData):
        jsonio.polygon_from_json({"r": len(values) - 1, "values": values})


@given(st.lists(rationals, max_size=4), st.integers(-1, 8))
def test_polygon_from_json_checks_r(inner, r):
    values = [jsonio.frac_str(v) for v in [0, *inner, 0]]
    if r == len(values) - 1:
        assert jsonio.polygon_from_json({"r": r, "values": values}).r == r
    else:
        with pytest.raises(InvalidData):
            jsonio.polygon_from_json({"r": r, "values": values})


def test_polygon_from_json_rejects_r_beyond_values():
    with pytest.raises(InvalidData):
        jsonio.polygon_from_json({"r": 5, "values": ["0", "1", "0"]})
    assert jsonio.polygon_from_json({"values": ["0", "1", "0"]}).r == 2


def test_cone_and_fan_rows_must_have_the_rank():
    with pytest.raises(InvalidData):
        jsonio.cone_from_json({"rank": 2, "ineqs": [[1, 0]], "eqs": [[0, 1, 0]]})
    with pytest.raises(InvalidData):
        jsonio.fan_from_json({"rank": 2, "rays": [[1]], "cones": [{"rays": []}]})
    with pytest.raises(InvalidData):
        jsonio.fan_from_json({"rank": 1, "rays": [[1]], "cones": [{"rays": ["0"]}]})
    fan = jsonio.fan_from_json({"rank": 1, "rays": [[1]], "cones": [{"rays": []}, {"rays": [0]}]})
    assert [c.rays for c in fan.cones] == [(), ((1,),)]


@settings(max_examples=200, deadline=None)
@given(st.lists(rationals, max_size=5), rationals.filter(bool))
def test_satake_round_trip_over_rationals(middle, leading):
    p = SatakeParams.from_coeffs([1, *middle, leading])
    pj = jsonio.satake_to_json(p)
    again = jsonio.satake_from_json(through_text(pj))
    assert again == p and jsonio.satake_to_json(again) == pj


def test_places_from_json_matches_direct_construction():
    obj = {"places": [
        {"deg": 1, "coeffs": ["1", "-5/2", "6"]},
        {"deg": 3, "coeffs": ["1", "7"]},
        {"deg": 2, "coeffs": ["1"]},
    ]}
    assert jsonio.places_from_json(through_text(obj)) == [
        PlaceData(1, SatakeParams.from_coeffs([1, Fraction(-5, 2), 6])),
        PlaceData(3, SatakeParams.from_coeffs([1, 7])),
        PlaceData(2, SatakeParams.from_coeffs([1])),
    ]
    assert jsonio.places_from_json({"places": []}) == []


@pytest.mark.parametrize("deg", [0, -1])
def test_places_from_json_rejects_degree_below_one(deg):
    with pytest.raises(InvalidData):
        jsonio.places_from_json({"places": [{"deg": deg, "coeffs": ["1", "2"]}]})


# every integer the readers take is a JSON integer: a float, a string or
# a boolean is InvalidData, never truncated or read as 0/1


def _stratum_json():
    one, zero = Fraction(1), Fraction(0)
    d = StratumData(QQ, 2, (1,), (((one, zero),),), (((one, zero),),),
                    (((one,),), ((one,),)), (one, one), ())
    return through_text(jsonio.stratum_to_json(d))


INTEGER_FIELDS = [
    (jsonio.lattice_function_from_json,
     {"r": 2, "n": 1, "values": [[[2, 0], "0"], [[1, 1], "1"], [[0, 2], "0"]]},
     [("r",), ("n",), ("values", 1, 0, 0)]),
    (jsonio.paving_from_json,
     {"r": 2, "n": 1, "paves": [{"points": [[2, 0], [1, 1], [0, 2]]}]},
     [("r",), ("n",)]),
    (jsonio.hom_from_json,
     through_text(jsonio.hom_to_json(complete_from_open(QQ, [[1, 0], [0, 1]], [Fraction(2)]))),
     [("r",)]),
    (jsonio.stratum_from_json, _stratum_json(), [("r",), ("cuts", 0)]),
    (jsonio.polygon_from_json, {"r": 2, "values": ["0", "1", "0"]}, [("r",)]),
    (jsonio.subobject_lattice_from_json,
     {"r": 2, "records": [{"id": "0", "rank": 0, "deg0": 0, "deg1": 0},
                          {"id": "F", "rank": 1, "deg0": 5, "deg1": 5},
                          {"id": "E", "rank": 2, "deg0": 0, "deg1": 0}],
      "order": [["0", "F"], ["F", "E"]]},
     [("r",), ("records", 1, "rank"), ("records", 1, "deg0"), ("records", 1, "deg1")]),
    (jsonio.place_from_json, {"deg": 1, "coeffs": ["1", "2"]}, [("deg",)]),
    (jsonio.field_from_json, {"GF": [2, 2], "modulus_poly": [1, 1, 1]},
     [("GF", 0), ("GF", 1), ("modulus_poly", 0)]),
]


def _replaced(obj, path, value):
    obj = json.loads(json.dumps(obj))
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return obj


@pytest.mark.parametrize(
    "reader,obj,path",
    [(reader, obj, path) for reader, obj, paths in INTEGER_FIELDS for path in paths],
    ids=lambda x: getattr(x, "__name__", None) or (
        "/".join(map(str, x)) if isinstance(x, tuple) else "obj"),
)
def test_readers_reject_integers_that_are_not_json_integers(reader, obj, path):
    reader(obj)  # the valid object reads
    target = obj
    for key in path:
        target = target[key]
    for bad in (float(target), str(target), target + 0.5, bool(target)):
        with pytest.raises(InvalidData, match="must be an integer"):
            reader(_replaced(obj, path, bad))


def _stratum_json_with_free_lambda():
    rng = random.Random(41)
    while True:
        d = stratum_data(build_stratum_point(rand_stratum_data(QQ, rng, 3)))
        if d.free_lams:
            return through_text(jsonio.stratum_to_json(d))


def _with_free_lambda_key(obj, key):
    obj = json.loads(json.dumps(obj))
    (rho, lam), *rest = obj["free_lambda"].items()
    obj["free_lambda"] = {key(rho): lam, **dict(rest)}
    return obj


@pytest.mark.parametrize(
    "key",
    [lambda rho: rho + ".0", lambda rho: f" {rho} ", lambda rho: "+" + rho, lambda rho: "None"],
    ids=["decimal_point", "spaces", "plus_sign", "None"],
)
def test_stratum_free_lambda_key_must_be_written_as_an_integer(key):
    obj = _stratum_json_with_free_lambda()
    jsonio.stratum_from_json(obj)  # the valid object reads
    with pytest.raises(InvalidData, match="free_lambda key"):
        jsonio.stratum_from_json(_with_free_lambda_key(obj, key))
