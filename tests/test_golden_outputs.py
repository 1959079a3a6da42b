"""Golden bytes: the sha256 of the CLI's stdout on fixed inputs.

Output is canonical JSON, so any change to an answer, an ordering or a
number format shows here as a changed digest.  The algebra inputs are
drawn from seeded generators in this file; the stratum points and
glued-graph families among them are built by `build_stratum_point` and
`family_from_stratum`, whose output the `homs act` and `graphs check`
digests pin in turn.  A digest may change only with a deliberate change
of output, recorded with the new value.
"""

import hashlib
import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from chtoucakit import cli, qlinalg
from chtoucakit.complete_homs import StratumData, build_stratum_point
from chtoucakit.fields import GF, QQ
from chtoucakit.graph_gluing import family_from_stratum
from chtoucakit.jsonio import family_to_json, field_to_json, hom_to_json


def cli_stdout(argv, tmp_path, payload=None) -> str:
    """stdout of one in-process CLI call that must succeed; ``payload``,
    if given, is written to a file whose path replaces "IN" in argv."""
    if payload is not None:
        path = tmp_path / "in.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        argv = [str(path) if a == "IN" else a for a in argv]
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(argv) == 0, argv
    return out.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


PAVING_CASES = {
    ("pavings", "enum", "--r", "3", "--n", "2"):
        "151de267a35908395044b87faf45bee598e2bbb0f6b8244e13a64199df3fcabc",
    ("fans", "torus-seq", "--r", "3", "--n", "2"):
        "b77ef6e0b5338f11a868b49ef536554ede6c211fb0d9eba42ace9c925b94a676",
    ("fans", "tau-seq", "--r", "3", "--q", "2"):
        "8e2041d2ef89cd098341301a51b54206da228039753fcd8d661f686c233d6659",
}
FANS_VERIFY_3_2 = "1298e3f5566cf78a6b18874325ec43bed67ce990720d597883b3010ccf164b7c"


@pytest.mark.parametrize("argv", list(PAVING_CASES))
def test_paving_and_fan_commands(argv, tmp_path):
    assert digest(cli_stdout(list(argv), tmp_path)) == PAVING_CASES[argv]


def test_fans_verify_on_enumerated_pavings(tmp_path):
    pavings = cli_stdout(["pavings", "enum", "--r", "3", "--n", "2"], tmp_path)
    assert digest(cli_stdout(["fans", "verify", "IN"], tmp_path, pavings)) == FANS_VERIFY_3_2


# ---------------------------------------------------------------------------
# complete homomorphisms and glued graphs

FIELDS = {"Q": QQ, "GF5": GF(5, 1), "GF9": GF(3, 2)}
# every cut pattern of r = 3, then the open, a middle and the deepest stratum of r = 4
STRATA = [(3, ()), (3, (1,)), (3, (2,)), (3, (1, 2)), (4, ()), (4, (2,)), (4, (1, 2, 3))]


def rand_scalar(field, rng):
    if field is QQ:
        return Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3]))
    return rng.randrange(field.order)


def rand_nonzero(field, rng):
    while True:
        x = rand_scalar(field, rng)
        if not field.is_zero(x):
            return x


def rand_invertible(field, rng, n):
    while True:
        m = [[rand_scalar(field, rng) for _ in range(n)] for _ in range(n)]
        if not field.is_zero(qlinalg.det(field, m)):
            return m


def stratum_input(field, rng, r, cuts) -> StratumData:
    bounds = [0, *cuts, r]
    g1 = rand_invertible(field, rng, r)
    g2 = rand_invertible(field, rng, r)
    blocks = [
        tuple(map(tuple, rand_invertible(field, rng, hi - lo)))
        for lo, hi in zip(bounds, bounds[1:])
    ]
    return StratumData(
        field,
        r,
        cuts,
        tuple(tuple(map(tuple, g1[cut:])) for cut in cuts),
        tuple(tuple(map(tuple, g2[:cut])) for cut in cuts),
        tuple(blocks),
        tuple(rand_nonzero(field, rng) for _ in blocks),
        tuple((rho, rand_nonzero(field, rng)) for rho in range(1, r) if rho not in cuts),
    )


def algebra_outputs(name, tmp_path) -> dict:
    """stdout of `homs complete` on open points of r = 3 and 4, and of
    `homs stratum`, `homs act` and `graphs check` on a point of each
    stratum of `STRATA` (and `graphs check` on its family with the
    subspaces rotated), over the field ``name``, concatenated per command."""
    field = FIELDS[name]
    rng = random.Random(f"golden-{name}")
    fmt = field.format
    outs = {"complete": "", "stratum": "", "act": "", "graphs": ""}
    for r in (3, 4):
        payload = {
            "field": field_to_json(field),
            "u1": [[fmt(x) for x in row] for row in rand_invertible(field, rng, r)],
            "lambda": [fmt(rand_nonzero(field, rng)) for _ in range(r - 1)],
        }
        outs["complete"] += cli_stdout(["homs", "complete", "IN"], tmp_path, payload)
    for r, cuts in STRATA:
        d = stratum_input(field, rng, r, cuts)
        point = hom_to_json(build_stratum_point(d))
        mus = ",".join(fmt(rand_nonzero(field, rng)) for _ in range(r - 1))
        outs["stratum"] += cli_stdout(["homs", "stratum", "IN"], tmp_path, point)
        outs["act"] += cli_stdout(["homs", "act", "IN", "--mu", mus], tmp_path, point)
        family = family_to_json(family_from_stratum(d))
        outs["graphs"] += cli_stdout(["graphs", "check", "IN"], tmp_path, family)
        if cuts:
            # the pavés' subspaces rotated by one: both conditions fail
            w = list(family["W"].values())
            family["W"] = {str(i): m for i, m in enumerate(w[1:] + w[:1])}
            outs["graphs"] += cli_stdout(["graphs", "check", "IN"], tmp_path, family)
    return outs


ALGEBRA_DIGESTS = {
    "Q": {
        "complete": "752ce9be4454243e40df465246a7cd2309ed6e873e9f562a9c85cad4116481a1",
        "stratum": "acc82b83f406b90720a17d1720edb4e0df6daa630be8bb49985e512af5749a0a",
        "act": "ab2fe2582cc992eb81941424bdb809a014bca0f44f2cd79e653fbb5795ec16fd",
        "graphs": "16a1887e050c14cbb3c70184aacc6ea30cd29e86ec30bb786fc1d21597dc5c80",
    },
    "GF5": {
        "complete": "2b49ee3ff32cf25164da2f1f48c8b620d8f7fd4dd3b3c19f391fb40eddcf6879",
        "stratum": "739cdd6b4ce7d1a7fb26bf5ce5b70bab630a7f28e26d11b392b01503f608441a",
        "act": "991c0b9d4d7711de45bb787475024385296b5cb5d3f4104b3bc201f59898fe66",
        "graphs": "16a1887e050c14cbb3c70184aacc6ea30cd29e86ec30bb786fc1d21597dc5c80",
    },
    "GF9": {
        "complete": "7512a5e8b97237716ce39d6d02f88dd0b1ddaa8e80372eaf2438e079f7d88dba",
        "stratum": "7d8e1bfd2f18e0fb614399bd7851d2f43ba4cfdd2eae9ac7cb8a352d0bcc0b78",
        "act": "442abdda34cc0ea2ca84d6bdee945754bdf59398c2e9ded8d2e514be0a7ac07f",
        "graphs": "16a1887e050c14cbb3c70184aacc6ea30cd29e86ec30bb786fc1d21597dc5c80",
    },
}


@pytest.mark.parametrize("name", list(FIELDS))
def test_algebra_commands(name, tmp_path):
    outs = {cmd: digest(text) for cmd, text in algebra_outputs(name, tmp_path).items()}
    assert outs == ALGEBRA_DIGESTS[name]


# ---------------------------------------------------------------------------
# `pavings check` witnesses, and the commands with fixed small inputs

# concatenated stdout of `pavings check` on every paving `pavings enum`
# lists for (r, n), in enumeration order: the witnesses are the LP vertices
PAVINGS_CHECK = {
    (4, 1): "b68af258737d27bc672732dcb8ec34a0679cc9b117cef81c03689ece396e8cbc",
    (2, 2): "7a0c52d6ec4010325b89ffbbcc7a3f773f89cea93ff20f39b2e2a0b607df8f40",
    (3, 2): "6595c7e7c774bdc49e3a45bbbeabb0c110d30df9aeab8a77c91a39706a60cf2f",
}


@pytest.mark.parametrize("r, n", list(PAVINGS_CHECK))
def test_pavings_check_on_enumerated_pavings(r, n, tmp_path):
    enum = cli_stdout(["pavings", "enum", "--r", str(r), "--n", str(n)], tmp_path)
    out = "".join(
        cli_stdout(["pavings", "check", "IN"], tmp_path, {"r": r, "n": n, "paves": paves})
        for paves in json.loads(enum)["pavings"]
    )
    assert digest(out) == PAVINGS_CHECK[r, n]


def test_pavings_qadm_on_enumerated_pavings(tmp_path):
    out = ""
    enum = cli_stdout(["pavings", "enum", "--r", "3", "--n", "2"], tmp_path)
    for paves in json.loads(enum)["pavings"]:
        for q in (2, 3, 5):
            payload = {"r": 3, "n": 2, "paves": paves}
            out += cli_stdout(["pavings", "qadm", "--q", str(q), "IN"], tmp_path, payload)
    assert digest(out) == (
        "a825becfebcbb18332f62624b544795f9bf1b554f2876662748f48fb6dff6118"
    )


CONES = [
    {"rank": 2, "rays": [[1, 2]]},
    {"rank": 2, "rays": [[1, 0], [1, 5]]},
    {"rank": 2, "rays": [[3, -1], [-1, 2]]},
    {"rank": 3, "rays": [[1, 0, 0], [0, 1, 0], [1, 1, 3]]},
    {"rank": 3, "rays": [[1, 0, 0], [-1, 0, 0], [0, 1, 1], [0, 2, -1]]},
    {"rank": 3, "ineqs": [[1, 0, 0], [0, 1, 0], [1, 1, -2]]},
    {"rank": 3, "ineqs": [[1, 2, 0]], "eqs": [[0, 1, -1]]},
    {"rank": 4, "rays": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 1, 1, 2]]},
    {"rank": 4, "rays": []},
]


@pytest.mark.parametrize("command, digest_", [
    (["fans", "dual", "--cone", "IN"],
     "aa10ce99a58d1d93f769157cee269da435945670477b4638f0d7e3264d1b052d"),
    (["fans", "monoid", "--cone", "IN"],
     "17b5420e87a8bcf4d61e1e4a17c6d69958d9e7ea11bcc2cb9baa1fa03ce9243e"),
])
def test_cone_commands(command, digest_, tmp_path):
    out = "".join(cli_stdout(command, tmp_path, cone) for cone in CONES)
    assert digest(out) == digest_


def test_homs_lang(tmp_path):
    rng = random.Random("golden-lang")
    out = ""
    for (p, k), qs in (((2, 2), (2, 4)), ((3, 1), (3, 9)), ((5, 1), (5,)), ((3, 2), (3, 9))):
        field = GF(p, k)
        for size in (1, 2, 3):
            m = rand_invertible(field, rng, size)
            matrix = [[field.format(x) for x in row] for row in m]
            payload = {"field": field_to_json(field), "matrix": matrix}
            for q in qs:
                out += cli_stdout(["homs", "lang", "--q", str(q), "IN"], tmp_path, payload)
    assert digest(out) == (
        "553b83339eb5e0280d209148401a3e734713ba96e0840b2e5b33af579a1a7c5c"
    )


LATTICES = [
    {"r": 2, "records": [
        {"id": "0", "rank": 0, "deg0": 0, "deg1": 0},
        {"id": "F", "rank": 1, "deg0": 5, "deg1": 5},
        {"id": "E", "rank": 2, "deg0": 0, "deg1": 0},
    ], "order": [["0", "F"], ["F", "E"]]},
    {"r": 3, "records": [
        {"id": "0", "rank": 0, "deg0": 0, "deg1": 0},
        {"id": "A", "rank": 1, "deg0": 2, "deg1": 3},
        {"id": "B", "rank": 1, "deg0": -1, "deg1": 4},
        {"id": "C", "rank": 2, "deg0": 3, "deg1": 1},
        {"id": "D", "rank": 2, "deg0": 0, "deg1": 6},
        {"id": "E", "rank": 3, "deg0": 1, "deg1": 2},
    ], "order": [["A", "C"], ["A", "D"], ["B", "D"]]},
]


def test_hn_compute(tmp_path):
    out = "".join(
        cli_stdout(["hn", "compute", "IN", "--alpha", alpha], tmp_path, lattice)
        for lattice in LATTICES
        for alpha in ("0", "1/2", "-1/3", "1")
    )
    assert digest(out) == (
        "d0bed05958d248f1a8c1f7fe30166c7cb48ed23d073badda4cc0ead0fead9379"
    )


POLYGONS = [
    {"r": 3, "values": ["0", "4", "4", "0"]},
    {"r": 4, "values": ["0", "7", "10", "8", "0"]},
    {"r": 5, "values": ["0", "9", "14", "15", "11", "0"]},
    {"r": 4, "values": ["0", "7/2", "5", "7/2", "0"]},
]


def test_trunc_commands(tmp_path):
    out = ""
    # the last polygon is convex only for mu <= -1, so it cannot be split
    for polygon in [*POLYGONS, {"r": 3, "values": ["0", "1", "3", "0"]}]:
        for mu in ("-1", "-1/2", "0", "1", "3/2", "2", "4"):
            out += cli_stdout(["trunc", "convex", "--mu", mu, "IN"], tmp_path, polygon)
    for polygon in POLYGONS:
        r = polygon["r"]
        for d in (0, 3, -2):
            for cuts in ("", "1", ",".join(map(str, range(1, r)))):
                argv = ["trunc", "split", "--p", "IN", "--d", str(d), "--R", cuts]
                out += cli_stdout(argv, tmp_path, polygon)
    assert digest(out) == (
        "4bc7238720def5d921cf57b11ad990e07dc9a02a4db046dede2cf3184fb674c2"
    )


SATAKE = [["1", "-2"], ["1", "-3"], ["1", "-5", "6"], ["1", "-5/2", "1"], ["1", "0", "4"],
          ["1", "1/3", "-2/7", "1"]]
PLACES = [{"deg": 1, "coeffs": ["1", "-1"]}, {"deg": 2, "coeffs": ["1", "-5/2", "1"]},
          {"deg": 3, "coeffs": ["1", "0", "4"]}, {"deg": 1, "coeffs": ["1", "-1/2", "1/4"]}]


def test_lfun_bounds(tmp_path):
    out = "".join(
        cli_stdout(["lfun", "bounds", "--q", str(q), "--mode", mode, "IN"], tmp_path, place)
        for place in PLACES
        for q in (2, 4, 9)
        for mode in ("js", "rp")
    )
    assert digest(out) == (
        "b3edf57dafe09c456901d72688668733d33bcd85a351c29e34c0a1b61048a486"
    )


def test_lfun_commands(tmp_path):
    out = "".join(cli_stdout(["lfun", "local", "IN", "--D", "7"], tmp_path, p) for p in PLACES)
    out += cli_stdout(["lfun", "partial", "IN", "--D", "8"], tmp_path, {"places": PLACES})
    for a in SATAKE:
        for nu in (-2, -1, 1, 3):
            out += cli_stdout(["lfun", "psum", "--nu", str(nu), "IN"], tmp_path, {"coeffs": a})
        path = tmp_path / "b.json"
        for b in SATAKE[:3]:
            path.write_text(json.dumps({"coeffs": b}))
            argv = ["lfun", "star", "--a", "IN", "--b", str(path)]
            out += cli_stdout(argv, tmp_path, {"coeffs": a})
    (tmp_path / "po.json").write_text(json.dumps({"coeffs": ["1", "-10/3", "1"]}))
    for trace, r, deg_xi, n, deg_inf, deg_o in (
        ("1", 2, 1, 1, 1, 1), ("-3/2", 3, 1, 2, 1, 2), ("5", 2, 2, 1, 2, 1),
    ):
        argv = ["lfun", "spectral", "--trace", trace, "--r", str(r), "--deg-xi", str(deg_xi),
                "--n", str(n), "--inf", "IN", "--deg-inf", str(deg_inf),
                "--o", str(tmp_path / "po.json"), "--deg-o", str(deg_o), "--q", "4"]
        out += cli_stdout(argv, tmp_path, {"coeffs": ["1", "-5/2", "1"]})
    assert digest(out) == (
        "db320bae8456b81a76d2f5fa5aefcefc9e95ab8a5d913aca619c45240d238e88"
    )
