import argparse
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest

from chtoucakit import acceptance, cli, fans
from chtoucakit.errors import InternalError
from chtoucakit.simplex_core import enumerate_lattice_points


def run_cli(argv, files=None, tmp_path=None):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    paths = {}
    if files:
        for name, payload in files.items():
            p = tmp_path / name
            p.write_text(json.dumps(payload))
            paths[name] = str(p)
        argv = [paths.get(a, a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def test_enum_intervals(tmp_path):
    rc, out, _ = run_cli(["pavings", "enum", "--r", "2", "--n", "1"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["version"] == "chtouca-kit/1"
    assert payload["count"] == 2


def test_enum_writes_file(tmp_path):
    target = tmp_path / "out.json"
    rc, out, _ = run_cli(["pavings", "enum", "--r", "3", "--n", "1", "--out", str(target)])
    assert rc == 0 and out == ""
    payload = json.loads(target.read_text())
    assert payload["count"] == 4


def test_pavings_check_and_qadm(tmp_path):
    paving = {
        "r": 2,
        "n": 2,
        "paves": [{"points": [list(p) for p in pts]} for pts in [
            [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
        ]],
    }
    rc, out, _ = run_cli(["pavings", "check", "paving.json"], {"paving.json": paving}, tmp_path)
    assert rc == 0
    assert json.loads(out)["admissible"] is True
    rc, out, _ = run_cli(
        ["pavings", "qadm", "--q", "2", "paving.json"], {"paving.json": paving}, tmp_path
    )
    assert rc == 0
    assert json.loads(out)["q_admissible"] is True


def test_pavings_qadm_rejects_q_below_two(tmp_path):
    paving = {"r": 2, "n": 2, "paves": [{"points": [
        [2, 0, 0], [1, 1, 0], [1, 0, 1], [0, 2, 0], [0, 1, 1], [0, 0, 2]
    ]}]}
    for q in ("1", "0", "-3"):
        rc, out, err = run_cli(
            ["pavings", "qadm", "--q", q, "paving.json"], {"paving.json": paving}, tmp_path
        )
        assert (rc, out) == (1, "")
        assert json.loads(err)["error"] == {"type": "InvalidData", "message": "q must be at least 2"}


def test_pavings_check_invalid_is_domain_error(tmp_path):
    paving = {"r": 2, "n": 1, "paves": [{"points": [[2, 0], [0, 2]]}]}
    rc, out, err = run_cli(["pavings", "check", "bad.json"], {"bad.json": paving}, tmp_path)
    assert rc == 1
    payload = json.loads(err)
    assert payload["error"]["type"] == "NotAPave"
    assert payload["version"] == "chtouca-kit/1"


def test_fans_verify_from_pavings(tmp_path):
    rc, out, _ = run_cli(["pavings", "enum", "--r", "2", "--n", "2"])
    enum_payload = json.loads(out)
    fanin = {"r": 2, "n": 2, "pavings": enum_payload["pavings"]}
    rc, out, _ = run_cli(["fans", "verify", "fan.json"], {"fan.json": fanin}, tmp_path)
    assert rc == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["cones"] == 8


def test_fans_dual_and_monoid(tmp_path):
    cone = {"rank": 2, "rays": [[1, 2]]}
    rc, out, _ = run_cli(["fans", "dual", "--cone", "cone.json"], {"cone.json": cone}, tmp_path)
    assert rc == 0
    assert json.loads(out)["dual"]["ineqs"] == [[1, 2]]
    cone = {"rank": 2, "rays": [[1, 0], [1, 2]]}
    rc, out, _ = run_cli(["fans", "monoid", "--cone", "cone.json"], {"cone.json": cone}, tmp_path)
    assert rc == 0
    assert json.loads(out)["generators"] == [[0, 1], [1, 0], [2, -1]]


def test_fans_monoid_has_no_bound_option(tmp_path):
    cone = {"rank": 2, "rays": [[1, 0], [0, 1]]}
    with pytest.raises(SystemExit) as exc:
        run_cli(["fans", "monoid", "--cone", "cone.json", "--bound", "8"], {"cone.json": cone}, tmp_path)
    assert exc.value.code == 2


def test_fans_torus_seq_runs_to_the_enumeration_point_cap():
    rc, out, _ = run_cli(["fans", "torus-seq", "--r", "4", "--n", "2"])
    payload = json.loads(out)
    assert rc == 0 and payload["ok"] and payload["dim_torus"] == 12
    rc, out, err = run_cli(["fans", "torus-seq", "--r", "15", "--n", "1"])
    assert rc == 1 and out == "" and json.loads(err)["error"]["type"] == "TooLarge"


def test_fans_sequences():
    rc, out, _ = run_cli(["fans", "torus-seq", "--r", "2", "--n", "2"])
    payload = json.loads(out)
    assert rc == 0 and payload["ok"] and payload["dim_torus"] == 3
    rc, out, _ = run_cli(["fans", "tau-seq", "--r", "2", "--q", "2"])
    payload = json.loads(out)
    assert rc == 0 and payload["ok"] and payload["dim_torus"] == 2


def test_homs_pipeline(tmp_path):
    spec = {
        "field": {"Q": True},
        "u1": [["1", "0"], ["0", "1"]],
        "lambda": ["5"],
    }
    rc, out, _ = run_cli(["homs", "complete", "open.json"], {"open.json": spec}, tmp_path)
    assert rc == 0
    hom = json.loads(out)
    assert hom["u"][1] == [["1/5"]]
    hom.pop("version")
    rc, out, _ = run_cli(["homs", "act", "--mu", "3", "hom.json"], {"hom.json": hom}, tmp_path)
    assert rc == 0
    acted = json.loads(out)
    assert acted["lambda"] == ["15"]
    assert acted["u"][1] == [["1/15"]]
    rc, out, _ = run_cli(["homs", "stratum", "hom.json"], {"hom.json": hom}, tmp_path)
    assert rc == 0
    assert json.loads(out)["stratum"] == []


def test_negative_mu_values(tmp_path):
    """A --mu value starting with "-" is a value, as with --mu=..."""
    spec = {"field": {"Q": True}, "u1": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            "lambda": ["5", "7"]}
    rc, out, _ = run_cli(["homs", "complete", "open.json"], {"open.json": spec}, tmp_path)
    hom = json.loads(out)
    hom.pop("version")
    rc, out, err = run_cli(["homs", "act", "--mu", "-1,7", "hom.json"], {"hom.json": hom}, tmp_path)
    assert rc == 0 and err == ""
    assert json.loads(out)["lambda"] == ["-5", "49"]
    assert (rc, out) == run_cli(["homs", "act", "--mu=-1,7", "hom.json"], {"hom.json": hom}, tmp_path)[:2]
    polygon = {"r": 3, "values": ["0", "4", "4", "0"]}
    rc, out, _ = run_cli(["trunc", "convex", "--mu", "-1/2", "p.json"], {"p.json": polygon}, tmp_path)
    assert rc == 0 and json.loads(out)["mu"] == "-1/2"


def test_out_of_range_scalars_are_invalid(tmp_path):
    """A finite-field scalar is an index in range(q), never read modulo q."""
    for field, good, bad in (({"GF": [5, 1]}, "4", "5"), ({"GF": [5, 1]}, "4", "-1"),
                             ({"GF": [3, 2]}, "8", "9")):
        for entry, rc_expected in ((good, 0), (bad, 1)):
            spec = {"field": field, "u1": [["1", entry], ["0", "1"]], "lambda": ["1"]}
            rc, out, err = run_cli(["homs", "complete", "open.json"], {"open.json": spec}, tmp_path)
            assert rc == rc_expected
            if rc:
                assert out == "" and json.loads(err)["error"]["type"] == "InvalidData"


def test_homs_lang(tmp_path):
    payload = {"field": {"GF": [2, 2]}, "matrix": [["2"]]}
    rc, out, _ = run_cli(["homs", "lang", "--q", "2", "m.json"], {"m.json": payload}, tmp_path)
    assert rc == 0
    assert json.loads(out)["matrix"] == [["3"]]


def test_hn_compute(tmp_path):
    lattice = {
        "r": 2,
        "records": [
            {"id": "0", "rank": 0, "deg0": 0, "deg1": 0},
            {"id": "F", "rank": 1, "deg0": 5, "deg1": 5},
            {"id": "E", "rank": 2, "deg0": 0, "deg1": 0},
        ],
        "order": [["0", "F"], ["F", "E"]],
    }
    rc, out, _ = run_cli(
        ["hn", "compute", "lat.json", "--alpha", "1/2"], {"lat.json": lattice}, tmp_path
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["chain"] == ["0", "F", "E"]
    assert payload["polygon"]["values"] == ["0", "5", "0"]


def test_trunc_commands(tmp_path):
    polygon = {"r": 3, "values": ["0", "4", "4", "0"]}
    rc, out, _ = run_cli(
        ["trunc", "split", "--p", "p.json", "--d", "0", "--R", "1"], {"p.json": polygon}, tmp_path
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["d_parts"] == [4, -5]
    rc, out, _ = run_cli(["trunc", "convex", "--mu", "4", "p.json"], {"p.json": polygon}, tmp_path)
    assert json.loads(out)["convex"] is True


def test_graphs_check(tmp_path):
    family = {
        "r": 1,
        "n": 1,
        "field": {"GF": [3, 1]},
        "paving": {"r": 1, "n": 1, "paves": [{"points": [[1, 0], [0, 1]]}]},
        "W": {"0": [["1", "2"]]},
    }
    rc, out, _ = run_cli(["graphs", "check", "fam.json"], {"fam.json": family}, tmp_path)
    assert rc == 0
    payload = json.loads(out)
    assert payload["dimension_ok"] and payload["gluing_ok"]


def test_lfun_commands(tmp_path):
    rc, out, _ = run_cli(
        ["lfun", "star", "--a", "a.json", "--b", "b.json"],
        {"a.json": {"coeffs": ["1", "-2"]}, "b.json": {"coeffs": ["1", "-3"]}},
        tmp_path,
    )
    assert rc == 0
    assert json.loads(out)["coeffs"] == ["1", "-6"]
    rc, out, _ = run_cli(
        ["lfun", "local", "place.json", "--D", "3"],
        {"place.json": {"deg": 1, "coeffs": ["1", "-1"]}},
        tmp_path,
    )
    assert json.loads(out)["coeffs"] == ["1", "1", "1", "1"]
    rc, out, _ = run_cli(
        ["lfun", "psum", "--nu", "-1", "p.json"],
        {"p.json": {"coeffs": ["1", "-5", "6"]}},
        tmp_path,
    )
    assert json.loads(out)["value"] == "5/6"
    rc, out, _ = run_cli(
        ["lfun", "bounds", "--q", "4", "--mode", "js", "p.json"],
        {"p.json": {"deg": 1, "coeffs": ["1", "-2"]}},
        tmp_path,
    )
    assert json.loads(out)["ok"] is False
    rc, out, _ = run_cli(
        [
            "lfun", "spectral", "--trace", "1", "--r", "2", "--deg-xi", "1", "--n", "1",
            "--inf", "pi.json", "--deg-inf", "1", "--o", "po.json", "--deg-o", "1", "--q", "4",
        ],
        {
            "pi.json": {"coeffs": ["1", "-5/2", "1"]},
            "po.json": {"coeffs": ["1", "-10/3", "1"]},
        },
        tmp_path,
    )
    assert json.loads(out)["value"] == "100/3"


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, out, err = run_cli(["pavings", "check", str(bad)])
    assert rc == 2
    assert json.loads(err)["error"]["type"] == "ParseError"


@pytest.mark.parametrize("kind", ["missing", "directory", "malformed"])
def test_read_failures_are_parse_errors_with_the_exception_text(tmp_path, kind):
    path = tmp_path / "in.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "malformed":
        path.write_text("{not json")
    message = {
        "missing": f"[Errno 2] No such file or directory: '{path}'",
        "directory": f"[Errno 21] Is a directory: '{path}'",
        "malformed": "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
    }[kind]
    rc, out, err = run_cli(["pavings", "check", str(path)])
    assert (rc, out) == (2, "")
    assert json.loads(err)["error"] == {"type": "ParseError", "message": message}


def test_failed_out_write_is_a_parse_error(tmp_path):
    """A write into a missing directory once ended in a traceback, exit 1."""
    target = tmp_path / "missing" / "x.json"
    rc, out, err = run_cli(["pavings", "enum", "--r", "2", "--n", "1", "--out", str(target)])
    assert (rc, out) == (2, "")
    assert json.loads(err) == {
        "error": {"type": "ParseError", "message": f"[Errno 2] No such file or directory: '{target}'"},
        "version": "chtouca-kit/1",
    }
    assert not target.parent.exists()


def test_handlers_return_payloads_and_main_writes_them(monkeypatch):
    """`main` is the one writer: a handler's payload reaches stdout only
    through `_emit`."""
    emitted = []
    monkeypatch.setattr(cli, "_emit", lambda payload, out: emitted.append((payload, out)))
    rc, out, _ = run_cli(["fans", "torus-seq", "--r", "2", "--n", "2"])
    assert (rc, out) == (0, "")
    [(payload, target)] = emitted
    assert target is None and payload == cli.cmd_fans_torus_seq(argparse.Namespace(r=2, n=2))


def test_internal_error_exit_code(monkeypatch):
    def broken(args):
        raise InternalError("invariant broken")

    monkeypatch.setattr(cli, "cmd_fans_torus_seq", broken)
    rc, out, err = run_cli(["fans", "torus-seq", "--r", "2", "--n", "2"])
    assert rc == 3 and out == ""
    assert json.loads(err) == {
        "error": {"type": "InternalError", "message": "invariant broken"},
        "version": "chtouca-kit/1",
    }


def test_byte_determinism():
    cmds = [
        ["pavings", "enum", "--r", "3", "--n", "1"],
        ["fans", "torus-seq", "--r", "2", "--n", "2"],
    ]
    for cmd in cmds:
        outs = set()
        for jobs in ("1", "1", "4"):
            rc, out, _ = run_cli(["--jobs", jobs] + cmd)
            assert rc == 0
            outs.add(out)
        assert len(outs) == 1


def test_jobs_from_environment_must_be_an_integer(monkeypatch):
    monkeypatch.setenv("CHTOUCA_KIT_JOBS", "x")
    rc, out, err = run_cli(["fans", "torus-seq", "--r", "2", "--n", "2"])
    assert rc == 2 and out == ""
    assert json.loads(err) == {
        "error": {"type": "ParseError", "message": "CHTOUCA_KIT_JOBS must be an integer, got 'x'"},
        "version": "chtouca-kit/1",
    }


def test_jobs_below_one_is_invalid_data(monkeypatch):
    expected = (
        '{"error": {"message": "jobs must be >= 1", "type": "InvalidData"}, '
        '"version": "chtouca-kit/1"}\n'
    )
    rc, out, err = run_cli(["--jobs", "0", "fans", "torus-seq", "--r", "2", "--n", "2"])
    assert (rc, out, err) == (1, "", expected)
    monkeypatch.setenv("CHTOUCA_KIT_JOBS", "0")
    rc, out, err = run_cli(["fans", "torus-seq", "--r", "2", "--n", "2"])
    assert (rc, out, err) == (1, "", expected)


def test_trunc_convex_rejects_polygon_with_wrong_r(tmp_path):
    polygon = {"r": 5, "values": ["0", "1", "0"]}
    rc, out, err = run_cli(["trunc", "convex", "--mu", "0", "p.json"], {"p.json": polygon}, tmp_path)
    assert rc == 1 and out == ""
    assert json.loads(err)["error"]["type"] == "InvalidData"
    polygon["r"] = 2
    rc, out, _ = run_cli(["trunc", "convex", "--mu", "0", "p.json"], {"p.json": polygon}, tmp_path)
    assert rc == 0 and json.loads(out)["convex"] is True


# stdout and exit codes of `pavings qadm` and `fans verify`, pinned from the
# LP-based q-admissibility and relative-interior test

TWO_MAXIMAL_CONES = {
    "rank": 2,
    "rays": [[1, 0], [0, 1], [1, 1], [-1, 0]],
    "cones": [{"rays": []}, {"rays": [0]}, {"rays": [1]}, {"rays": [2]}, {"rays": [0, 1]},
              {"rays": [0, 2]}, {"rays": [3]}, {"rays": [1, 3]}],
}


def test_pavings_qadm_golden(tmp_path):
    rc, out, _ = run_cli(["pavings", "enum", "--r", "2", "--n", "2"])
    pavings = [{"r": 2, "n": 2, "paves": paves} for paves in json.loads(out)["pavings"]]
    # the (2, 2) pavings in enumeration order, then a non-admissible (3, 2) cover
    pavings.append({"r": 3, "n": 2, "paves": [
        {"points": [[3, 0, 0], [2, 1, 0], [2, 0, 1], [1, 1, 1]]},
        {"points": [[2, 1, 0], [1, 2, 0], [1, 1, 1], [0, 3, 0], [0, 2, 1]]},
        {"points": [[2, 0, 1], [1, 1, 1], [1, 0, 2], [0, 2, 1], [0, 1, 2], [0, 0, 3]]},
    ]})
    answers = ["true", "false", "false", "false", "true", "false", "true", "true", "false"]
    assert len(pavings) == len(answers)
    for q in (2, 3):
        for paving, answer in zip(pavings, answers):
            rc, out, _ = run_cli(
                ["pavings", "qadm", "--q", str(q), "p.json"], {"p.json": paving}, tmp_path
            )
            assert (rc, out) == (0, '{"q":%d,"q_admissible":%s,"version":"chtouca-kit/1"}\n' % (q, answer))


def test_fans_verify_golden_on_two_maximal_cones(tmp_path):
    rc, out, _ = run_cli(["fans", "verify", "fan.json"], {"fan.json": TWO_MAXIMAL_CONES}, tmp_path)
    assert rc == 0
    assert out == (
        '{"cones":8,"failures":[["intersection_not_common_face","3","4"],'
        '["relative_interiors_meet","3","4"],["intersection_not_common_face","4","5"],'
        '["relative_interiors_meet","4","5"]],"fan":{"cones":[{"paving":"","rays":[]},'
        '{"paving":"","rays":[0]},{"paving":"","rays":[1]},{"paving":"","rays":[2]},'
        '{"paving":"","rays":[0,1]},{"paving":"","rays":[0,2]},{"paving":"","rays":[3]},'
        '{"paving":"","rays":[1,3]}],"rank":2,"rays":[[1,0],[0,1],[1,1],[-1,0]],'
        '"zero_included":true},"ok":false,"rank":2,"version":"chtouca-kit/1"}\n'
    )


# malformed cones and fans are InvalidData (exit 1), not a silent answer
# or a traceback


def assert_invalid_data(argv, files, tmp_path, message):
    rc, out, err = run_cli(argv, files, tmp_path)
    assert (rc, out) == (1, "")
    assert json.loads(err)["error"] == {"type": "InvalidData", "message": message}


def test_fans_dual_rejects_ray_of_wrong_length(tmp_path):
    cone = {"rank": 2, "rays": [[1, 0, 7], [0, 1]]}
    assert_invalid_data(["fans", "dual", "--cone", "c.json"], {"c.json": cone}, tmp_path,
                        "row [1, 0, 7] has length 3, expected rank 2")


def test_fans_dual_rejects_inequality_of_wrong_length(tmp_path):
    cone = {"rank": 2, "ineqs": [[1]]}
    assert_invalid_data(["fans", "dual", "--cone", "c.json"], {"c.json": cone}, tmp_path,
                        "row [1] has length 1, expected rank 2")


def test_fans_verify_rejects_negative_ray_index(tmp_path):
    fan = dict(TWO_MAXIMAL_CONES, cones=TWO_MAXIMAL_CONES["cones"] + [{"rays": [-1]}])
    assert_invalid_data(["fans", "verify", "f.json"], {"f.json": fan}, tmp_path,
                        "ray index -1 is not in range(4)")


def test_fans_verify_rejects_ray_index_past_the_end(tmp_path):
    fan = dict(TWO_MAXIMAL_CONES, cones=TWO_MAXIMAL_CONES["cones"] + [{"rays": [4]}])
    assert_invalid_data(["fans", "verify", "f.json"], {"f.json": fan}, tmp_path,
                        "ray index 4 is not in range(4)")


@pytest.mark.parametrize("index", [True, False, 1.0])
def test_fans_verify_rejects_ray_index_that_is_not_an_integer(tmp_path, index):
    fan = dict(TWO_MAXIMAL_CONES, cones=TWO_MAXIMAL_CONES["cones"] + [{"rays": [index]}])
    assert_invalid_data(["fans", "verify", "f.json"], {"f.json": fan}, tmp_path,
                        f"a ray index must be an integer, got {index!r}")


@pytest.mark.parametrize("rank", [5, 600])
def test_fans_monoid_rank_cap_comes_before_the_cone(tmp_path, rank):
    cone = {"rank": rank, "rays": []}
    with mock.patch.object(fans, "double_description", side_effect=AssertionError("cone built")):
        rc, out, err = run_cli(["fans", "monoid", "--cone", "c.json"], {"c.json": cone}, tmp_path)
    assert (rc, out) == (1, "")
    assert json.loads(err)["error"] == {
        "type": "TooLarge", "message": f"monoid generators capped at rank {fans.MONOID_RANK_CAP}",
    }


def test_fans_dual_rejects_float_coordinate(tmp_path):
    cone = {"rank": 2, "rays": [[1.5, 0]]}
    assert_invalid_data(["fans", "dual", "--cone", "c.json"], {"c.json": cone}, tmp_path,
                        "a coordinate must be an integer, got 1.5")


def test_fans_dual_rejects_boolean_coordinate(tmp_path):
    cone = {"rank": 2, "rays": [[True, 0]]}
    assert_invalid_data(["fans", "dual", "--cone", "c.json"], {"c.json": cone}, tmp_path,
                        "a coordinate must be an integer, got True")


def test_fans_dual_rejects_negative_rank(tmp_path):
    cone = {"rank": -1, "rays": []}
    assert_invalid_data(["fans", "dual", "--cone", "c.json"], {"c.json": cone}, tmp_path,
                        "rank must be >= 0, got -1")


def test_fans_verify_rejects_float_ray(tmp_path):
    fan = dict(TWO_MAXIMAL_CONES, rays=[[1, 0], [0, 1], [1, 1], [-1.0, 0]])
    assert_invalid_data(["fans", "verify", "f.json"], {"f.json": fan}, tmp_path,
                        "a coordinate must be an integer, got -1.0")


def test_pavings_check_rejects_float_point(tmp_path):
    paving = {"r": 2, "n": 1, "paves": [{"points": [[2.9, 0], [1, 1], [0, 2]]}]}
    assert_invalid_data(["pavings", "check", "p.json"], {"p.json": paving}, tmp_path,
                        "a point coordinate must be an integer, got 2.9")


def test_pavings_check_rejects_float_and_boolean_r(tmp_path):
    paving = {"r": 2.7, "n": 1, "paves": [{"points": [[2, 0], [1, 1], [0, 2]]}]}
    assert_invalid_data(["pavings", "check", "p.json"], {"p.json": paving}, tmp_path,
                        "r must be an integer, got 2.7")
    paving = {"r": True, "n": 1, "paves": [{"points": [[1, 0], [0, 1]]}]}
    assert_invalid_data(["pavings", "check", "p.json"], {"p.json": paving}, tmp_path,
                        "r must be an integer, got True")


def test_homs_lang_rejects_non_square_matrices(tmp_path):
    for matrix in ([["1", "2", "3"]], [["1"], ["2"]]):
        payload = {"field": {"GF": [5, 1]}, "matrix": matrix}
        assert_invalid_data(["homs", "lang", "--q", "5", "m.json"], {"m.json": payload},
                            tmp_path, "matrix must be square")


@pytest.mark.parametrize("q", ["0", "1", "-4", "6"])
def test_homs_lang_rejects_q_not_a_power_of_the_characteristic(tmp_path, q):
    """Run in a child process with a timeout: q = 0 once looped forever."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"field": {"GF": [2, 2]}, "matrix": [["1", "0"], ["0", "1"]]}))
    proc = subprocess.run(
        [sys.executable, "-m", "chtoucakit.cli", "homs", "lang", "--q", q, str(path)],
        capture_output=True, text=True, timeout=30,
        env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])),
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert json.loads(proc.stderr)["error"] == {
        "type": "InvalidData", "message": "q must be a positive power of the characteristic"
    }


def test_out_of_range_r_and_n_are_invalid_data(tmp_path):
    expected = (
        '{"error": {"message": "need r >= 1 and n >= 0", "type": "InvalidData"}, '
        '"version": "chtouca-kit/1"}\n'
    )
    for argv in (
        ["pavings", "enum", "--r", "0", "--n", "2"],
        ["pavings", "enum", "--r", "-1", "--n", "1"],
        ["pavings", "enum", "--r", "1", "--n", "-1"],
        ["fans", "torus-seq", "--r", "0", "--n", "1"],
        ["fans", "tau-seq", "--r", "-2", "--q", "3"],
    ):
        assert run_cli(argv) == (1, "", expected), argv
    # the same check on a paving read from JSON
    paving = {"r": 0, "n": 1, "paves": [{"points": [[0, 0]]}]}
    rc, out, err = run_cli(["pavings", "check", "p.json"], {"p.json": paving}, tmp_path)
    assert (rc, out, err) == (1, "", expected)



LFUN_FILES = {
    "place.json": {"deg": 1, "coeffs": ["1", "-2"]},
    "pi.json": {"coeffs": ["1", "-5/2", "1"]},
}


def spectral_argv(trace="1", r="2", q="4", deg_inf="1", deg_o="1"):
    return [
        "lfun", "spectral", "--trace", trace, "--r", r, "--deg-xi", "1", "--n", "1",
        "--inf", "pi.json", "--deg-inf", deg_inf, "--o", "pi.json", "--deg-o", deg_o, "--q", q,
    ]


@pytest.mark.parametrize("argv", [
    ["hn", "compute", "lat.json", "--alpha", "1/0"],
    ["trunc", "convex", "--mu", "1/0", "p.json"],
    spectral_argv(trace="1/0"),
], ids=["alpha", "mu", "trace"])
def test_zero_denominator_is_a_parse_error(tmp_path, argv):
    lattice = {
        "r": 1,
        "records": [{"id": "0", "rank": 0, "deg0": 0, "deg1": 0},
                    {"id": "E", "rank": 1, "deg0": 1, "deg1": 1}],
        "order": [["0", "E"]],
    }
    files = {"lat.json": lattice, "p.json": {"r": 3, "values": ["0", "4", "4", "0"]}}
    rc, out, err = run_cli(argv, {**files, **LFUN_FILES}, tmp_path)
    assert (rc, out) == (2, "")
    assert json.loads(err)["error"] == {
        "type": "ParseError", "message": "zero denominator in '1/0'"
    }


HN_LATTICE = {
    "r": 2,
    "records": [{"id": "0", "rank": 0, "deg0": 0, "deg1": 0},
                {"id": "L", "rank": 1, "deg0": 1, "deg1": 3},
                {"id": "E", "rank": 2, "deg0": 1, "deg1": 2}],
    "order": [["0", "L"], ["L", "E"]],
}


@pytest.mark.parametrize("option,argv", [
    ("--alpha", ["hn", "compute", "lat.json"]),
    ("--trace", spectral_argv()[:2] + spectral_argv()[4:]),
    ("--mu", ["trunc", "convex", "p.json"]),
])
def test_negative_value_as_separate_token_matches_equals_form(tmp_path, option, argv):
    files = {"lat.json": HN_LATTICE, "p.json": {"r": 3, "values": ["0", "4", "4", "0"]},
             **LFUN_FILES}
    separate = run_cli(argv + [option, "-1/2"], files, tmp_path)
    joined = run_cli(argv + [f"{option}=-1/2"], files, tmp_path)
    assert separate[0] == 0
    assert separate[:2] == joined[:2]


@pytest.mark.parametrize("argv,message", [
    (["lfun", "bounds", "--q", "0", "--mode", "js", "place.json"], "q must be at least 2"),
    (["lfun", "bounds", "--q", "1", "--mode", "js", "place.json"], "q must be at least 2"),
    (["lfun", "bounds", "--q", "-4", "--mode", "js", "place.json"], "q must be at least 2"),
    (["lfun", "bounds", "--q", "1", "--mode", "rp", "place.json"], "q must be at least 2"),
    (spectral_argv(r="0", q="0"), "r must be at least 1"),
    (spectral_argv(r="0"), "r must be at least 1"),
    (spectral_argv(q="0"), "q must be at least 2"),
    (spectral_argv(q="1"), "q must be at least 2"),
], ids=["bounds-js-q0", "bounds-js-q1", "bounds-js-q-4", "bounds-rp-q1",
        "spectral-r0-q0", "spectral-r0", "spectral-q0", "spectral-q1"])
def test_lfun_q_below_two_and_r_below_one_are_invalid_data(tmp_path, argv, message):
    rc, out, err = run_cli(argv, LFUN_FILES, tmp_path)
    assert (rc, out) == (1, "")
    assert json.loads(err)["error"] == {"type": "InvalidData", "message": message}


@pytest.mark.parametrize("places", [[], [{"deg": 1, "coeffs": ["1", "-2"]}]],
                         ids=["no-places", "one-place"])
@pytest.mark.parametrize("command", ["local", "partial"])
def test_lfun_negative_order_names_the_order(tmp_path, command, places):
    """`partial` once failed on the length of the empty product's
    coefficients before it checked the order."""
    files = {"place.json": LFUN_FILES["place.json"], "places.json": {"places": places}}
    argv = ["lfun", command, "place.json" if command == "local" else "places.json", "--D", "-1"]
    assert_invalid_data(argv, files, tmp_path, "order must be >= 0")


@pytest.mark.parametrize("argv,message", [
    (["trunc", "convex", "p.json"], "polygon needs r >= 0"),
    (["trunc", "split", "--p", "p.json", "--d", "1"], "polygon needs r >= 0"),
    (["trunc", "split", "--p", "p0.json", "--d", "1"], "splitting requires r >= 1"),
], ids=["convex-no-values", "split-no-values", "split-r0"])
def test_trunc_degenerate_polygons_are_invalid_data(tmp_path, argv, message):
    """No values once ended in an IndexError, and splitting at r = 0 in a
    ZeroDivisionError."""
    files = {"p.json": {"values": []}, "p0.json": {"values": ["0"]}}
    assert_invalid_data(argv, files, tmp_path, message)
    rc, out, _ = run_cli(["trunc", "convex", "p0.json"], files, tmp_path)
    assert rc == 0 and json.loads(out)["convex"] is True


@pytest.mark.parametrize("coeffs,q,kind,message", [
    (["1", "1e400"], "4", "RootFindingFailed", "a coefficient is past the float range"),
    (["1", "-2"], "1" + "0" * 400, "TooLarge", "q is past the float range of the bound check"),
], ids=["coefficient", "q"])
def test_lfun_bounds_past_the_float_range_are_domain_errors(tmp_path, coeffs, q, kind, message):
    """Each once ended in an OverflowError traceback."""
    files = {"place.json": {"deg": 1, "coeffs": coeffs}}
    rc, out, err = run_cli(["lfun", "bounds", "place.json", "--q", q, "--mode", "js"], files, tmp_path)
    assert (rc, out) == (1, "")
    assert json.loads(err)["error"] == {"type": kind, "message": message}


@pytest.mark.parametrize("deg_inf,deg_o", [("0", "1"), ("1", "0"), ("-1", "1"), ("-2", "-2")])
def test_lfun_spectral_place_degrees_below_one_are_invalid_data(tmp_path, deg_inf, deg_o):
    """Degree 0 once divided by zero, and negative degrees passed the
    divisibility test."""
    assert_invalid_data(spectral_argv(deg_inf=deg_inf, deg_o=deg_o), LFUN_FILES, tmp_path,
                        "place degrees must be positive")


@pytest.mark.parametrize("field,u1,lams,size", [
    ({"Q": True}, [["1"], ["2"]], ["1"], 2),
    ({"GF": [5, 1]}, [["1", "2"], ["3"]], ["1"], 2),
    ({"Q": True}, [["0", "0", "1"], ["0", "1", "0"]], ["1"], 2),
    ({"Q": True}, [["1", "0", "0"], ["0", "1", "0"]], ["1"], 2),
    ({"Q": True}, [[]], [], 1),
    ({"Q": True}, [["1", "2", "3"]], [], 1),
], ids=["ragged-Q", "ragged-GF5", "2x3-singular-minor", "2x3-invertible-minor", "1x0", "1x3"])
def test_homs_complete_rejects_non_square_u1(tmp_path, field, u1, lams, size):
    """Ragged rows once ended in an IndexError, and a 2x3 u_1 was Singular
    or InvalidData by the values of its entries."""
    payload = {"field": field, "u1": u1, "lambda": lams}
    assert_invalid_data(["homs", "complete", "h.json"], {"h.json": payload}, tmp_path,
                        f"u_1 must be {size}x{size}")


@pytest.mark.parametrize("criteria,unknown", [("99", "99"), ("0,15", "0, 15"), ("1,99", "99")])
def test_selftest_rejects_unknown_criteria_before_running_any(criteria, unknown):
    """A mistyped number once ran nothing and exited 0."""
    rc, out, err = run_cli(["selftest", "--criteria", criteria])
    assert (rc, out) == (1, "")
    assert json.loads(err)["error"] == {
        "type": "InvalidData", "message": f"no acceptance criterion {unknown}"
    }


# ---------------------------------------------------------------------------
# the parsers built on a command's path against the eagerly built tree


def oracle_build_parser():
    """The whole command tree with every parser built up front, as
    `cli.build_parser` built it before it deferred each subparser."""
    parser = argparse.ArgumentParser(
        prog="chtouca-kit",
        description="Exact pavings, fans, complete homomorphisms, slope polygons and L-factor algebra",
    )
    parser.add_argument("--jobs", type=int, default=None, help="parallelism degree (accepted; execution is sequential)")
    sub = parser.add_subparsers(dest="group", required=True)

    g = sub.add_parser("pavings").add_subparsers(dest="command", required=True)
    p = g.add_parser("enum")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cli.cmd_pavings_enum)
    p = g.add_parser("check")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(func=cli.cmd_pavings_check)
    p = g.add_parser("qadm")
    p.add_argument("file")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cli.cmd_pavings_qadm)

    g = sub.add_parser("fans").add_subparsers(dest="command", required=True)
    p = g.add_parser("verify")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(func=cli.cmd_fans_verify)
    p = g.add_parser("dual")
    p.add_argument("--cone", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cli.cmd_fans_dual)
    p = g.add_parser("monoid")
    p.add_argument("--cone", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cli.cmd_fans_monoid)
    p = g.add_parser("torus-seq")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cli.cmd_fans_torus_seq)
    p = g.add_parser("tau-seq")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cli.cmd_fans_tau_seq)

    g = sub.add_parser("homs").add_subparsers(dest="command", required=True)
    p = g.add_parser("complete")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(func=cli.cmd_homs_complete)
    p = g.add_parser("stratum")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(func=cli.cmd_homs_stratum)
    p = g.add_parser("act")
    p.add_argument("file")
    p.add_argument("--mu", required=True, help="comma-separated scalars")
    p.add_argument("--out")
    p.set_defaults(func=cli.cmd_homs_act)
    p = g.add_parser("lang")
    p.add_argument("file")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cli.cmd_homs_lang)

    g = sub.add_parser("hn").add_subparsers(dest="command", required=True)
    p = g.add_parser("compute")
    p.add_argument("file")
    p.add_argument("--alpha", default="0")
    p.add_argument("--out")
    p.set_defaults(func=cli.cmd_hn_compute)

    g = sub.add_parser("trunc").add_subparsers(dest="command", required=True)
    p = g.add_parser("split")
    p.add_argument("--p", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--R", dest="cuts", default="")
    p.add_argument("--out")
    p.set_defaults(func=cli.cmd_trunc_split)
    p = g.add_parser("convex")
    p.add_argument("file")
    p.add_argument("--mu", default="0")
    p.add_argument("--out")
    p.set_defaults(func=cli.cmd_trunc_convex)

    g = sub.add_parser("graphs").add_subparsers(dest="command", required=True)
    p = g.add_parser("check")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(func=cli.cmd_graphs_check)

    g = sub.add_parser("lfun").add_subparsers(dest="command", required=True)
    p = g.add_parser("local")
    p.add_argument("file")
    p.add_argument("--D", dest="order", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cli.cmd_lfun_local)
    p = g.add_parser("partial")
    p.add_argument("file")
    p.add_argument("--D", dest="order", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cli.cmd_lfun_partial)
    p = g.add_parser("star")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cli.cmd_lfun_star)
    p = g.add_parser("psum")
    p.add_argument("file")
    p.add_argument("--nu", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cli.cmd_lfun_psum)
    p = g.add_parser("bounds")
    p.add_argument("file")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--mode", choices=["js", "rp", "JS", "RP"], required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out")
    p.set_defaults(func=cli.cmd_lfun_bounds)
    p = g.add_parser("spectral")
    p.add_argument("--trace", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--deg-xi", dest="deg_xi", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--inf", required=True)
    p.add_argument("--deg-inf", dest="deg_inf", type=int, required=True)
    p.add_argument("--o", required=True)
    p.add_argument("--deg-o", dest="deg_o", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cli.cmd_lfun_spectral)

    p = sub.add_parser("selftest")
    p.add_argument("--criteria", help="comma-separated subset, e.g. 1,2,5")
    p.set_defaults(func=cli.cmd_selftest)
    return parser


COMMANDS = {
    "pavings": ["enum", "check", "qadm"],
    "fans": ["verify", "dual", "monoid", "torus-seq", "tau-seq"],
    "homs": ["complete", "stratum", "act", "lang"],
    "hn": ["compute"],
    "trunc": ["split", "convex"],
    "graphs": ["check"],
    "lfun": ["local", "partial", "star", "psum", "bounds", "spectral"],
}
# --help, no arguments, an unknown option and surplus positionals at every
# level; unknown names; the top-level --jobs forms; the signed-value joins
PARSER_CASES = [
    path + tail
    for path in [[g] for g in [*COMMANDS, "selftest"]] + [[g, c] for g in COMMANDS for c in COMMANDS[g]]
    for tail in (["--help"], [], ["--bogus"], ["a.json", "b.json"])
] + [
    [], ["--help"], ["nosuch"], ["pavings", "nosuch"], ["--jobs"], ["--jobs", "x", "pavings"],
    ["--jo", "2", "pavings", "enum", "--r", "2", "--n", "1"],
    ["pavings", "enum", "--r", "2", "--n", "1", "--bogus"],
    ["fans", "torus-seq", "--r", "2", "--n", "2", "extra"],
    ["homs", "act", "h.json", "--mu", "-1,7,7"], ["hn", "compute", "l.json", "--alpha", "-1/2"],
    ["lfun", "bounds", "p.json", "--q", "4", "--mode", "xx"], ["lfun", "local", "p.json", "--D", "x"],
]


def run_main(argv):
    """(exit code, stdout, stderr) of `cli.main`, help and usage errors
    (which exit through SystemExit) included."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as e:
            rc = e.code
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture
def cli_sandbox(monkeypatch, tmp_path):
    """Help text wrapped at 80 columns, relative paths in an empty
    directory and `selftest` reduced to echoing the criteria it was given."""
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(acceptance, "run_all", lambda wanted: print(wanted) or [])


@pytest.mark.parametrize("argv", PARSER_CASES, ids=" ".join)
def test_parsers_on_the_path_match_the_eager_tree(monkeypatch, cli_sandbox, argv):
    got = run_main(argv)
    monkeypatch.setattr(cli, "build_parser", oracle_build_parser)
    assert got == run_main(argv)
    assert got[0] in (0, 2)


@pytest.mark.parametrize("argv,progs", [
    (["pavings", "enum", "--r", "2", "--n", "1"], ["pavings", "pavings enum"]),
    (["fans", "verify", "--help"], ["fans", "fans verify"]),
    (["selftest", "--criteria", "1"], ["selftest"]),
    (["lfun", "--help"], ["lfun"]),
    (["--help"], []),
])
def test_parsers_built_per_call(monkeypatch, cli_sandbox, argv, progs):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs["prog"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    oracle_build_parser()
    assert len(built) == 31
    built.clear()
    run_main(argv)
    assert built == ["chtouca-kit"] + [f"chtouca-kit {prog}" for prog in progs]


def test_pave_table_past_the_enumeration_cap_is_too_large(tmp_path):
    points = [list(p) for p in enumerate_lattice_points(2, 14)]
    paving = {"r": 2, "n": 14, "paves": [{"points": points}]}
    for command in (["pavings", "check"], ["fans", "verify"]):
        rc, out, err = run_cli(command + ["trivial.json"], {"trivial.json": paving}, tmp_path)
        assert (rc, out) == (1, "")
        assert json.loads(err)["error"] == {
            "type": "TooLarge", "message": "the pavé table of S^{2,14} exceeds the enumeration cap"
        }
