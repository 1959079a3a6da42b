"""numpy is loaded only where roots are extracted: each test runs the
package in a fresh interpreter and lists the numpy modules it loaded."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

# Runs in the child: records the modules loaded at start-up (those of the
# environment's `site` are not counted), imports the listed modules, runs
# each command through cli.main, and prints the exit codes, the stdout of
# each command and the numpy modules loaded since start-up.
CHILD = """
import sys
before = set(sys.modules)
import importlib, io, json
from contextlib import redirect_stdout

spec = json.loads(sys.argv[1])
for name in spec["modules"]:
    importlib.import_module(name)
from chtoucakit import cli

codes, outs = [], []
for argv in spec["commands"]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        codes.append(cli.main(argv))
    outs.append(buf.getvalue())
loaded = sorted(
    m for m in set(sys.modules) - before if m == "numpy" or m.startswith("numpy.")
)
print(json.dumps({"codes": codes, "outs": outs, "numpy": loaded}))
"""


def run_fresh(modules, commands, cwd):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps({"modules": modules, "commands": commands})],
        capture_output=True, text=True, env=env, cwd=cwd, check=True,
    )
    return json.loads(proc.stdout)


def package_modules():
    """Every module of the package."""
    names = sorted(p.stem for p in Path(SRC, "chtoucakit").glob("*.py"))
    return [f"chtoucakit.{n}" for n in names if n != "__init__"]


def test_commands_other_than_bounds_do_not_load_numpy(tmp_path):
    modules = package_modules()
    assert {"chtoucakit.acceptance", "chtoucakit.l_functions", "chtoucakit.jsonio"} <= set(modules)
    hom = {"r": 2, "field": {"Q": True}, "u": [[["1", "2"], ["2", "4"]], [["3"]]], "lambda": ["0"]}
    (tmp_path / "hom.json").write_text(json.dumps(hom))
    (tmp_path / "a.json").write_text(json.dumps({"coeffs": ["1", "-2"]}))
    (tmp_path / "b.json").write_text(json.dumps({"coeffs": ["1", "-3"]}))
    result = run_fresh(modules, [
        ["pavings", "enum", "--r", "3", "--n", "2", "--out", "enum.json"],
        ["fans", "verify", "enum.json"],
        ["homs", "stratum", "hom.json"],
        ["lfun", "star", "--a", "a.json", "--b", "b.json"],
        ["selftest", "--criteria", "1"],
    ], tmp_path)
    assert result["codes"] == [0, 0, 0, 0, 0]
    assert json.loads(result["outs"][1])["ok"] is True
    assert json.loads(result["outs"][2])["stratum"] == [1]
    assert json.loads(result["outs"][3])["coeffs"] == ["1", "-6"]
    assert result["outs"][4].startswith("PASS criterion  1 ")
    assert result["numpy"] == []


def test_bounds_loads_numpy_and_keeps_its_answers(tmp_path):
    places = {
        "p1.json": {"deg": 1, "coeffs": ["1", "-2"]},
        "p2.json": {"deg": 2, "coeffs": ["1", "-3", "4"]},
        "p3.json": {"deg": 1, "coeffs": ["1", "-6/5", "1"]},
    }
    for name, place in places.items():
        (tmp_path / name).write_text(json.dumps(place))
    commands = [
        ["lfun", "bounds", "--q", "4", "--mode", mode, name]
        for mode in ("js", "rp") for name in places
    ]
    result = run_fresh([], commands, tmp_path)
    assert result["codes"] == [0] * 6
    assert result["outs"] == [
        '{"mode":"JS","ok":false,"q":4,"version":"chtouca-kit/1"}\n',
        '{"mode":"JS","ok":true,"q":4,"version":"chtouca-kit/1"}\n',
        '{"mode":"JS","ok":true,"q":4,"version":"chtouca-kit/1"}\n',
        '{"mode":"RP","ok":false,"q":4,"version":"chtouca-kit/1"}\n',
        '{"mode":"RP","ok":false,"q":4,"version":"chtouca-kit/1"}\n',
        '{"mode":"RP","ok":true,"q":4,"version":"chtouca-kit/1"}\n',
    ]
    assert "numpy" in result["numpy"]
