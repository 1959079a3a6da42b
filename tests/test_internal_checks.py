"""Internal invariants raise `InternalError`, never `assert`, so they also
hold under `python -O`, which strips assert statements.

Each check is broken on purpose in a `-O` subprocess by replacing the
helper whose output it guards; every call must still end in
`InternalError`.
"""

import os
import subprocess
import sys
from pathlib import Path

CODE = """
import math
from chtoucakit import complete_homs as ch, hn_truncation as hn
from chtoucakit import simplex_core as sc, zlattice
from chtoucakit.errors import InternalError
from chtoucakit.fields import QQ

def report(call):
    try:
        call()
    except InternalError:
        print('InternalError')
    else:
        print('no error')

h = ch.complete_from_open(QQ, [[2, 1, 0], [0, 1, 0], [1, 0, 1]], [QQ.one(), QQ.one()])
data = ch.stratum_data(h)
columns = ch._columns

def zero_basis(k):
    # the scaled adapted bases (N, d) are built A first, then B: zero the k-th
    calls = iter((1, 2))
    return lambda *args: ([[0] * 3 for _ in range(3)], 1) if next(calls) == k else columns(*args)

ch._columns = zero_basis(1)
report(lambda: ch.build_stratum_point(data))
ch._columns = zero_basis(2)
report(lambda: ch.stratum_data(h))

hn.floor = lambda x: math.floor(x) + 1
report(lambda: hn.split_truncation(hn.Polygon.from_values([0, 4, 4, 0]), 0, [1]))

sc.comb = lambda a, b: -1
report(lambda: sc.enumerate_lattice_points(5, 3))
sc.comb = math.comb
hnf = zlattice.hnf
zlattice.hnf = lambda gens: hnf(gens)[:-1]
report(lambda: sc.quotient_lattice(3, 2))
zlattice.hnf = hnf
"""


def test_internal_checks_run_under_python_O():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-O", "-c", CODE], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["InternalError"] * 5
