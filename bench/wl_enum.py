"""`enum`: one cold `pavings enum --r 3 --n 2` through `cli.main`.

The inputs are fixed, so the seed selects nothing. The output file is
checked against the faces of the alcove-triangulation secondary cone.
"""

from __future__ import annotations

import json
import os

from alcove import AlcoveCone, tiling_problem

import chtoucakit.cli as cli


class Workload:
    def __init__(self, seed: int, tmpdir: str):
        self.out = os.path.join(tmpdir, f"enum-{seed}-{os.getpid()}.json")

    def ops(self):
        argv = ["pavings", "enum", "--r", "3", "--n", "2", "--out", self.out]
        return [("pavings_enum", lambda: cli.main(argv))]

    def check(self, results) -> list[str]:
        if results[0] is None:
            return []
        if results[0] != 0:
            return [f"pavings enum exited with {results[0]}"]
        with open(self.out, encoding="utf-8") as fh:
            payload = json.load(fh)
        os.remove(self.out)
        cone = AlcoveCone(3)
        by_paving = {f.paving: f for f in cone.faces}
        problems = []
        if payload.get("count") != len(payload.get("pavings", ())):
            problems.append("count field disagrees with the paving list")
        seen = {}
        for k, paves in enumerate(payload["pavings"]):
            paving = frozenset(frozenset(tuple(pt) for pt in pave["points"]) for pave in paves)
            fault = tiling_problem(3, paving, cone.triangles)
            if fault:
                problems.append(f"paving {k}: {fault}")
                continue
            face = by_paving.get(paving)
            if face is None:
                problems.append(f"paving {k} is no face's merge of alcoves")
            elif face.rays in seen:
                problems.append(f"pavings {seen[face.rays]} and {k} map to one face")
            else:
                seen[face.rays] = k
        if len(payload["pavings"]) != len(cone.faces):
            problems.append(f"{len(payload['pavings'])} pavings for {len(cone.faces)} faces")
        return problems
