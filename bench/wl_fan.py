"""`fan`: the `fans verify` pipeline and secondary cones of (3, 2).

Per round: `fans verify` through `cli.main` on the admissible pavings of
(2, 2), (3, 1) and (4, 1); the maximal cone of (3, 2) with its
`proper_faces`; and, for a seeded sample of (3, 2) pavings stratified by
size, `sigma_cone`, `is_face` against the maximal cone (of the cone, of
the ray through its relative interior, and of the cone widened by an
interior ray of the maximal cone, as one operation) and `dual_cone`
applied twice. Every paving is built by the benchmark from the face
lattice of the alcove-triangulation secondary cone (or, for n = 1, from
the compositions of r), not by the program.
"""

from __future__ import annotations

import json
import os
import random
from collections import Counter
from fractions import Fraction

from alcove import AlcoveCone
from exact import RationalOps, rank

import chtoucakit.cli as cli
import chtoucakit.fans as fans
import chtoucakit.jsonio as jsonio
import chtoucakit.pavings as pv

QQ = RationalOps()
# The (3, 2) pavings other than the trivial and the finest one are sorted
# by size (pavés, then inequality rows of their cone) and cut into this
# many equal bins; a round samples one paving from each, so the cost of a
# round varies little with the seed.
SAMPLE_BINS = 24


def paving_json(r: int, n: int, paving) -> dict:
    paves = sorted(sorted(list(p) for p in pave) for pave in paving)
    return {"r": r, "n": n, "paves": [{"points": pts} for pts in paves]}


def interval_pavings(r: int):
    for mask in range(1 << (r - 1)):
        cuts = [0] + [c for c in range(1, r) if mask >> (c - 1) & 1] + [r]
        yield frozenset(
            frozenset((r - x, x) for x in range(a, b + 1)) for a, b in zip(cuts, cuts[1:])
        )


def cone_dim(cone) -> int:
    gens = [list(map(Fraction, g)) for g in cone.rays]
    gens += [list(map(Fraction, g)) for g in cone.lin]
    return rank(QQ, gens) if gens else 0


class Workload:
    def __init__(self, seed: int, tmpdir: str):
        rng = random.Random(seed)
        self.cone3 = AlcoveCone(3)
        cone2 = AlcoveCone(2)
        self.verify = []  # (input path, output path, expected cone count)
        families = {
            (2, 2): [f.paving for f in cone2.faces],
            (3, 1): list(interval_pavings(3)),
            (4, 1): list(interval_pavings(4)),
        }
        for (r, n), pavings in families.items():
            src = os.path.join(tmpdir, f"fan-in-{r}{n}-{seed}-{os.getpid()}.json")
            dst = os.path.join(tmpdir, f"fan-out-{r}{n}-{seed}-{os.getpid()}.json")
            payload = {"r": r, "n": n,
                       "pavings": [paving_json(r, n, p)["paves"] for p in pavings]}
            with open(src, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            self.verify.append((src, dst, len(pavings)))
        faces = self.cone3.faces
        self.maximal = max(faces, key=lambda f: f.dim)
        self.maximal_json = paving_json(3, 2, self.maximal.paving)
        middle = sorted(
            (f for f in faces if 1 < len(f.paving) < len(self.maximal.paving)),
            key=lambda f: (len(f.paving), sum(len(self.cone3.points) - len(p) for p in f.paving),
                           f.dim, sorted(sorted(p) for p in f.paving)),
        )
        self.sample = [
            rng.choice(middle[k * len(middle) // SAMPLE_BINS:(k + 1) * len(middle) // SAMPLE_BINS])
            for k in range(SAMPLE_BINS)
        ]
        self.sample_json = [paving_json(3, 2, f.paving) for f in self.sample]
        self.state: dict = {}

    def ops(self):
        out = []
        for src, dst, _ in self.verify:
            argv = ["fans", "verify", src, "--out", dst]
            out.append(("fans_verify", lambda argv=argv: cli.main(argv)))

        def maximal():
            cone = pv.sigma_cone(jsonio.paving_from_json(self.maximal_json))
            self.state["maximal"] = cone
            self.state["interior"] = tuple(map(sum, zip(*cone.rays)))
            return cone, fans.proper_faces(cone)

        out.append(("maximal_cone_faces", maximal))

        def sigma(k, obj):
            self.state[k] = pv.sigma_cone(jsonio.paving_from_json(obj))
            return self.state[k]

        def faces_of_maximal(k):
            # the cone is a face of the maximal cone; the ray through the sum
            # of its rays lies in its relative interior, so it is a face only
            # when the cone is a ray; adding an interior ray of the maximal
            # cone to the cone's rays never gives a face. One operation, so
            # that the round's median operation falls amid these rather than
            # at the edge of a cluster of cheaper ones
            cone, maximal = self.state[k], self.state["maximal"]
            ray = fans.Cone.from_generators(cone.rank, [tuple(map(sum, zip(*cone.rays)))])
            wider = fans.Cone.from_generators(cone.rank, list(cone.rays) + [self.state["interior"]])
            return (fans.is_face(cone, maximal), fans.is_face(ray, maximal),
                    fans.is_face(wider, maximal))

        for k, obj in enumerate(self.sample_json):
            out += [
                ("sigma_cone", lambda k=k, obj=obj: sigma(k, obj)),
                ("is_face", lambda k=k: faces_of_maximal(k)),
                ("dual_cone_twice", lambda k=k: fans.dual_cone(fans.dual_cone(self.state[k]))),
            ]
        return out

    def check(self, results) -> list[str]:
        problems = []
        nv = len(self.verify)
        for (src, dst, expected), rc in zip(self.verify, results[:nv]):
            if rc is None:
                continue
            if rc != 0:
                problems.append(f"fans verify {src} exited with {rc}")
                continue
            with open(dst, encoding="utf-8") as fh:
                report = json.load(fh)
            os.remove(dst)
            if not report["ok"] or report["failures"] or report["cones"] != expected:
                problems.append(f"fans verify {src}: ok={report['ok']} cones={report['cones']}")
        for src, _, _ in self.verify:
            os.remove(src)
        own = self.cone3
        if results[nv] is None:
            return problems
        cone, faces = results[nv]
        facets = sum(1 for f in own.faces if f.dim == own.dim - 1)
        if cone.lin or len(cone.rays) != len(own.rays) or len(cone.ineqs) != facets \
                or cone_dim(cone) != own.dim:
            problems.append("maximal cone disagrees with the alcove cone")
        want = Counter((f.dim, len(f.rays)) for f in own.faces if f is not self.maximal)
        got = Counter((cone_dim(f), len(f.rays) + len(f.lin)) for f in faces)
        if got != want:
            problems.append(f"proper_faces: {len(faces)} faces, expected {sum(want.values())}")
        rest = results[nv + 1:]
        for face, (c, is_face, double_dual) in zip(
                self.sample, zip(rest[0::3], rest[1::3], rest[2::3])):
            if c is None:
                continue
            expected_dim = own.dim - own.rows_rank(face.tight)
            if c.lin or len(c.rays) != len(face.rays) or cone_dim(c) != expected_dim:
                problems.append(f"cone of a {len(face.paving)}-pavé paving has the wrong shape")
            if is_face is not None and not is_face[0]:
                problems.append(f"cone of a {len(face.paving)}-pavé paving is not a face")
            if is_face is not None and is_face[1:] != (len(face.rays) == 1, False):
                problems.append(f"is_face misjudges a cone off the faces near a {len(face.paving)}-pavé cone")
            if double_dual is not None and (double_dual.lin, double_dual.rays) != (c.lin, c.rays):
                problems.append(f"cone of a {len(face.paving)}-pavé paving differs from its double dual")
        return problems
