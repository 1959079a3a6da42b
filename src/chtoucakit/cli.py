"""Command-line front end: enumeration, verification and computation
subcommands with canonical JSON output.

Exit status: 0 on success, 1 on domain errors (machine-readable error
JSON on stderr), 2 on I/O or parse errors, 3 on an internal error (a
broken invariant, a bug in this package; the same JSON payload with type
InternalError).  Output is byte-identical
across runs; the --jobs option (or CHTOUCA_KIT_JOBS) is accepted for
interface stability but all work is scheduled sequentially, which is
one of the legal schedules and keeps results reproducible."""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import VERSION, jsonio
from .errors import DomainError, InternalError, InvalidData
from .fans import (
    check_monoid_rank,
    dual_cone,
    monoid_generators,
    tau_sequence_check,
    torus_sequence_check,
    verify_fan,
)
from .graph_gluing import check_dimension_condition, check_gluing_condition
from .hn_truncation import hn_polygon, is_mu_convex, split_truncation
from .l_functions import (
    check_bounds,
    local_factor,
    partial_l,
    power_sum,
    spectral_term,
    star_convolve,
)
from .complete_homs import (
    complete_from_open,
    lang_isogeny,
    stratum_data,
    stratum_of,
    torus_action,
)
from .pavings import (
    enumerate_admissible_pavings,
    is_admissible,
    is_q_admissible,
    paving_fan,
)


def _fraction(text: str) -> Fraction:
    """A rational flag value; a zero denominator is a parse error like
    any other malformed value."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _read_json(path):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise IOFailure(str(e)) from e


class IOFailure(Exception):
    pass


def _emit(payload: dict, out: str | None):
    text = jsonio.dumps_canonical(payload)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_pavings_enum(args):
    pavings = enumerate_admissible_pavings(args.r, args.n)
    payload = {
        "r": args.r,
        "n": args.n,
        "count": len(pavings),
        "pavings": [jsonio.paving_to_json(p)["paves"] for p in pavings],
    }
    _emit(payload, args.out)
    return 0


def cmd_pavings_check(args):
    obj = _read_json(args.file)
    paving = jsonio.paving_from_json(obj)
    res = is_admissible(paving)
    payload = {
        "valid": True,
        "admissible": res.admissible,
        "paves": len(paving.paves),
    }
    if res.admissible and res.witness is not None:
        payload["witness"] = jsonio.lattice_function_to_json(res.witness)
    _emit(payload, args.out)
    return 0


def cmd_pavings_qadm(args):
    obj = _read_json(args.file)
    paving = jsonio.paving_from_json(obj)
    payload = {"q": args.q, "q_admissible": is_q_admissible(paving, args.q)}
    _emit(payload, args.out)
    return 0


def cmd_fans_verify(args):
    obj = _read_json(args.file)
    if "paves" in obj or "pavings" in obj:
        if "pavings" in obj:
            pavings = jsonio.pavings_from_json(obj)
        else:
            pavings = [jsonio.paving_from_json(obj)]
        fan = paving_fan(pavings)
    else:
        fan = jsonio.fan_from_json(obj)
    report = verify_fan(fan)
    payload = {
        "ok": report.ok,
        "cones": report.n_cones,
        "rank": report.rank,
        "failures": [list(map(str, f)) for f in report.failures],
        "fan": jsonio.fan_to_json(fan),
    }
    _emit(payload, args.out)
    return 0


def cmd_fans_dual(args):
    cone = jsonio.cone_from_json(_read_json(args.cone))
    _emit({"dual": jsonio.cone_to_json(dual_cone(cone))}, args.out)
    return 0


def cmd_fans_monoid(args):
    obj = _read_json(args.cone)
    # the cone of a JSON rank past the cap is not built: its double
    # description alone grows with the square of the rank
    check_monoid_rank(jsonio.rank_from_json(obj))
    gens = monoid_generators(jsonio.cone_from_json(obj))
    _emit({"generators": [list(g) for g in gens]}, args.out)
    return 0


def _emit_sequence(rep, out):
    _emit(
        {
            "ok": rep.ok,
            "dim_torus": rep.dim_torus,
            "checks": [[name, ok] for name, ok in rep.checks],
        },
        out,
    )
    return 0


def cmd_fans_torus_seq(args):
    return _emit_sequence(torus_sequence_check(args.r, args.n), args.out)


def cmd_fans_tau_seq(args):
    return _emit_sequence(tau_sequence_check(args.r, args.q), args.out)


def cmd_homs_complete(args):
    obj = _read_json(args.file)
    field = jsonio.field_from_json(obj["field"])
    u1 = jsonio.matrix_from_json(field, obj["u1"])
    lams = [jsonio.scalar_from_str(field, s) for s in obj["lambda"]]
    h = complete_from_open(field, u1, lams)
    _emit(jsonio.hom_to_json(h), args.out)
    return 0


def cmd_homs_stratum(args):
    h = jsonio.hom_from_json(_read_json(args.file))
    data = stratum_data(h)
    payload = jsonio.stratum_to_json(data)
    payload["stratum"] = list(stratum_of(h))
    _emit(payload, args.out)
    return 0


def cmd_homs_act(args):
    h = jsonio.hom_from_json(_read_json(args.file))
    mus = [jsonio.scalar_from_str(h.field, s) for s in args.mu.split(",")]
    _emit(jsonio.hom_to_json(torus_action(h, mus)), args.out)
    return 0


def cmd_homs_lang(args):
    obj = _read_json(args.file)
    field = jsonio.field_from_json(obj["field"])
    g = jsonio.matrix_from_json(field, obj["matrix"])
    result = lang_isogeny(g, args.q, field)
    _emit(
        {"field": jsonio.field_to_json(field), "matrix": jsonio.matrix_to_json(field, result)},
        args.out,
    )
    return 0


def cmd_hn_compute(args):
    lat = jsonio.subobject_lattice_from_json(_read_json(args.file))
    alpha = _fraction(args.alpha)
    polygon, chain = hn_polygon(lat, alpha)
    _emit(
        {
            "polygon": jsonio.polygon_to_json(polygon),
            "chain": list(chain),
            "alpha": jsonio.frac_str(alpha),
        },
        args.out,
    )
    return 0


def cmd_trunc_split(args):
    p = jsonio.polygon_from_json(_read_json(args.p))
    cuts = [int(c) for c in args.cuts.split(",")] if args.cuts else []
    res = split_truncation(p, args.d, cuts)
    _emit(
        {
            "d_parts": list(res.d_parts),
            "p_parts": [jsonio.polygon_to_json(q) for q in res.p_parts],
        },
        args.out,
    )
    return 0


def cmd_trunc_convex(args):
    p = jsonio.polygon_from_json(_read_json(args.file))
    mu = _fraction(args.mu)
    _emit({"mu": jsonio.frac_str(mu), "convex": is_mu_convex(p, mu)}, args.out)
    return 0


def cmd_graphs_check(args):
    fam = jsonio.family_from_json(_read_json(args.file))
    dim_rep = check_dimension_condition(fam)
    glue_rep = check_gluing_condition(fam)
    _emit(
        {
            "dimension_ok": dim_rep.ok,
            "gluing_ok": glue_rep.ok,
            "dimension_violations": [list(map(str, v)) for v in dim_rep.violations],
            "gluing_violations": [list(map(str, v)) for v in glue_rep.violations],
        },
        args.out,
    )
    return 0


def cmd_lfun_local(args):
    pd = jsonio.place_from_json(_read_json(args.file))
    _emit(jsonio.series_to_json(local_factor(pd, args.order)), args.out)
    return 0


def cmd_lfun_partial(args):
    places = jsonio.places_from_json(_read_json(args.file))
    _emit(jsonio.series_to_json(partial_l(places, args.order)), args.out)
    return 0


def cmd_lfun_star(args):
    a = jsonio.satake_from_json(_read_json(args.a))
    b = jsonio.satake_from_json(_read_json(args.b))
    _emit(jsonio.satake_to_json(star_convolve(a, b)), args.out)
    return 0


def cmd_lfun_psum(args):
    p = jsonio.satake_from_json(_read_json(args.file))
    _emit({"nu": args.nu, "value": jsonio.frac_str(power_sum(p, args.nu))}, args.out)
    return 0


def cmd_lfun_bounds(args):
    pd = jsonio.place_from_json(_read_json(args.file))
    ok = check_bounds(pd, args.q, args.mode, args.tol)
    _emit({"mode": args.mode.upper(), "q": args.q, "ok": ok}, args.out)
    return 0


def cmd_lfun_spectral(args):
    params_inf = jsonio.satake_from_json(_read_json(args.inf))
    params_o = jsonio.satake_from_json(_read_json(args.o))
    val = spectral_term(
        _fraction(args.trace),
        args.r,
        args.deg_xi,
        args.n,
        params_inf,
        args.deg_inf,
        params_o,
        args.deg_o,
        args.q,
    )
    _emit({"value": jsonio.frac_str(val)}, args.out)
    return 0


def cmd_selftest(args):
    from . import acceptance

    wanted = None
    if args.criteria:
        wanted = {int(c) for c in args.criteria.split(",")}
    results = acceptance.run_all(wanted, verbose=True)
    return 0 if all(st in ("PASS", "SKIP") for _, st, _, _ in results) else 1


# ---------------------------------------------------------------------------


# The command tree: group -> command -> argument specs, and the group-less
# `selftest`.  The handler of "G C" is `cmd_G_C`, looked up when its parser
# is built; every command in a group also takes --out.
_INT = {"type": int, "required": True}
_REQ = {"required": True}
_FILE = ("file", {})
_TREE = {
    "pavings": {
        "enum": (("--r", _INT), ("--n", _INT)),
        "check": (_FILE,),
        "qadm": (_FILE, ("--q", _INT)),
    },
    "fans": {
        "verify": (_FILE,),
        "dual": (("--cone", _REQ),),
        "monoid": (("--cone", _REQ),),
        "torus-seq": (("--r", _INT), ("--n", _INT)),
        "tau-seq": (("--r", _INT), ("--q", _INT)),
    },
    "homs": {
        "complete": (_FILE,),
        "stratum": (_FILE,),
        "act": (_FILE, ("--mu", {"required": True, "help": "comma-separated scalars"})),
        "lang": (_FILE, ("--q", _INT)),
    },
    "hn": {"compute": (_FILE, ("--alpha", {"default": "0"}))},
    "trunc": {
        "split": (("--p", _REQ), ("--d", _INT), ("--R", {"dest": "cuts", "default": ""})),
        "convex": (_FILE, ("--mu", {"default": "0"})),
    },
    "graphs": {"check": (_FILE,)},
    "lfun": {
        "local": (_FILE, ("--D", {"dest": "order", **_INT})),
        "partial": (_FILE, ("--D", {"dest": "order", **_INT})),
        "star": (("--a", _REQ), ("--b", _REQ)),
        "psum": (_FILE, ("--nu", _INT)),
        "bounds": (
            _FILE, ("--q", _INT), ("--mode", {"choices": ["js", "rp", "JS", "RP"], "required": True}),
            ("--tol", {"type": float, "default": 1e-9}),
        ),
        "spectral": (
            ("--trace", _REQ), ("--r", _INT), ("--deg-xi", _INT), ("--n", _INT), ("--inf", _REQ),
            ("--deg-inf", _INT), ("--o", _REQ), ("--deg-o", _INT), ("--q", _INT),
        ),
    },
    "selftest": (("--criteria", {"help": "comma-separated subset, e.g. 1,2,5"}),),
}


class _Pending:
    """Stands in for a subparser: keeps the keyword arguments `add_parser`
    gives it and builds the real parser only when argparse dispatches to
    it, which it does through `parse_known_args` alone.  Help, usage and
    errors read only the choice names and the parser invoked, so their
    text is that of the fully built tree."""

    def __init__(self, **kwargs):
        self.kwargs = kwargs

    def parse_known_args(self, args, namespace):
        parser = _fill(argparse.ArgumentParser(**self.kwargs), *self.pending)
        return parser.parse_known_args(args, namespace)


def _fill(parser, node, path=()):
    """Add the table node at ``path`` to ``parser``: a group's
    subcommands as pending parsers, or a command's arguments and handler."""
    if isinstance(node, dict):
        sub = parser.add_subparsers(dest="command" if path else "group", required=True, parser_class=_Pending)
        for name, child in node.items():
            sub.add_parser(name).pending = (child, path + (name,))
        return parser
    for flag, kwargs in node:
        parser.add_argument(flag, **kwargs)
    if len(path) == 2:
        parser.add_argument("--out")
    parser.set_defaults(func=globals()["_".join(("cmd",) + path).replace("-", "_")])
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chtouca-kit",
        description="Exact pavings, fans, complete homomorphisms, slope polygons and L-factor algebra",
    )
    parser.add_argument("--jobs", type=int, default=None, help="parallelism degree (accepted; execution is sequential)")
    return _fill(parser, _TREE)


# a value starting with "-" and a digit, "." or "/" (a negative scalar)
_SIGNED_VALUE = re.compile(r"-[0-9./]")
_SIGNED_OPTIONS = ("--mu", "--alpha", "--trace")


def _join_signed_values(argv: list[str]) -> list[str]:
    """Pass "--mu -1,7,7" on as "--mu=-1,7,7", and the same for the other
    options that take a signed rational (`_SIGNED_OPTIONS`): argparse
    reads a separate value that starts with "-" as an option, not as the
    value."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in _SIGNED_OPTIONS and _SIGNED_VALUE.match(tok):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def _error(kind: str, message: str) -> None:
    print(
        json.dumps({"error": {"type": kind, "message": message}, "version": VERSION}, sort_keys=True),
        file=sys.stderr,
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_signed_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        jobs = args.jobs
        if jobs is None:
            raw = os.environ.get("CHTOUCA_KIT_JOBS", "1")
            try:
                jobs = int(raw)
            except ValueError:
                raise ValueError(f"CHTOUCA_KIT_JOBS must be an integer, got {raw!r}") from None
        if jobs < 1:
            raise InvalidData("jobs must be >= 1")
        return args.func(args)
    except DomainError as e:
        _error(e.kind, str(e))
        return 1
    except InternalError as e:
        _error("InternalError", str(e))
        return 3
    except (IOFailure, ValueError, KeyError, TypeError) as e:
        _error("ParseError", str(e))
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
