"""skeinlab command line: JSON on stdout, logs on stderr.

Subcommands: surface, lattice, qtorus, qtrace, orbit, leaf, rep, detect,
selftest. Output keys are sorted and term/coset orderings canonical, so
identical inputs give byte-identical output. A --config file supplies
defaults for flags left unset. Bad input exits 2 with one "error: ..." line
on stderr; detect --batch instead gives each bad request an {"error": ...} slot.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from functools import lru_cache

from .curves import (
    DEFAULT_STATE_CAP,
    NormalCurve,
    StateCapExceeded,
    enumerate_admissible_states,
    support_bounds_check,
    torus_table,
)
from .cyclotomic import Cyclotomic
from .detect import (
    DetectionRequest,
    check_root_order,
    check_state_cap,
    detect_support,
    detect_theorem2,
)
from .mcg import MappingClass
from .qtorus import CentralCharacter, QuantumTorus, TorusIrrep
from .repvar import (
    SL2Mat,
    SL2Rep,
    classify_double_leaf,
    classify_sts_leaf,
    moment_map,
    orbit_closure,
    rep_dimension,
)
from .surface import BalancedLattice, RefinedLattice, build_sigma_g_star


def _emit(obj):
    json.dump(obj, sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")


def _log(msg):
    print(msg, file=sys.stderr)


# What malformed input raises (OSError: a file argument that cannot be read).
# Anything else, above all the AssertionError of a failed re-verification, is
# a bug and keeps its traceback.
USAGE_ERRORS = (ValueError, TypeError, KeyError, OSError, StateCapExceeded)


def _error_text(exc):
    if isinstance(exc, KeyError):
        return f"missing field {exc}"
    return str(exc)


def _parse_scalar(x, order=4):
    if isinstance(x, dict):
        return Cyclotomic.from_json(x)
    if isinstance(x, str):
        return Cyclotomic.rational(order, Fraction(x))
    return Cyclotomic.rational(order, x)


def _parse_sl2(entries, order=4):
    if not isinstance(entries, list) or len(entries) != 4:
        raise ValueError(f"an SL2 matrix needs 4 entries [a, b, c, d], not {entries!r}")
    return SL2Mat(*(_parse_scalar(x, order) for x in entries), order=order)


def _parse_rep(obj):
    if not isinstance(obj, dict) or "genus" not in obj or not isinstance(obj.get("images"), list):
        raise ValueError(
            f'a representation needs "genus" and "images", e.g. '
            f'{{"genus": 1, "images": [[0, 1, -1, 0], [1, 1, 0, 1]]}}, not {obj!r}'
        )
    field = obj.get("field", {})
    if not isinstance(field, dict):
        raise ValueError(f'"field" must be an object like {{"cyclotomicOrder": 4}}, not {field!r}')
    order = field.get("cyclotomicOrder", 4)
    images = [_parse_sl2(m, order) for m in obj["images"]]
    return SL2Rep(obj["genus"], images)


@lru_cache(maxsize=8)
def _curve_surface(genus):
    """The triangulation that curves of this genus live on, one per genus
    per process: detection contexts are cached per triangulation object,
    so requests on one surface share them. Genus one shares the torus
    table's, so that class shorthand curves and explicit-coordinate curves
    can be compared."""
    return torus_table().tri if genus == 1 else build_sigma_g_star(genus)


def _curve_from_json(obj, tri):
    """A curve or beta field: class shorthand ("p,q", [p, q] or {"pq": [p, q]},
    genus 1 only), or edge coordinates as a list, {"coords": ...} or a bare
    coords object. Any form but "p,q" may also come as JSON text."""
    pq = None
    if isinstance(obj, str):
        text = obj.strip()
        if text.startswith(("{", "[")):
            obj = json.loads(text)
        else:
            pq = text.split(",")
    if isinstance(obj, dict) and "pq" in obj:
        pq = obj["pq"]
    elif isinstance(obj, list) and len(obj) == 2:
        pq = obj
    if pq is not None:
        table = torus_table()
        if tri is not table.tri:
            raise ValueError("(p, q) curve input is genus-1 only")
        try:
            # through str, so that 1.5 or true is refused, not truncated
            p, q = (int(str(t)) for t in pq)
        except (TypeError, ValueError):
            raise ValueError(f"(p, q) needs two integers, not {obj!r}") from None
        return table.curve(p, q)
    if isinstance(obj, dict):
        obj = obj.get("coords", obj)
    if not isinstance(obj, (dict, list)):
        raise ValueError(
            f'curve must be "p,q", a [p, q] pair or edge coordinates, not {obj!r}'
        )
    try:
        return NormalCurve(tri, obj)
    except ValueError as exc:
        raise ValueError(f"curve {obj!r}: {exc}") from None


def _read_json_file(path):
    with open(path) as fh:
        return json.load(fh)


def _load_json_arg(text):
    return _read_json_file(text) if os.path.exists(text) else json.loads(text)


def _load_json_list(text, flag):
    obj = _load_json_arg(text)
    if not isinstance(obj, list):
        raise ValueError(f"{flag} must be a JSON list, not {obj!r}")
    return obj


def _int_field(obj, key, default):
    val = obj.get(key, default)
    if type(val) is not int:  # bool is refused too
        raise ValueError(f"{key} must be an integer, not {val!r}")
    return val


def cmd_surface(args):
    tri = build_sigma_g_star(args.genus)
    info = tri.to_json()
    info["faces_count"] = len(tri.faces)
    info["edges_count"] = tri.n_edges
    info["inner_edges"] = len(tri.inner_edges)
    info["boundary_arcs"] = len(tri.boundary_edges)
    _emit(info)


def cmd_lattice(args):
    check_root_order(args.N)
    tri = build_sigma_g_star(args.genus)
    B = BalancedLattice(tri)
    N = args.N
    definitional, formula, equal = B.central_sublattice(N)
    pd = B.pi_degree(N)
    out = {
        "genus": args.genus,
        "N": N,
        "rank": B.rank,
        "basis": B.basis,
        "wpForm": B.form,
        "centralSublattice": definitional,
        "eqK0Match": equal,
        "indexOK": pd["perfectSquare"],
        "index": pd["index"],
        "piDegreeReduced": pd["piDegree"],
    }
    if args.refined:
        R = RefinedLattice(B)
        out["refined"] = R.lemma_comparison(N)
    _emit(out)


def cmd_qtorus(args):
    tri = build_sigma_g_star(args.genus)
    B = BalancedLattice(tri)
    L = B.skew_lattice()
    torus = QuantumTorus(L, args.N)
    chi = CentralCharacter.trivial(torus)
    irr = TorusIrrep(torus, chi)
    pd = B.pi_degree(args.N)
    _emit(
        {
            "genus": args.genus,
            "N": args.N,
            "rank": L.rank,
            "irrepDimension": irr.dimension,
            "piDegree": pd["piDegree"],
            "dimensionMatchesPiDegree": irr.dimension == pd["piDegree"],
            "pairInvariants": irr.pair_invariants,
            "pairOrders": irr.pair_orders,
            "relationsVerified": True,
            "characterRealized": True,
        }
    )


def cmd_qtrace(args):
    tri = _curve_surface(args.genus)
    curve = _curve_from_json(args.curve, tri)
    check_state_cap(args.cap)
    sup = enumerate_admissible_states(curve, cap=args.cap)
    out = {
        "curve": curve.to_json(),
        "states": sup.state_count,
        "support": [
            {"k": list(k), "fiber": sup.fibers[k]} for k in sorted(sup.fibers)
        ],
        "boundsOK": support_bounds_check(sup, curve),
    }
    _emit(out)


def cmd_orbit(args):
    check_root_order(args.N)
    rep = _parse_rep(_load_json_arg(args.rep))
    gens = [
        MappingClass.from_json(g, genus=rep.genus)
        for g in _load_json_list(args.gens, "--gens")
    ]
    orbit = orbit_closure([rep], gens, cap=args.cap)
    out = {
        "size": orbit.size,
        "cell": orbit.cell,
        "mu": orbit.moment.to_json(),
        "dimW": rep_dimension(orbit, args.N),
        "N": args.N,
    }
    _emit(out)


def cmd_leaf(args):
    order = args.field_order
    m = _parse_sl2(json.loads(args.mat), order)
    if args.double:
        m2 = _parse_sl2(json.loads(args.double), order)
        i, j = classify_double_leaf(m, m2)
        _emit({"double": True, "leaf": [i, j]})
    else:
        _emit(classify_sts_leaf(m))


def cmd_rep(args):
    if args.rep_command == "dims":
        check_root_order(args.N)
        if args.genus < 1:
            raise ValueError("genus must be >= 1")
        if args.orbit_size < 1:
            raise ValueError("--orbit-size must be >= 1")
        exp = 3 * args.genus if args.cell == "big" else 3 * args.genus - 1
        _emit(
            {
                "genus": args.genus,
                "N": args.N,
                "cell": args.cell,
                "orbitSize": args.orbit_size,
                "dimW": args.N**exp * args.orbit_size,
            }
        )
    elif args.rep_command == "moment":
        rep = _parse_rep(_load_json_arg(args.rep))
        mu = moment_map(rep)
        _emit({"mu": mu.to_json(), "cell": "big" if not mu.a.is_zero() else "reduced"})


def _run_one_detect(obj):
    """One detection request, from a batch slot or from the detect flags."""
    if not isinstance(obj, dict):
        raise ValueError(f"a detection request must be a JSON object, not {obj!r}")
    genus = _int_field(obj, "genus", 1)
    tri = _curve_surface(genus)
    phi = obj.get("phi")
    if isinstance(phi, list):  # a bare [[a, b], [c, d]] is a matrix mapping class
        phi = {"matrix": phi}
    if phi is not None:
        phi = MappingClass.from_json(phi, genus=genus)
    beta = obj.get("beta")
    if beta is not None:
        beta = _curve_from_json(beta, tri)
    curve = _curve_from_json(obj["curve"], tri)
    req = DetectionRequest(
        genus=genus,
        N=_int_field(obj, "N", 5),
        cell=obj.get("cell", "reduced"),
        curve=curve,
        phi=phi,
        beta=beta,
        state_cap=_int_field(obj, "cap", DEFAULT_STATE_CAP),
    )
    runner = detect_support if obj.get("method") == "support" else detect_theorem2
    return runner(req).to_json()


def _run_batch_item(obj):
    """One batch slot: a certificate, or {"error": ...} for a bad request,
    so that one bad request does not cost the others their results."""
    try:
        return _run_one_detect(obj)
    except USAGE_ERRORS as exc:
        return {"error": _error_text(exc)}


def cmd_detect(args):
    t0 = time.perf_counter()
    if args.batch:
        results = [_run_batch_item(r) for r in _load_json_list(args.batch, "--batch")]
        _emit({"certificates": results})
        _log(f"detect: {len(results)} requests in {time.perf_counter() - t0:.3f}s")
        if any("error" in r for r in results):
            sys.exit(2)
        return
    obj = {
        "genus": args.genus,
        "N": args.N,
        "cell": args.cell,
        "curve": args.curve,
        "method": args.method,
        "cap": args.cap,
    }
    if args.phi:
        obj["phi"] = _load_json_arg(args.phi)
    # a path names a JSON file; other text goes to _curve_from_json as it
    # is, which reads JSON text and the "p,q" shorthand alike
    for key, text in (("curve", args.curve), ("beta", args.beta)):
        if text:
            obj[key] = _read_json_file(text) if os.path.exists(text) else text
    _emit(_run_one_detect(obj))
    # timings stay on stderr: certificate bytes must be run-independent
    _log(f"detect: {time.perf_counter() - t0:.3f}s")


def cmd_selftest(args):
    # only this command needs selftest and poisson, so the others do not pay
    # to import them
    from .selftest import run_all

    t0 = time.perf_counter()
    results = run_all()
    for r in results:
        line = ("PASS" if r["passed"] else "FAIL") + " - " + r["criterion"]
        _log(line + (" - " + r["detail"] if r["detail"] else ""))
    # timings stay on stderr: the results must be run-independent
    _log(f"selftest: {time.perf_counter() - t0:.3f}s")
    _emit(
        {
            "results": results,
            "passed": sum(1 for r in results if r["passed"]),
            "failed": sum(1 for r in results if not r["passed"]),
        }
    )
    if any(not r["passed"] for r in results):
        sys.exit(1)


def _apply_config(args, argv):
    """Config values fill in flags that were not given on the command line."""
    if not getattr(args, "config", None):
        return
    with open(args.config) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"--config {args.config} must hold a JSON object of flag values")
    given = set()
    for tok in argv:
        if tok.startswith("--"):
            given.add(tok[2:].split("=", 1)[0].replace("-", "_"))
    for key, val in cfg.items():
        attr = key.replace("-", "_")
        if hasattr(args, attr) and attr not in given:
            flag = getattr(args, attr)
            if flag is not None and type(val) is not type(flag):
                raise ValueError(f"--config {key} must be {type(flag).__name__}, not {val!r}")
            setattr(args, attr, val)


def build_parser():
    p = argparse.ArgumentParser(prog="skeinlab")
    p.add_argument("--config", help="JSON file with default flag values")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("surface", help="triangulation info")
    spc = sp.add_subparsers(dest="surface_command", required=True)
    q = spc.add_parser("info")
    q.add_argument("--genus", type=int, default=1)
    q.set_defaults(func=cmd_surface)

    sp = sub.add_parser("lattice", help="balanced lattice invariants")
    spc = sp.add_subparsers(dest="lattice_command", required=True)
    q = spc.add_parser("info")
    q.add_argument("--genus", type=int, default=1)
    q.add_argument("--N", type=int, default=5)
    q.add_argument("--refined", action="store_true")
    q.set_defaults(func=cmd_lattice)

    sp = sub.add_parser("qtorus", help="quantum torus checks")
    spc = sp.add_subparsers(dest="qtorus_command", required=True)
    q = spc.add_parser("selftest")
    q.add_argument("--genus", type=int, default=1)
    q.add_argument("--N", type=int, default=3)
    q.set_defaults(func=cmd_qtorus)

    sp = sub.add_parser("qtrace", help="quantum trace supports")
    spc = sp.add_subparsers(dest="qtrace_command", required=True)
    q = spc.add_parser("support")
    q.add_argument("--genus", type=int, default=1)
    q.add_argument("--curve", required=True, help='"p,q" or coords JSON')
    q.add_argument("--cap", type=int, default=DEFAULT_STATE_CAP)
    q.set_defaults(func=cmd_qtrace)

    q = sub.add_parser("orbit", help="finite orbit closure")
    q.add_argument("--rep", required=True, help="representation JSON (file or inline)")
    q.add_argument("--gens", required=True, help="mapping class list JSON")
    q.add_argument("--N", type=int, default=3)
    q.add_argument("--cap", type=int, default=4096)
    q.set_defaults(func=cmd_orbit)

    sp = sub.add_parser("leaf", help="symplectic leaf classification")
    spc = sp.add_subparsers(dest="leaf_command", required=True)
    q = spc.add_parser("classify")
    q.add_argument("--mat", required=True, help="[a, b, c, d] JSON")
    q.add_argument("--double", help="second matrix for the double leaf")
    q.add_argument("--field-order", type=int, default=4)
    q.set_defaults(func=cmd_leaf)

    sp = sub.add_parser("rep", help="representation utilities")
    spc = sp.add_subparsers(dest="rep_command", required=True)
    q = spc.add_parser("dims")
    q.add_argument("--genus", type=int, default=1)
    q.add_argument("--N", type=int, default=3)
    q.add_argument("--cell", choices=["big", "reduced"], default="big")
    q.add_argument("--orbit-size", type=int, default=1)
    q.set_defaults(func=cmd_rep)
    q = spc.add_parser("moment")
    q.add_argument("--rep", required=True)
    q.set_defaults(func=cmd_rep)

    q = sub.add_parser("detect", help="kernel detection certificates")
    q.add_argument("--genus", type=int, default=1)
    q.add_argument("--N", type=int, default=5)
    q.add_argument("--cell", choices=["reduced", "big"], default="reduced")
    q.add_argument("--curve", help='"p,q", coords JSON or a JSON file')
    q.add_argument("--phi", help="mapping class JSON (matrix or words)")
    q.add_argument("--beta", help='explicit image curve: "p,q", coords JSON or a JSON file')
    q.add_argument("--cap", type=int, default=DEFAULT_STATE_CAP)
    q.add_argument("--method", choices=["theorem2", "support"], default="theorem2")
    q.add_argument("--batch", help="JSON list of detection requests")
    q.set_defaults(func=cmd_detect)

    q = sub.add_parser("selftest", help="run the full acceptance suite")
    q.set_defaults(func=cmd_selftest)
    return p


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args, argv)
        args.func(args)
    except USAGE_ERRORS as exc:
        _log(f"error: {_error_text(exc)}")
        sys.exit(2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
