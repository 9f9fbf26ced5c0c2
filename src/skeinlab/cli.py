"""skeinlab command line: JSON on stdout, logs on stderr.

Subcommands: surface, lattice, qtorus, qtrace, orbit, leaf, rep, detect,
selftest. Output keys are sorted and term/coset orderings canonical, so
identical inputs give byte-identical output. A --config file supplies
defaults for the chosen command's flags. Bad input exits 2 with one
"error: ..." line on stderr; detect --batch instead gives each bad request an
{"error": ...} slot. Each command imports only the modules it runs, so only
detect loads the detection pipeline; the one exception is `curves`, which
every command loads, as this module binds the trace-support functions that
perfbench's tracer wraps in each namespace that holds them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .curves import (
    DEFAULT_STATE_CAP,
    NormalCurve,
    StateCapExceeded,
    class_curve,
    enumerate_admissible_states,
    support_bounds_check,
)
from .surface import BalancedLattice, RefinedLattice, build_sigma_g_star, check_root_order
from .surface import check_decimal, check_fields, check_genus, check_int, pi_degree_report


def _emit(obj):
    # one write: json.dump would hand the stream one chunk per token
    sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


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


class _JSONFloat(float):
    """A JSON number with a fraction or exponent: its float, which every
    other reader sees as before, and the text it was written as, which a
    matrix entry reads exactly."""

    def __new__(cls, text):
        self = super().__new__(cls, text)
        self.text = text
        return self


def _rational_entry(x):
    """The rational that a matrix entry writes, or None: an int, or text
    ("1/2", "0.1"); a JSON number with a fraction or exponent is the
    decimal it was written as. An exponent of more than four digits is
    refused, since its power of ten alone could take any time to build."""
    from fractions import Fraction

    text = getattr(x, "text", x)
    try:
        if not isinstance(text, str):
            return Fraction(check_int(text, "matrix entry"))  # JSON true is not the entry 1
        if len(text.lower().partition("e")[2].lstrip("+-0")) <= 4:
            return Fraction(text)
    except (ValueError, ZeroDivisionError):  # no int, no rational's text, or "1/0"
        pass
    return None


def _parse_scalar(x, order):
    """A matrix entry: a rational (`_rational_entry`), or a cyclotomic
    number {"order": ..., "coeffs": [[num, den], ...]} of ints."""
    from fractions import Fraction

    from .cyclotomic import Cyclotomic

    try:
        if isinstance(x, dict):
            check_fields(x, "cyclotomic number", ("order", "coeffs"))
            what = "a cyclotomic number's order or coefficient"
            pairs = x["coeffs"]
            if not isinstance(pairs, list) or any(
                not isinstance(p, list) or len(p) != 2 for p in pairs
            ):
                raise ValueError(
                    "a cyclotomic number's coeffs must be a list of [numerator, denominator] "
                    f"integer pairs, not {pairs!r}"
                )
            coeffs = [Fraction(check_int(n, what), check_int(d, what)) for n, d in pairs]
            return Cyclotomic(check_int(x["order"], what), coeffs)
        value = _rational_entry(x)
        if value is not None:
            return Cyclotomic.rational(order, value)
    except ZeroDivisionError:  # a zero denominator
        pass
    shown = getattr(x, "text", None) or repr(x)
    raise ValueError(f"matrix entry {shown} is not a rational or cyclotomic number")


def _parse_sl2s(matrices, order):
    """The SL2 matrices of one input, all over the one field that holds
    every entry (repvar.field_order)."""
    from .repvar import SL2Mat, field_order

    rows = []
    for entries in matrices:
        if not isinstance(entries, list) or len(entries) != 4:
            raise ValueError(f"an SL2 matrix needs 4 entries [a, b, c, d], not {entries!r}")
        rows.append([_parse_scalar(x, order) for x in entries])
    order = field_order(order, [x for row in rows for x in row])
    return [SL2Mat(*row, order=order) for row in rows]


def _parse_rep(obj):
    from .repvar import SL2Rep

    if not isinstance(obj, dict) or "genus" not in obj or not isinstance(obj.get("images"), list):
        raise ValueError(
            f'a representation needs "genus" and "images", e.g. '
            f'{{"genus": 1, "images": [[0, 1, -1, 0], [1, 1, 0, 1]]}}, not {obj!r}'
        )
    check_fields(obj, "representation", ("genus", "images", "field"))
    field = check_fields(obj.get("field", {}), '"field"', ("cyclotomicOrder",))
    order = check_int(field.get("cyclotomicOrder", 4), "cyclotomicOrder")
    return SL2Rep(obj["genus"], _parse_sl2s(obj["images"], order))


def _curve_from_json(obj, tri, flag):
    """A curve or beta field: class shorthand ("p,q", [p, q] or {"pq": [p, q]},
    genus 1 only), or edge coordinates as a list, {"coords": ...} or a bare
    coords object. Any form but "p,q" may also come as JSON text. An error
    in the JSON text or the coordinates names the flag or field."""
    pq = None
    if isinstance(obj, str):
        text = obj.strip()
        if text.startswith(("{", "[")):
            obj = _parse_json(text, f"{flag} {obj!r} is not valid JSON")
        else:
            pq = text.split(",")
    if isinstance(obj, dict) and ("pq" in obj or "coords" in obj):
        if len(check_fields(obj, flag, ("pq", "coords"))) > 1:
            raise ValueError(f"{flag} gives both pq and coords: give one")
        pq = obj.get("pq")
        obj = obj.get("coords", obj)
    elif isinstance(obj, list) and len(obj) == 2:
        pq = obj
    if pq is not None:
        try:
            # the parts of "p,q" are decimal text, those of [p, q] JSON integers
            p, q = (check_decimal(t) if isinstance(obj, str) else check_int(t, "p") for t in pq)
        except (TypeError, ValueError):
            raise ValueError(f"(p, q) needs two integers, not {obj!r}") from None
        return class_curve(tri.genus, p, q)
    if not isinstance(obj, (dict, list)):
        raise ValueError(
            f'curve must be "p,q", a [p, q] pair or edge coordinates, not {obj!r}'
        )
    try:
        return NormalCurve(tri, obj)
    except ValueError as exc:
        raise ValueError(f"{flag} {obj!r}: {exc}") from None


def _unique_keys(pairs):
    """A JSON object that names no key twice (json.loads keeps the last)."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"repeated key {next(k for i, k in enumerate(keys) if k in keys[:i])!r}")
    return obj


def _parse_json(text, refusal):
    """The JSON value of text; bad JSON or a repeated key raises "refusal: reason"."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys, parse_float=_JSONFloat)
    except ValueError as exc:  # json.JSONDecodeError, or a repeated key
        raise ValueError(f"{refusal}: {exc}") from None


def _read_json_file(path, flag):
    with open(path) as fh:
        return _parse_json(fh.read(), f"{flag} {path!r} is not valid JSON")


def _load_json_arg(text, flag):
    """The JSON in the file that text names, or else the JSON text itself."""
    if os.path.exists(text):
        return _read_json_file(text, flag)
    return _parse_json(text, f"{flag} {text!r} is neither an existing file nor valid JSON")


def _curve_arg(text, flag):
    """A --curve or --beta value: the JSON in the file it names, or else the
    text as it is, which _curve_from_json reads as JSON text or "p,q"."""
    return _read_json_file(text, flag) if os.path.exists(text) else text


def _load_json_list(text, flag):
    obj = _load_json_arg(text, flag)
    if not isinstance(obj, list):
        raise ValueError(f"{flag} must be a JSON list, not {obj!r}")
    return obj


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
    from .qtorus import build_irrep, check_irrep_dimension

    check_genus(args.genus)
    check_root_order(args.N)
    # the irrep's dimension is the PI-degree N^(3g-1): refuse one over the
    # cap before building K and its skew normal form
    check_irrep_dimension(args.N ** (3 * args.genus - 1))
    tri = build_sigma_g_star(args.genus)
    B = BalancedLattice(tri)
    L = B.skew_lattice()
    irr = build_irrep(L, args.N)
    pd = pi_degree_report(irr.character.kernel_basis, args.N)
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
    tri = build_sigma_g_star(args.genus)
    curve = _curve_from_json(_curve_arg(args.curve, "--curve"), tri, "--curve")
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
    from .mcg import MappingClass
    from .repvar import orbit_closure, rep_dimension

    check_root_order(args.N)
    rep = _parse_rep(_load_json_arg(args.rep, "--rep"))
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
    from .repvar import classify_double_leaf, classify_sts_leaf

    matrices = [_parse_json(args.mat, f"--mat {args.mat!r} is not valid JSON")]
    if args.double:
        matrices.append(_parse_json(args.double, f"--double {args.double!r} is not valid JSON"))
    ms = _parse_sl2s(matrices, args.field_order)
    if args.double:
        i, j = classify_double_leaf(*ms)
        _emit({"double": True, "leaf": [i, j]})
    else:
        _emit(classify_sts_leaf(*ms))


def cmd_rep_dims(args):
    from .repvar import w_dimension

    check_root_order(args.N)
    if args.orbit_size < 1:
        raise ValueError("--orbit-size must be >= 1")
    _emit(
        {
            "genus": args.genus,
            "N": args.N,
            "cell": args.cell,
            "orbitSize": args.orbit_size,
            "dimW": w_dimension(args.genus, args.cell, args.N, args.orbit_size),
        }
    )


def cmd_rep_moment(args):
    from .repvar import moment_cell, moment_map

    mu = moment_map(_parse_rep(_load_json_arg(args.rep, "--rep")))
    _emit({"mu": mu.to_json(), "cell": moment_cell(mu)})


# each method runs detect.detect_<method>
DETECT_METHODS = ("theorem2", "support")
# the fields of a detection request, and the detect flags that give them
DETECT_FIELDS = ("genus", "N", "cell", "cap", "method", "phi", "curve", "beta")


def _run_one_detect(obj):
    """One detection request, from a batch slot or from the detect flags
    given; a missing field takes DetectionRequest's default."""
    from . import detect
    from .detect import DetectionRequest
    from .mcg import MappingClass

    check_fields(obj, "request", DETECT_FIELDS)
    method = obj.get("method", "theorem2")
    if not isinstance(method, str) or method not in DETECT_METHODS:
        raise ValueError(f"method must be one of {', '.join(DETECT_METHODS)}, not {method!r}")
    genus = obj.get("genus", DetectionRequest.genus)
    tri = build_sigma_g_star(genus)
    phi = obj.get("phi")
    if isinstance(phi, list):  # a bare [[a, b], [c, d]] is a matrix mapping class
        phi = {"matrix": phi}
    if phi is not None:
        phi = MappingClass.from_json(phi, genus=genus)
    beta = obj.get("beta")
    if beta is not None:
        beta = _curve_from_json(beta, tri, "beta")
    curve = _curve_from_json(obj["curve"], tri, "curve")
    req = DetectionRequest(
        genus=genus,
        N=obj.get("N", DetectionRequest.N),
        cell=obj.get("cell", DetectionRequest.cell),
        curve=curve,
        phi=phi,
        beta=beta,
        state_cap=obj.get("cap", DetectionRequest.state_cap),
    )
    return getattr(detect, f"detect_{method}")(req).to_json()


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
    readers = {"phi": _load_json_arg, "curve": _curve_arg, "beta": _curve_arg}
    obj = {}
    for key in DETECT_FIELDS:
        val = getattr(args, key)
        if val is not None:
            obj[key] = readers[key](val, f"--{key}") if key in readers else val
    _emit(_run_one_detect(obj))
    # timings stay on stderr: certificate bytes must be run-independent
    _log(f"detect: {time.perf_counter() - t0:.3f}s")


def cmd_selftest(args):
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


def _config_default(dest, value, decl):
    """A --config value for the flag declared with decl, checked as argparse
    checks the flag's own value: its type (bool for a switch) and choices."""
    kind = bool if decl.get("action") == "store_true" else decl.get("type", str)
    if type(value) is not kind:  # so 3.0 is not an int, nor 1 a bool
        raise ValueError(f"--config {dest} must be {kind.__name__}, not {value!r}")
    choices = decl.get("choices")
    if choices and value not in choices:
        raise ValueError(f"--config {dest} must be one of {', '.join(choices)}, not {value!r}")
    return value


# The default of a required flag that the config does not give. argparse does
# not enforce required flags, since the config may give them; main does.
REQUIRED = object()


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # every argparse error is one usage error, like bad input
        raise ValueError(message)


def build_parser(config=None, chosen=None):
    """The skeinlab parser. config maps flag names (dests) to defaults for
    the flags of the command whose func is chosen; a flag given on the
    command line still wins, and other keys are ignored."""
    p = _Parser(prog="skeinlab")
    p.add_argument("--config", help="JSON file with default flag values")
    sub = p.add_subparsers(dest="command", required=True)

    def group(name, summary):
        return sub.add_parser(name, help=summary).add_subparsers(
            dest=f"{name}_command", required=True
        )

    def command(parent, name, func, **kw):
        """A command's parser; what it returns declares one of its flags."""
        q = parent.add_parser(name, **kw)
        q.set_defaults(func=func)
        q.register("type", int, check_decimal)  # an int flag is ASCII decimal, as in "p,q"
        values = config if config and func is chosen else {}

        def flag(option, required=False, **decl):
            dest = option[2:].replace("-", "_")
            if required:
                decl["help"] = f"{decl.get('help', '')} (required, here or in --config)".lstrip()
            if dest in values:
                decl["default"] = _config_default(dest, values[dest], decl)
            elif required:
                decl["default"] = REQUIRED
            q.add_argument(option, **decl)

        return flag

    flag = command(group("surface", "triangulation info"), "info", cmd_surface)
    flag("--genus", type=int, default=1)

    flag = command(group("lattice", "balanced lattice invariants"), "info", cmd_lattice)
    flag("--genus", type=int, default=1)
    flag("--N", type=int, default=5)
    flag("--refined", action="store_true")

    flag = command(group("qtorus", "quantum torus checks"), "selftest", cmd_qtorus)
    flag("--genus", type=int, default=1)
    flag("--N", type=int, default=3)

    flag = command(group("qtrace", "quantum trace supports"), "support", cmd_qtrace)
    flag("--genus", type=int, default=1)
    flag("--curve", required=True, help='"p,q" or coords JSON')
    flag("--cap", type=int, default=DEFAULT_STATE_CAP)

    flag = command(sub, "orbit", cmd_orbit, help="finite orbit closure")
    flag("--rep", required=True, help="representation JSON (file or inline)")
    flag("--gens", required=True, help="mapping class list JSON")
    flag("--N", type=int, default=3)
    flag("--cap", type=int, default=4096)

    flag = command(group("leaf", "symplectic leaf classification"), "classify", cmd_leaf)
    flag("--mat", required=True, help="[a, b, c, d] JSON")
    flag("--double", help="second matrix for the double leaf")
    flag("--field-order", type=int, default=4)

    rep = group("rep", "representation utilities")
    flag = command(rep, "dims", cmd_rep_dims)
    flag("--genus", type=int, default=1)
    flag("--N", type=int, default=3)
    flag("--cell", choices=["big", "reduced"], default="big")
    flag("--orbit-size", type=int, default=1)
    flag = command(rep, "moment", cmd_rep_moment)
    flag("--rep", required=True)

    # no defaults here: a detect flag left out takes DetectionRequest's
    flag = command(sub, "detect", cmd_detect, help="kernel detection certificates")
    flag("--genus", type=int)
    flag("--N", type=int)
    flag("--cell", choices=["reduced", "big"])
    flag("--curve", help='"p,q", coords JSON or a JSON file')
    flag("--phi", help="mapping class JSON (matrix or words)")
    flag("--beta", help='explicit image curve: "p,q", coords JSON or a JSON file')
    flag("--cap", type=int)
    flag("--method", choices=list(DETECT_METHODS))
    flag("--batch", help="JSON list of detection requests")

    command(sub, "selftest", cmd_selftest, help="run the full acceptance suite")
    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        if args.config:
            # parse again with the config's values as the chosen command's
            # defaults, so that argparse alone decides what the user gave
            config = _read_json_file(args.config, "--config")
            if not isinstance(config, dict):
                raise ValueError(f"--config {args.config} must hold a JSON object of flag values")
            config = {key.replace("-", "_"): val for key, val in config.items()}
            args = build_parser(config, args.func).parse_args(argv)
        missing = [f"--{d.replace('_', '-')}" for d, v in vars(args).items() if v is REQUIRED]
        if missing:
            raise ValueError(f"the following arguments are required: {', '.join(missing)}")
        args.func(args)
    except USAGE_ERRORS as exc:
        _log(f"error: {_error_text(exc)}")
        sys.exit(2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
