"""Command-line front end.

One verb per calculator: ``table dump``, ``jinv enumerate|check``,
``ring j-from-gens``, ``motive rost-poincare|decompose|candim|
torsion-bound|integral``, ``flag poincare`` and ``lift idempotent|
family|izvrat|sl|crt``.  Every verb prints human-readable text by default
and exactly one JSON document with ``--json`` after the verb.  Each
handler imports its calculator module itself, so a verb loads only the
modules it runs.

Exit status: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import List, Sequence, Tuple

from .errors import JCalcError, ParseError


# ---------------------------------------------------------------------------
# argument helpers
# ---------------------------------------------------------------------------

def _int_list(text: str) -> Tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError("expected a comma-separated integer list") from exc


def _poly(text: str):
    from .polynomial import Poly
    return Poly(_int_list(text))


def _summand(text: str):
    try:
        head, tail = text.split(":", 1)
        return int(head), _poly(tail)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("expected p:c0,c1,...") from exc


def _context(args):
    from .kac_table import TorsionData
    return TorsionData(args.p, args.d, args.k)


def _matrix_from_args(args):
    from .idempotent_lab import ModMatrix
    if args.infile == "-":
        return ModMatrix.parse(sys.stdin.read())
    if args.infile:
        try:
            with open(args.infile) as fh:
                raw = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError("cannot read --in: %s" % exc) from exc
        return ModMatrix.parse(raw)
    if args.matrix is None:
        raise ParseError("no matrix given; use --matrix or --in")
    return ModMatrix.parse(args.matrix, modulus=args.modulus)


# ---------------------------------------------------------------------------
# handlers: each returns (payload, text_lines)
# ---------------------------------------------------------------------------

def _cmd_table_dump(args) -> Tuple[object, List[str]]:
    from .kac_table import constraint_rules, dump_row, parse_form, table_rows
    name = parse_form(args.form).name if args.form else None
    rows, lines = [], []
    for form, p in table_rows(args.max_rank):
        if (name and form.name != name) or (args.p and p != args.p):
            continue
        rules = "; ".join(str(rule) for rule in constraint_rules(form, p)) or "-"
        r = dump_row(form, p)
        rows.append(r)
        lines.append("%-12s p=%d  r=%d  d=%s  k=%s  rules: %s"
                     % (r["form"], p, r["r"], r["d"], r["k"], rules))
    return rows, lines


def _cmd_jinv_enumerate(args) -> Tuple[object, List[str]]:
    from .jinvariant import enumerate_admissible
    from .kac_table import parse_form
    form = parse_form(args.form)
    values = enumerate_admissible(form, args.p)
    payload = {"form": form.name, "p": args.p,
               "values": [J.to_dict() for J in values]}
    return payload, [str(J) for J in values]


def _cmd_jinv_check(args) -> Tuple[object, List[str]]:
    from .jinvariant import is_admissible
    from .kac_table import parse_form
    form, j = parse_form(args.form), args.j
    try:
        ok = is_admissible(j, form, args.p)
    except ValueError as exc:  # a non-prime --p or a --j entry outside 0..k_i
        raise ParseError(str(exc)) from exc
    payload = {"form": form.name, "p": args.p, "j": list(j), "admissible": ok}
    return payload, ["admissible" if ok else "not admissible"]


def _cmd_ring_j_from_gens(args) -> Tuple[object, List[str]]:
    from .jinvariant import JInvariant
    from .truncated_ring import RingElement, j_from_generators
    data = _context(args)
    gens = [RingElement.parse(data, text) for text in args.gens]
    j = j_from_generators(gens, data)
    payload = JInvariant(data, j).to_dict()
    return payload, ["J = (%s)" % ",".join(str(x) for x in j)]


def _cmd_motive_rost(args) -> Tuple[object, List[str]]:
    from .motive import rost_poincare
    data = _context(args)
    poly = rost_poincare(data, args.j)
    return {"poincare": list(poly.coeffs)}, [str(poly)]


def _cmd_motive_decompose(args) -> Tuple[object, List[str]]:
    from .kac_table import parse_form
    from .motive import decompose
    form = parse_form(args.form)
    dec = decompose(form, args.p, args.j, theta=args.theta,
                    tits_index=args.tits_index,
                    splitting_degree=args.splitting_degree,
                    pfister={"yes": True, "no": False}.get(args.pfister))
    lines = [
        "summand:        %s" % dec.summand_poincare,
        "multiplicities: %s" % dec.multiplicities,
        "copies:         %d" % dec.summand_count,
    ]
    return dec.to_dict(), lines


def _cmd_motive_candim(args) -> Tuple[object, List[str]]:
    from .motive import canonical_p_dimension
    data = _context(args)
    value = canonical_p_dimension(data, args.j)
    return {"candim": value}, [str(value)]


def _cmd_motive_torsion_bound(args) -> Tuple[object, List[str]]:
    from .integers import is_prime
    from .jinvariant import JInvariant
    from .motive import _power_bound, torsion_index_bound
    if args.d or args.k:
        # validate against a full context when one is supplied
        bound = torsion_index_bound(JInvariant(_context(args), args.j))
    elif not is_prime(args.p) or min(args.j, default=0) < 0:
        raise ParseError("--p must be a prime and --j nonnegative, got p = %d, j = %s"
                         % (args.p, ",".join(map(str, args.j))))
    else:
        bound = _power_bound(args.p, sum(args.j))
    return {"p": args.p, "j": list(args.j), "bound": bound}, [str(bound)]


def _cmd_motive_integral(args) -> Tuple[object, List[str]]:
    from .motive import integral_decomposition
    if args.all:
        results = integral_decomposition(args.total, args.m, args.summand,
                                         all_candidates=True)
        payload = [{"summand": list(f.coeffs), "multiplicities": list(mult.coeffs)}
                   for f, mult in results]
        lines = ["%s  x  %s" % (f, mult) for f, mult in results]
        return payload, lines
    f, mult = integral_decomposition(args.total, args.m, args.summand)
    payload = {"summand": list(f.coeffs), "multiplicities": list(mult.coeffs),
               "total": list(args.total.coeffs)}
    return payload, ["summand:        %s" % f, "multiplicities: %s" % mult]


def _cmd_flag_poincare(args) -> Tuple[object, List[str]]:
    from .root_data import DynkinType, poincare_homogeneous
    t = DynkinType.parse(args.type)
    poly = poincare_homogeneous(t, args.theta)
    return {"poincare": list(poly.coeffs)}, [str(poly)]


def _cmd_lift_idempotent(args) -> Tuple[object, List[str]]:
    from .idempotent_lab import lift_idempotent
    a = _matrix_from_args(args)
    e = lift_idempotent(a)
    return {"modulus": e.modulus, "entries": [list(r) for r in e.entries]}, [e.to_text()]


def _cmd_lift_family(args) -> Tuple[object, List[str]]:
    from .idempotent_lab import ModMatrix, lift_orthogonal_family
    mats = [ModMatrix.parse(text, modulus=args.modulus) for text in args.matrix]
    lifted = lift_orthogonal_family(mats)
    payload = [{"modulus": e.modulus, "entries": [list(r) for r in e.entries]}
               for e in lifted]
    return payload, [e.to_text() for e in lifted]


def _cmd_lift_izvrat(args) -> Tuple[object, List[str]]:
    from .idempotent_lab import ModMatrix, lift_isomorphism, random_isomorphism_instance
    if args.demo:
        rng = random.Random(args.seed)
        phi1, phi2, psi12, psi21 = random_isomorphism_instance(rng, args.modulus, args.size)
    else:
        if not all([args.phi1, args.phi2, args.psi12, args.psi21]):
            raise ParseError("supply --phi1/--phi2/--psi12/--psi21 or use --demo")
        phi1, phi2, psi12, psi21 = (ModMatrix.parse(text, modulus=args.modulus)
                                    for text in (args.phi1, args.phi2, args.psi12, args.psi21))
    t12, t21 = lift_isomorphism(phi1, phi2, psi12, psi21)
    payload = {
        "theta12": [list(r) for r in t12.entries],
        "theta21": [list(r) for r in t21.entries],
        "modulus": t12.modulus,
        "verified": True,
    }
    lines = ["theta12:", t12.to_text(), "theta21:", t21.to_text(),
             "identities theta21*theta12 = phi1 and theta12*theta21 = phi2 verified"]
    return payload, lines


def _cmd_lift_sl(args) -> Tuple[object, List[str]]:
    from .idempotent_lab import random_unimodular, sl_lift
    if args.demo:
        matrix = random_unimodular(random.Random(args.seed), args.modulus, args.size)
    else:
        matrix = _matrix_from_args(args)
    lifted = sl_lift(matrix)
    payload = {"modulus": matrix.modulus,
               "input": [list(r) for r in matrix.entries],
               "lift": [list(r) for r in lifted]}
    lines = ["input (mod %d): %s" % (matrix.modulus, matrix.entries),
             "integer lift:   %s" % (lifted,)]
    return payload, lines


def _cmd_lift_crt(args) -> Tuple[object, List[str]]:
    from .idempotent_lab import ModMatrix, crt_split
    splitting = crt_split(args.m)
    payload = {"m": args.m,
               "factors": [[p, e] for p, e in splitting.factors]}
    lines = ["%d = %s" % (args.m, " * ".join(
        "%d^%d" % (p, e) if e > 1 else str(p) for p, e in splitting.factors))]
    if args.matrix:
        matrix = ModMatrix.parse(args.matrix, modulus=args.m)
        parts = splitting.split(matrix)
        payload["parts"] = [{"modulus": part.modulus,
                             "entries": [list(r) for r in part.entries]}
                            for part in parts]
        lines += [part.to_text() for part in parts]
    return payload, lines


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    from . import __version__
    parser = argparse.ArgumentParser(
        prog="jcalc",
        description="Exact J-invariant and motivic decomposition calculators.")
    parser.add_argument("--version", action="version", version="jcalc %s" % __version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit exactly one JSON document")
    ctx = argparse.ArgumentParser(add_help=False)
    ctx.add_argument("--p", type=int, required=True)
    ctx.add_argument("--d", type=_int_list, required=True, help="codimensions, e.g. 3,5")
    ctx.add_argument("--k", type=_int_list, required=True, help="exponents, e.g. 2,1")
    top = parser.add_subparsers(dest="group", required=True)

    table = top.add_parser("table", help="torsion table queries").add_subparsers(
        dest="verb", required=True)
    dump = table.add_parser("dump", help="expanded table rows as {form,p,r,d,k,rules}", parents=[common])
    dump.add_argument("--form", help="restrict to one form, e.g. E7sc or Spin11")
    dump.add_argument("--p", type=int, help="restrict to one prime")
    dump.add_argument("--max-rank", type=int, default=8,
                      help="classical series rank bound (default 8)")
    dump.set_defaults(handler=_cmd_table_dump)

    jinv = top.add_parser("jinv", help="J-invariant values").add_subparsers(
        dest="verb", required=True)
    enum = jinv.add_parser("enumerate", help="all admissible values of a row", parents=[common])
    enum.add_argument("--form", required=True)
    enum.add_argument("--p", type=int, required=True)
    enum.set_defaults(handler=_cmd_jinv_enumerate)
    check = jinv.add_parser("check", help="test one value against the table rules", parents=[common])
    check.add_argument("--form", required=True)
    check.add_argument("--p", type=int, required=True)
    check.add_argument("--j", type=_int_list, required=True, help="comma list, e.g. 1,1,0")
    check.set_defaults(handler=_cmd_jinv_check)

    ring = top.add_parser("ring", help="truncated ring calculations").add_subparsers(
        dest="verb", required=True)
    jfg = ring.add_parser("j-from-gens",
                          help="J-invariant of the subring generated by elements",
                          parents=[common, ctx])
    jfg.add_argument("gens", nargs="*", help="elements like '1 + 2*x1^3*x2'")
    jfg.set_defaults(handler=_cmd_ring_j_from_gens)

    motive = top.add_parser("motive", help="decomposition calculators").add_subparsers(
        dest="verb", required=True)
    rost = motive.add_parser("rost-poincare", help="summand Poincare polynomial",
                             parents=[common, ctx])
    rost.add_argument("--j", type=_int_list, required=True)
    rost.set_defaults(handler=_cmd_motive_rost)

    dec = motive.add_parser("decompose", help="twist multiplicities of a flag variety", parents=[common])
    dec.add_argument("--form", required=True)
    dec.add_argument("--p", type=int, required=True)
    dec.add_argument("--j", type=_int_list, required=True)
    dec.add_argument("--theta", type=_int_list,
                     help="parabolic vertices, e.g. 1,2 (default: Borel)")
    dec.add_argument("--tits-index", type=int, dest="tits_index")
    dec.add_argument("--splitting-degree", type=int, dest="splitting_degree")
    dec.add_argument("--pfister", choices=("yes", "no"))
    dec.set_defaults(handler=_cmd_motive_decompose)

    candim = motive.add_parser("candim", help="canonical p-dimension", parents=[common, ctx])
    candim.add_argument("--j", type=_int_list, required=True)
    candim.set_defaults(handler=_cmd_motive_candim)

    bound = motive.add_parser("torsion-bound", help="p-power bound for the torsion index", parents=[common])
    bound.add_argument("--p", type=int, required=True)
    bound.add_argument("--j", type=_int_list, required=True)
    bound.add_argument("--d", type=_int_list, default="")
    bound.add_argument("--k", type=_int_list, default="")
    bound.set_defaults(handler=_cmd_motive_torsion_bound)

    integral = motive.add_parser("integral", help="minimal m-positive divisor", parents=[common])
    integral.add_argument("--total", type=_poly, required=True, help="coefficients c0,c1,...")
    integral.add_argument("--m", type=int, required=True)
    integral.add_argument("--summand", type=_summand, action="append", required=True,
                          help="p:c0,c1,... (repeatable)")
    integral.add_argument("--all", action="store_true",
                          help="report every minimal candidate")
    integral.set_defaults(handler=_cmd_motive_integral)

    flag = top.add_parser("flag", help="flag variety Poincare polynomials").add_subparsers(
        dest="verb", required=True)
    fp = flag.add_parser("poincare", help="P(G/P_theta, t)", parents=[common])
    fp.add_argument("--type", required=True, help="Dynkin type, e.g. E8 or D5")
    fp.add_argument("--theta", type=_int_list, help="parabolic vertices, e.g. 1,3")
    fp.set_defaults(handler=_cmd_flag_poincare)

    lift = top.add_parser("lift", help="idempotent lab").add_subparsers(
        dest="verb", required=True)
    li = lift.add_parser("idempotent", help="lift an idempotent mod p to Z/p^n", parents=[common])
    li.add_argument("--matrix", help="rows ';'-separated, entries ','")
    li.add_argument("--modulus", type=int)
    li.add_argument("--in", dest="infile", help="headered matrix file, '-' for stdin")
    li.set_defaults(handler=_cmd_lift_idempotent)

    lf = lift.add_parser("family", help="lift an orthogonal idempotent family", parents=[common])
    lf.add_argument("--modulus", type=int, required=True)
    lf.add_argument("--matrix", action="append", required=True)
    lf.set_defaults(handler=_cmd_lift_family)

    lz = lift.add_parser("izvrat", help="lift mutually inverse isomorphisms", parents=[common])
    lz.add_argument("--modulus", type=int, default=8)
    lz.add_argument("--phi1")
    lz.add_argument("--phi2")
    lz.add_argument("--psi12")
    lz.add_argument("--psi21")
    lz.add_argument("--demo", action="store_true",
                    help="random planted instance instead of explicit matrices")
    lz.add_argument("--seed", type=int, default=0)
    lz.add_argument("--size", type=int, default=3)
    lz.set_defaults(handler=_cmd_lift_izvrat)

    ls = lift.add_parser("sl", help="integer lift of an SL_l(Z/m) matrix",
                         parents=[common])
    ls.add_argument("--matrix")
    ls.add_argument("--modulus", type=int, default=6)
    ls.add_argument("--in", dest="infile")
    ls.add_argument("--demo", action="store_true")
    ls.add_argument("--seed", type=int, default=0)
    ls.add_argument("--size", type=int, default=2)
    ls.set_defaults(handler=_cmd_lift_sl)

    lc = lift.add_parser("crt", help="prime-power splitting of Z/m coefficients", parents=[common])
    lc.add_argument("--m", type=int, required=True)
    lc.add_argument("--matrix", help="optional matrix to transport")
    lc.set_defaults(handler=_cmd_lift_crt)

    return parser


def execute(argv: Sequence[str]) -> int:
    """Run one invocation; returns the process exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0
    try:
        payload, lines = args.handler(args)
    except JCalcError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return 0


def main() -> None:
    sys.exit(execute(sys.argv[1:]))


if __name__ == "__main__":
    main()
