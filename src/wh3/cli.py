"""Command-line front end: verify, normalize, member, matrix, export."""

from __future__ import annotations

import argparse
import json
import sys

from . import catalog, exprs, ncalg, scalars, verify
from .linalg import DEFAULT_PRIME, DEFAULT_SEED
from .reports import reports_to_json

__all__ = ["main", "build_parser", "run"]

USAGE_ERROR = 2
# `wh3 member` decides at this degree, or at the element's if it is higher,
# unless --degree is given
_MEMBER_DEGREE = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wh3",
        description="Exact verifier for the three-parameter deformed "
                    "Weyl-Heisenberg algebra, its differential calculi and "
                    "its ten-generator quantum group.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_verify = sub.add_parser("verify", help="run verification checks")
    p_verify.add_argument("--check", help="comma-separated check ids")
    p_verify.add_argument("--all", action="store_true", help="run every check")
    p_verify.add_argument("--list", action="store_true", help="list check ids and exit")
    p_verify.add_argument("--seed", type=int, default=None,
                          help="accepted and ignored: every verdict is exact")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--errata", choices=("on", "off"), default="on",
                          help="off verifies the uncorrected transcription")
    p_verify.add_argument("--set", dest="bindings", default=None,
                          help="parameter values, e.g. q=3/2,u=5/7,s=2")
    p_verify.add_argument("--spec", dest="spec", default=None,
                          help="specialization such as q=u^2 or s=0")
    p_verify.add_argument("--mutate", default=None,
                          help="corrupt a braiding entry, e.g. omega:11,11=1")
    p_verify.add_argument("--no-timings", action="store_true",
                          help="report 0 ms for every check, in text and JSON, "
                               "for byte-stable output")

    p_norm = sub.add_parser("normalize", help="normalize an expression")
    p_norm.add_argument("--algebra", default=None,
                        help=f"one of {', '.join(catalog.ALGEBRA_IDS)} or a family id")
    p_norm.add_argument("--algebra-file", default=None,
                        help="algebra-definition JSON file instead of a name")
    p_norm.add_argument("--expr", required=True)
    p_norm.add_argument("--errata", choices=("on", "off"), default="on")

    p_member = sub.add_parser("member", help="ideal membership")
    p_member.add_argument("--algebra", default=None)
    p_member.add_argument("--algebra-file", default=None)
    p_member.add_argument("--expr", required=True)
    p_member.add_argument("--degree", type=int, default=None)
    p_member.add_argument("--mode", choices=("exact", "modular"), default="exact",
                          help="exact: the normal form under rules completed to the "
                               "degree; modular: elimination on the raw rows "
                               "w1*r*w2 over GF(p)")
    p_member.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    p_member.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_member.add_argument("--errata", choices=("on", "off"), default="on")
    p_member.add_argument("--format", choices=("text", "json"), default="text")

    p_matrix = sub.add_parser("matrix", help="print a braiding matrix")
    p_matrix.add_argument("--name", choices=("omega", "omega-inv"), default="omega")
    p_matrix.add_argument("--set", dest="bindings", default=None)
    p_matrix.add_argument("--format", choices=("text", "json"), default="text")

    p_export = sub.add_parser("export", help="emit a relation family as JSON")
    p_export.add_argument("--family", required=True,
                          help=f"one of {', '.join(catalog.FAMILY_IDS)} or an algebra name")
    p_export.add_argument("--errata", choices=("on", "off"), default="on")
    p_export.add_argument("--out", default=None, help="output path (default stdout)")
    return parser


class UsageError(Exception):
    pass


def _parse_bindings(text: str | None) -> tuple:
    if not text:
        return ()
    out = {}
    for piece in text.split(","):
        if "=" not in piece:
            raise UsageError(f"bad binding {piece!r}; expected name=value")
        name, value = piece.split("=", 1)
        name = name.strip()
        if name not in scalars.PARAMETERS:
            raise UsageError(f"unknown parameter {name!r} in --set/--spec")
        if name in out:
            raise UsageError(f"parameter {name} given more than once in --set/--spec")
        out[name] = exprs.parse_scalar(value)
    return tuple(out.items())


def _parse_mutation(text: str | None) -> tuple:
    if not text:
        return ()
    try:
        target, assignment = text.split(":", 1)
        cell, value = assignment.split("=", 1)
        row, col = cell.split(",")
        row_pair = (int(row[0]), int(row[1]))
        col_pair = (int(col[0]), int(col[1]))
        if len(row) != 2 or len(col) != 2 or not all(
                1 <= i <= 3 for i in row_pair + col_pair):
            raise ValueError
    except (ValueError, IndexError):
        raise UsageError(
            f"bad mutation {text!r}; expected omega:RC,MN=EXPR like omega:11,11=1 "
            f"with indices 1..3"
        )
    if target != "omega":
        raise UsageError("only omega mutations are supported")
    return ((row_pair, col_pair, exprs.parse_scalar(value)),)


# Miller-Rabin with the first thirteen prime bases decides primality exactly
# below the smallest strong pseudoprime to all of them (Sorenson and Webster,
# Math. Comp. 86, 2017); the first twelve, up to 37, are exact only below
# 318665857834031151167461.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Primality of 0 <= n < _PRIME_BOUND by Miller-Rabin with `_PRIME_BASES`."""
    if n < 2:
        return False
    for p in _PRIME_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_prime(prime: int) -> None:
    if prime >= _PRIME_BOUND:
        raise UsageError(f"--prime {prime} is too large: primality is decided "
                         f"exactly only below {_PRIME_BOUND}")
    if prime < 5 or not _is_prime(prime):
        raise UsageError(f"--prime {prime} is not a prime of at least 5")


def _load_algebra(name: str | None, path: str | None, errata: bool) -> ncalg.PresentationSpec:
    """The presentation in an algebra file, or the named algebra or family."""
    if path:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return ncalg.presentation_from_json(json.load(handle))
        except KeyError as err:
            raise UsageError(f"malformed algebra file {path}: missing key {err}")
        except (ValueError, TypeError) as err:
            # invalid JSON, text or generators, or a document of the wrong shape
            raise UsageError(f"malformed algebra file {path}: {err}")
    if not name:
        raise UsageError("choose --algebra NAME or --algebra-file PATH")
    try:
        return catalog.named_presentation(name, errata)
    except KeyError as err:
        raise UsageError(err.args[0])


def _cmd_verify(args) -> int:
    if args.list:
        for cid in verify.CHECK_IDS:
            print(cid)
        return 0
    if args.all and args.check is not None:
        raise UsageError("choose --all or --check ids, not both")
    if args.all:
        checks = list(verify.CHECK_IDS)
    else:
        checks = [c.strip() for c in (args.check or "").split(",") if c.strip()]
        if not checks:
            raise UsageError("choose --all or --check ids")
        unknown = [c for c in checks if c not in verify.CHECK_IDS]
        if unknown:
            raise UsageError(f"unknown checks: {', '.join(unknown)}; "
                             f"known: {', '.join(verify.CHECK_IDS)}")
        repeated = next((c for i, c in enumerate(checks) if c in checks[:i]), None)
        if repeated:
            raise UsageError(f"check {repeated} given more than once in --check")
    ctx = verify.VerifyContext(
        errata=args.errata == "on",
        bindings=_parse_bindings(",".join(filter(None, (args.bindings, args.spec)))),
        omega_mutations=_parse_mutation(args.mutate),
    )
    reports = verify.run_all(ctx, checks)
    if args.no_timings:
        for report in reports:
            report.millis = 0
    if args.format == "json":
        print(reports_to_json(reports))
    else:
        for report in reports:
            print(f"[{report.status:>12}] {report.check} "
                  f"(exact, {report.millis} ms, {len(report.details)} assertions)")
            for detail in report.details:
                if not detail.ok:
                    print(f"    FAIL {detail.id}: {detail.note}")
            if report.counterexample:
                print(f"    counterexample: {report.counterexample}")
    return 0 if all(r.passed for r in reports) else 1


def _cmd_normalize(args) -> int:
    pres = _load_algebra(args.algebra, args.algebra_file, args.errata == "on")
    element = exprs.parse_element(args.expr, pres.alphabet)
    print(ncalg.algebra(pres).normal_form(element).format())
    return 0


def _cmd_member(args) -> int:
    if args.mode == "modular":  # the exact route uses no prime
        _check_prime(args.prime)
    pres = _load_algebra(args.algebra, args.algebra_file, args.errata == "on")
    element = exprs.parse_element(args.expr, pres.alphabet)
    degree = max(element.degree(), _MEMBER_DEGREE) if args.degree is None else args.degree
    oracle = ncalg.algebra(pres)
    report = (oracle.modular_member(element, degree, args.prime, args.seed)
              if args.mode == "modular" else oracle.member(element, degree))
    doc = {
        "member": report.member,
        "certain": report.certain,
        "route": report.route,
        "mode": report.mode,
        "degree": report.degree,
        "span_rank": report.span_rank,
        "residual": report.residual.format() if report.residual is not None else None,
        "prime": report.prime,
        "seed": report.seed,
    }
    support = [pres.alphabet.format_word(w) for w in report.support]
    if report.mode == "modular":
        doc.update(point=report.point, residual_support=support, note=report.note)
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        verdict = "member" if report.member else "not a member"
        certainty = "certain" if report.certain else "probabilistic"
        undecided = report.note.startswith("undecided:")
        print(report.note if undecided else
              f"{verdict} ({certainty}; {report.route}, {report.mode}, degree {report.degree})")
        if report.residual is not None:
            print(f"residual: {report.residual.format()}")
        if support:
            # the residual's values live in GF(p) at the point, not in Q(q, u, s)
            print(f"residual over GF({report.prime}) at (q, u, s) = {report.point}, "
                  f"support: {', '.join(support)}")
            if not undecided:
                print(report.note)
    return 0 if report.member else 1


def _cmd_matrix(args) -> int:
    m = catalog.omega() if args.name == "omega" else catalog.omega_inverse()
    bindings = _parse_bindings(args.bindings)
    if bindings:
        m = m.substitute(dict(bindings))
    if args.format == "json":
        cells = {
            f"{r[0]}{r[1]},{c[0]}{c[1]}": value.format()
            for r, c, value in m.nonzero_cells()
        }
        print(json.dumps({"name": args.name, "entries": cells}, indent=2, sort_keys=True))
    else:
        for r, c, value in m.nonzero_cells():
            print(f"[{r[0]}{r[1]} ; {c[0]}{c[1]}] = {value}")
    return 0


def _cmd_export(args) -> int:
    pres = _load_algebra(args.family, None, args.errata == "on")
    doc = json.dumps(ncalg.presentation_to_json(pres), indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(doc + "\n")
    else:
        print(doc)
    return 0


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return USAGE_ERROR if err.code not in (0, None) else 0
    try:
        if args.verb == "verify":
            return _cmd_verify(args)
        if args.verb == "normalize":
            return _cmd_normalize(args)
        if args.verb == "member":
            return _cmd_member(args)
        if args.verb == "matrix":
            return _cmd_matrix(args)
        if args.verb == "export":
            return _cmd_export(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    except (exprs.ExprError, scalars.ScalarError, scalars.CoefficientTooLongError,
            ncalg.InconsistentPresentationError, ncalg.DegreeBoundError,
            ncalg.RewriteBudgetError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    return USAGE_ERROR


def main() -> None:
    sys.exit(run())
