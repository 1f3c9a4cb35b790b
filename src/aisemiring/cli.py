"""Command-line surface; every subcommand is a thin wrapper over the library.

Exit codes: 0 success, 1 semantic failure (axiom violation, failed
inequality, failed claim, exhausted search) or a closed stdout, 2 usage or
syntax errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

from .algebra import (
    AlgebraSyntaxError,
    FiniteAiSemiring,
    REGISTRY_NAMES,
    TableFormatError,
    parse_algebra,
    parse_algebra_raw,
    registry,
    serialize_algebra,
    validate,
)
from .derivation import (
    DerivationSyntaxError,
    SearchBounds,
    check_derivation,
    format_derivation,
    parse_derivation,
    search_derivation,
)
from .enumeration import (MAX_CENSUS_ORDER, classify_additive_type,
                          enumerate_ai_semirings, screen_family)
from .family import MAX_N_WITHOUT_FORCE, in_W
from .satisfaction import (
    DECIDERS,
    SatisfactionVerdict,
    VariableBudgetError,
    holds_identity,
    holds_inequality,
)
from .structure import Partition, check_subdirect, find_isomorphism, quotient, subalgebra
from .terms import Term, TermSyntaxError, Word, parse_term, parse_word, print_term
from .verify import run_claims

USAGE_ERROR = 2
SEMANTIC_ERROR = 1


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _usage(message: str) -> CliError:
    return CliError(message, USAGE_ERROR)


def _semantic(message: str) -> CliError:
    return CliError(message, SEMANTIC_ERROR)


def _positive_int(text: str) -> int:
    """argparse type for counts: a bad value is a usage error (exit 2)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _read_text(path: str) -> str:
    """Contents of a UTF-8 text file; an unreadable file is a usage error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _usage(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise _usage(f"{path}: not UTF-8 text: {exc}") from None


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise _usage(str(exc)) from None


def _load_algebra(spec: str) -> FiniteAiSemiring:
    if spec in REGISTRY_NAMES:
        return registry(spec)
    path = Path(spec)
    if not path.exists():
        raise _usage(
            f"{spec!r} is neither a registry name ({', '.join(REGISTRY_NAMES)}) "
            "nor an existing file"
        )
    try:
        return parse_algebra(_read_text(spec))
    except AlgebraSyntaxError as exc:
        raise _usage(f"{spec}: {exc}") from None
    except ValueError as exc:
        raise _semantic(f"{spec}: {exc}") from None


def _parse_inequality(text: str) -> tuple[Word, Term]:
    if "<=" not in text:
        raise _usage(f"inequality needs '<=': {text!r}")
    lhs, rhs = text.split("<=", 1)
    return parse_word(lhs), parse_term(rhs)


def _parse_identity(text: str) -> tuple[Term, Term]:
    if "<=" in text or "=" not in text:
        raise _usage(f"identity needs a single '=': {text!r}")
    lhs, rhs = text.split("=", 1)
    return parse_term(lhs), parse_term(rhs)


def _parse_labels(S: FiniteAiSemiring, text: str) -> list[int]:
    """Elements of S named by a comma-separated label list."""
    try:
        return [S.index(x.strip()) for x in text.split(",") if x.strip()]
    except KeyError as exc:
        raise _usage(exc.args[0]) from None


def _parse_blocks(S: FiniteAiSemiring, text: str) -> Partition:
    blocks = []
    for chunk in text.split("|"):
        block = _parse_labels(S, chunk)
        if not block:
            raise _usage(f"empty block in {text!r}")
        blocks.append(block)
    try:
        return Partition.closing(blocks, S.order)
    except ValueError as exc:
        raise _usage(f"bad partition {text!r}: {exc}") from None


def _parse_subset(S: FiniteAiSemiring, text: str) -> list[int]:
    subset = _parse_labels(S, text)
    if not subset:
        raise _usage("empty subset")
    return subset


def _emit_verdict(v: SatisfactionVerdict, S: FiniteAiSemiring, as_json: bool) -> int:
    if as_json:
        payload = {"holds": v.holds}
        if v.counterexample is not None:
            c = v.counterexample
            payload["counterexample"] = {
                "assignment": {x: S.label(e) for x, e in c.assignment.items()},
                "left": S.label(c.left_value),
                "right": S.label(c.right_value),
            }
        print(json.dumps(payload, indent=2))
    elif v.holds:
        print("holds: yes")
    else:
        c = v.counterexample
        binding = ", ".join(f"{x} = {S.label(e)}" for x, e in sorted(c.assignment.items()))
        print("holds: no")
        print(f"counterexample: {binding}")
        print(f"  left evaluates to {S.label(c.left_value)}")
        print(f"  right evaluates to {S.label(c.right_value)}")
    return 0 if v.holds else SEMANTIC_ERROR


def cmd_validate(args) -> int:
    text = _read_text(args.file)
    try:
        name, labels, add, mul = parse_algebra_raw(text)
        report = validate(add, mul)
    except (AlgebraSyntaxError, TableFormatError) as exc:
        raise _usage(f"{args.file}: {exc}") from None
    if report.ok:
        print(f"{name}: valid ai-semiring of order {len(labels)}")
        return 0
    print(f"{name}: {len(report.violations)} axiom violation(s)"
          + (" (truncated)" if report.truncated else ""))
    for v in report.violations:
        print("  " + v.describe(labels))
    return SEMANTIC_ERROR


def cmd_holds(args) -> int:
    S = _load_algebra(args.algebra)
    if (args.ineq is None) == (args.id is None):
        raise _usage("exactly one of --ineq or --id is required")
    if args.ineq is not None:
        q, u = _parse_inequality(args.ineq)
        v = holds_inequality(S, q, u, force=args.force)
    else:
        u, w = _parse_identity(args.id)
        v = holds_identity(S, u, w, force=args.force)
    return _emit_verdict(v, S, args.json)


def cmd_decide(args) -> int:
    registry_name = args.which.upper()
    decider = DECIDERS[registry_name]
    q, u = _parse_inequality(args.ineq)
    got = decider(q, u)
    payload = {"algebra": registry_name, "inequality": f"{q} <= {print_term(u)}",
               "decider": got}
    agrees = True
    if args.oracle:
        try:
            want = holds_inequality(registry(registry_name), q, u).holds
        except VariableBudgetError as exc:
            raise _semantic(
                f"--oracle: {exc.budget}; decide has no --force, run "
                f"aisemiring holds {registry_name} --ineq \"{payload['inequality']}\" --force"
            ) from None
        agrees = got == want
        payload["oracle"] = want
        payload["agreement"] = agrees
    if args.json:
        print(json.dumps(payload, indent=2))
    elif not agrees:
        print(f"decider: {got}, oracle: {want} -- MISMATCH")
    else:
        print(f"decider: {'holds' if got else 'fails'}"
              + (" (oracle agrees)" if args.oracle else ""))
    return 0 if got and agrees else SEMANTIC_ERROR


def cmd_family(args) -> int:
    S = _load_algebra(args.algebra)
    verdicts = in_W(S, args.nmax, force=args.force)
    if args.json:
        print(json.dumps({
            "algebra": S.name,
            "results": [
                {"n": v.n, "holds": v.holds,
                 **({} if v.holds else {"counterexample": {
                     x: S.label(e)
                     for x, e in v.verdict.counterexample.assignment.items()
                 }})}
                for v in verdicts
            ],
        }, indent=2))
    else:
        for v in verdicts:
            if v.holds:
                print(f"n={v.n}: holds")
            else:
                c = v.verdict.counterexample
                binding = ", ".join(
                    f"{x}={S.label(e)}" for x, e in sorted(c.assignment.items())
                )
                print(f"n={v.n}: fails at {binding}")
    return 0 if all(v.holds for v in verdicts) else SEMANTIC_ERROR


def cmd_quotient(args) -> int:
    S = _load_algebra(args.algebra)
    P = _parse_blocks(S, args.blocks)
    try:
        Q = quotient(S, P)
    except ValueError as exc:
        raise _semantic(str(exc)) from None
    sys.stdout.write(serialize_algebra(Q))
    return 0


def cmd_subalgebra(args) -> int:
    S = _load_algebra(args.algebra)
    subset = _parse_subset(S, args.subset)
    try:
        T = subalgebra(S, subset)
    except ValueError as exc:
        raise _semantic(str(exc)) from None
    sys.stdout.write(serialize_algebra(T))
    return 0


def cmd_iso(args) -> int:
    A = _load_algebra(args.first)
    B = _load_algebra(args.second)
    try:
        perm = find_isomorphism(A, B)
    except ValueError as exc:
        raise _usage(str(exc)) from None
    if perm is None:
        print("not isomorphic")
        return SEMANTIC_ERROR
    mapping = ", ".join(
        f"{A.label(i)} -> {B.label(perm[i])}" for i in range(A.order)
    )
    print(f"isomorphic: {mapping}")
    return 0


def cmd_subdirect(args) -> int:
    S = _load_algebra(args.algebra)
    theta1 = _parse_blocks(S, args.theta1)
    theta2 = _parse_blocks(S, args.theta2)
    try:
        rep = check_subdirect(S, theta1, theta2)
    except ValueError as exc:
        raise _semantic(str(exc)) from None
    if args.json:
        print(json.dumps({
            "injective": rep.injective,
            "surjective": rep.surjective,
            "meet_is_discrete": rep.meet_is_discrete,
            "factor1": {"name": rep.factor1.name, "order": rep.factor1.order},
            "factor2": {"name": rep.factor2.name, "order": rep.factor2.order},
        }, indent=2))
    else:
        print(f"embedding injective: {'yes' if rep.injective else 'no'}")
        print(f"projections surjective: {'yes' if rep.surjective else 'no'}")
        print(f"meet of congruences discrete: {'yes' if rep.meet_is_discrete else 'no'}")
        print(f"factor 1 ({rep.factor1.order} elements):")
        sys.stdout.write(serialize_algebra(rep.factor1))
        print(f"factor 2 ({rep.factor2.order} elements):")
        sys.stdout.write(serialize_algebra(rep.factor2))
    return 0 if rep.is_subdirect else SEMANTIC_ERROR


def cmd_enumerate(args) -> int:
    if args.screen_family is not None and args.screen_family > MAX_N_WITHOUT_FORCE:
        raise _usage(
            f"--screen-family {args.screen_family} is over the limit of "
            f"{MAX_N_WITHOUT_FORCE} (enumerate has no --force)"
        )
    try:
        algebras = enumerate_ai_semirings(args.order)
    except ValueError as exc:
        raise _usage(str(exc)) from None
    screened = algebras
    if args.screen_family is not None:
        screened = screen_family(algebras, args.screen_family)
    types = classify_additive_type(screened)

    records = "\n---\n".join(serialize_algebra(S).rstrip("\n") for S in screened)
    summary_lines = [f"# order {args.order}: {len(screened)} classes"]
    if args.screen_family is not None:
        summary_lines[0] += (
            f" (of {len(algebras)}, screened by the family inequality at "
            f"n<={args.screen_family})"
        )
    for i, t in enumerate(types, start=1):
        flat = " ".join(str(v) for row in t.add_table for v in row)
        summary_lines.append(
            f"# additive type {i}: count={t.count} minimals={t.n_minimals} "
            f"coatoms={t.n_coatoms} table={flat}"
        )
    body = records + "\n---\n# summary\n" + "\n".join(summary_lines) + "\n"

    if args.out:
        _write_text(args.out, body)
    if args.json:
        payload = {"order": args.order, "classes": len(screened)}
        if args.classify:
            payload["additive_types"] = [
                {"count": t.count, "minimals": t.n_minimals,
                 "coatoms": t.n_coatoms, "table": t.add_table}
                for t in types
            ]
        print(json.dumps(payload, indent=2))
    elif args.out:
        for line in summary_lines if args.classify else summary_lines[:1]:
            print(line.lstrip("# "))
    else:
        sys.stdout.write(body)
    return 0


def cmd_derive_check(args) -> int:
    text = _read_text(args.file)
    try:
        d = parse_derivation(text)
    except DerivationSyntaxError as exc:
        raise _usage(f"{args.file}: {exc}") from None
    claim = (d.chain[0], d.chain[-1])
    verdict = check_derivation(d, claim)
    if verdict.ok:
        print(
            f"derivation valid: {print_term(claim[0])} = {print_term(claim[1])} "
            f"in {len(d.steps)} step(s)"
        )
        return 0
    where = "" if verdict.failed_step is None else f" at step {verdict.failed_step + 1}"
    print(f"derivation invalid{where}: {verdict.reason}")
    return SEMANTIC_ERROR


def cmd_derive_search(args) -> int:
    sigma = [_parse_identity(r) for r in args.rule]
    if not sigma:
        raise _usage("at least one --rule is required")
    claim = _parse_identity(args.claim)
    bounds = SearchBounds(**{f.name: getattr(args, f.name) for f in fields(SearchBounds)})
    try:
        result = search_derivation(sigma, claim, bounds)
    except ValueError as exc:
        raise _usage(str(exc)) from None
    if args.stats:
        sizes = ", ".join(map(str, result.frontier_sizes)) or "-"
        print(f"search: explored {result.explored} terms, pruned {result.pruned} "
              f"rewrites, frontier sizes {sizes}", file=sys.stderr)
    if not result.found:
        print(f"{result.reason} (explored {result.explored} terms)", file=sys.stderr)
        return SEMANTIC_ERROR
    text = format_derivation(result.derivation)
    if args.out:
        _write_text(args.out, text)
        print(f"derivation with {len(result.derivation.steps)} step(s) "
              f"written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_paper_verify(args) -> int:
    report = run_claims(full=args.full)
    print(report.to_json() if args.json else report.render())
    return 0 if report.ok else SEMANTIC_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aisemiring",
        description="workbench for finite additively idempotent semirings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="axiom-check an algebra file")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("holds", help="brute-force an inequality or identity")
    p.add_argument("algebra", help="registry name or algebra file")
    p.add_argument("--ineq", help='inequality "q <= u"')
    p.add_argument("--id", help='identity "u = v"')
    p.add_argument("--force", action="store_true",
                   help="ignore the assignment-count guard")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_holds)

    p = sub.add_parser("decide", help="syntactic deciders for S2/S7/S53")
    p.add_argument("which", choices=[name.lower() for name in DECIDERS])
    p.add_argument("--ineq", required=True, help='inequality "q <= u"')
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against brute force")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("family", help="test the cycle-family inequality")
    p.add_argument("--algebra", required=True)
    p.add_argument("--nmax", type=_positive_int, default=MAX_N_WITHOUT_FORCE)
    p.add_argument("--force", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("quotient", help="quotient by a congruence")
    p.add_argument("algebra")
    p.add_argument("--blocks", required=True,
                   help='partition, e.g. "1,2|3|4" (singletons may be omitted)')
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("subalgebra", help="induced algebra on a closed subset")
    p.add_argument("algebra")
    p.add_argument("--subset", required=True, help='labels, e.g. "1,2,4"')
    p.set_defaults(func=cmd_subalgebra)

    p = sub.add_parser("iso", help="find an isomorphism between two algebras")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("subdirect", help="check a subdirect decomposition")
    p.add_argument("algebra")
    p.add_argument("--theta1", required=True)
    p.add_argument("--theta2", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_subdirect)

    p = sub.add_parser("enumerate",
                       help=f"census of orders 1..{MAX_CENSUS_ORDER} up to isomorphism")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--classify", action="store_true",
                   help="summarize counts per additive type")
    p.add_argument("--screen-family", type=_positive_int, metavar="N",
                   help="keep only classes satisfying the family inequality "
                        "for all n <= N")
    p.add_argument("--out", help="write records to a file instead of stdout")
    p.add_argument("--json", action="store_true",
                   help="print a summary as JSON instead of records")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("derive", help="check or search derivations")
    dsub = p.add_subparsers(dest="derive_command", required=True)
    pc = dsub.add_parser("check", help="verify a derivation file")
    pc.add_argument("file")
    pc.set_defaults(func=cmd_derive_check)
    ps = dsub.add_parser("search", help="bounded breadth-first derivation search")
    ps.add_argument("--rule", action="append", default=[],
                    help='identity "u = v"; repeatable')
    ps.add_argument("--claim", required=True, help='identity "u = v"')
    for f in fields(SearchBounds):
        ps.add_argument("--" + f.name.replace("_", "-"), type=int, default=f.default)
    ps.add_argument("--out", help="write the derivation file here")
    ps.add_argument("--stats", action="store_true",
                    help="print explored terms, pruned rewrites and frontier "
                         "sizes to stderr")
    ps.set_defaults(func=cmd_derive_search)

    p = sub.add_parser("paper-verify",
                       help="run the built-in claim suite end to end")
    p.add_argument("--full", action="store_true",
                   help="include the order-4 census")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_paper_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # flushed here, so that a closed stdout raises inside the try
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone; point stdout at devnull, so that flushing it
        # again at exit raises nothing, and exit 1 as Python does on EPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return SEMANTIC_ERROR
    except CliError as exc:
        message, code = str(exc), exc.code
    except TermSyntaxError as exc:
        message, code = str(exc), USAGE_ERROR
    except VariableBudgetError as exc:
        message, code = str(exc), SEMANTIC_ERROR
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
