"""Command-line front end.

Commands: ``char`` and ``jh`` print character-level data for one labelled
object, ``homdim`` prints one quantum Hom dimension, and ``verify`` runs a
named verification suite to a truncation bound.  Output is deterministic
(byte-identical across runs); exit codes are 0 for success, 1 for a
verification failure, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from . import equivalence, modtools, satake, zigzag
from .characters import display_order
from .errors import DomainError, VerificationError

MAX_GUARD = 24
SUITES = (
    "zigzag",
    "clebsch-gordan",
    "steinberg",
    "bgg",
    "blocks",
    "relations",
    "frobenius",
    "all",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsatake",
        description=(
            "Exact signed-character calculus, quantum sl2 at q = i, and the "
            "zigzag-algebra comparison engine."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument(
            "--format", choices=("text", "json"), default="text", dest="fmt"
        )
        p.add_argument("--output", default=None, help="write the report to a file")

    p_char = sub.add_parser("char", help="print the signed character of one object")
    p_char.add_argument("kind", choices=satake.KINDS)
    p_char.add_argument("n", type=int)
    p_char.add_argument("sign", choices=("+", "-"))
    add_common(p_char)

    p_jh = sub.add_parser("jh", help="print the Jordan-Holder multiset of one object")
    p_jh.add_argument("kind", choices=satake.KINDS)
    p_jh.add_argument("n", type=int)
    p_jh.add_argument("sign", choices=("+", "-"))
    add_common(p_jh)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=SUITES)
    p_verify.add_argument(
        "--max",
        type=int,
        default=6,
        dest="max_n",
        help=f"truncation bound (default 6, capped at {MAX_GUARD})",
    )
    p_verify.add_argument(
        "--force",
        action="store_true",
        help=f"allow truncations above {MAX_GUARD} (runtimes grow quickly)",
    )
    add_common(p_verify)

    p_homdim = sub.add_parser(
        "homdim", help="dim Hom(P(a), P(b)) between quantum projectives"
    )
    p_homdim.add_argument("a", type=int)
    p_homdim.add_argument("b", type=int)
    add_common(p_homdim)

    return parser


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _jh_items(multiset: Counter) -> list[dict]:
    return [
        {"n": n, "sign": sign, "mult": multiset[(n, sign)]}
        for n, sign in display_order(multiset)
    ]


def cmd_char(args) -> int:
    obj = satake.formal(args.kind, args.n, args.sign)
    if args.fmt == "json":
        text = _json_dumps(obj.character.to_json_dict()) + "\n"
    else:
        text = str(obj.character) + "\n"
    _emit(text, args.output)
    return 0


def cmd_jh(args) -> int:
    obj = satake.formal(args.kind, args.n, args.sign)
    if args.fmt == "json":
        text = _json_dumps(_jh_items(obj.jh)) + "\n"
    else:
        text = satake.format_multiset(obj.jh) + "\n"
    _emit(text, args.output)
    return 0


def cmd_homdim(args) -> int:
    for label in (args.a, args.b):
        if label < 0 or label % 2 != 0 or label > 2 * MAX_GUARD:
            raise DomainError(
                f"homdim labels must be even in 0..{2 * MAX_GUARD}, got {label}"
            )
    dim = modtools.hom(
        modtools.projective(args.a), modtools.projective(args.b)
    ).dim
    if args.fmt == "json":
        _emit(_json_dumps({"a": args.a, "b": args.b, "dim": dim}) + "\n", args.output)
    else:
        _emit(f"{dim}\n", args.output)
    return 0


def _suite_relations(max_n: int) -> list[dict]:
    items = []
    for n in range(max_n + 1):
        report = zigzag.verify_algebra(zigzag.make(n))
        items.append(
            {
                "relation": f"zigzag algebra N={n} invariants ({report['checks']} checks)",
                "lhs": f"{len(report['violations'])} violations",
                "rhs": "0 violations",
                "pass": not report["violations"],
            }
        )
        items.extend(report["violations"])
    return items


def _suite_zigzag(max_n: int) -> list[dict]:
    """Truncations N = 0..max_n in order; each gauge extends the one of N - 1
    when ``gauge_fix`` finds its quiver unchanged."""
    items = []
    prev = None  # (quiver, gauge) of N - 1, if both were built
    for n in range(max_n + 1):
        try:
            hq = equivalence.hom_quiver(n)
        except VerificationError as exc:
            items.append(_failed(f"N={n}: hom dimension pattern", exc, "2/1/0 pattern"))
            prev = None
            continue
        items.append(
            {
                "relation": f"N={n}: hom dimension pattern",
                "lhs": str(hq.dim_matrix()),
                "rhs": "2/1/0 pattern",
                "pass": True,
            }
        )
        try:
            gauge = equivalence.gauge_fix(hq, prev)
            compared = equivalence.compare_zigzag(hq, gauge)
        except VerificationError as exc:
            items.append(_failed(f"N={n}: gauge fixing", exc, "zigzag generators"))
            prev = None
            continue
        prev = (hq, gauge)
        for item in compared:
            items.append({**item, "relation": f"N={n}: {item['relation']}"})
    return items


def _failed(relation: str, exc: VerificationError, rhs: str) -> dict:
    return {"relation": relation, "lhs": str(exc), "rhs": rhs, "pass": False}


def _suite_clebsch(max_n: int) -> list[dict]:
    items = []
    for n in range(max_n + 1):
        for m in range(max_n + 1):
            items.extend(satake.verify_clebsch_gordan(n, m))
    return items


def _suite_steinberg(max_n: int) -> list[dict]:
    items = []
    for n in range(max_n + 1):
        items.extend(satake.verify_steinberg(n))
    return items


def _suite_bgg(max_n: int) -> list[dict]:
    items = []
    for n in range(1, max_n + 1):
        items.extend(satake.verify_odd_ses(n))
    items.extend(satake.verify_bgg(max_n))
    return items


def _suite_blocks(max_n: int) -> list[dict]:
    return satake.verify_block_split(max_n)


def _suite_frobenius(max_n: int) -> list[dict]:
    items = []
    for n in range(max_n + 1):
        for m in range(max_n + 1):
            items.extend(equivalence.frobenius_action_check(n, m))
    return items


_SUITE_RUNNERS = {
    "relations": _suite_relations,
    "zigzag": _suite_zigzag,
    "clebsch-gordan": _suite_clebsch,
    "steinberg": _suite_steinberg,
    "bgg": _suite_bgg,
    "blocks": _suite_blocks,
    "frobenius": _suite_frobenius,
}


def cmd_verify(args) -> int:
    if args.max_n < 0:
        raise DomainError("--max must be >= 0")
    if args.max_n > MAX_GUARD and not args.force:
        raise DomainError(
            f"--max {args.max_n} exceeds the guard ({MAX_GUARD}); pass --force "
            "to override"
        )
    if args.suite == "all":
        names = [s for s in SUITES if s != "all"]
    else:
        names = [args.suite]
    items: list[dict] = []
    for name in names:
        for item in _SUITE_RUNNERS[name](args.max_n):
            items.append({**item, "relation": f"{name}: {item['relation']}"})
    failures = [it for it in items if not it["pass"]]
    if args.fmt == "json":
        text = _json_dumps(items) + "\n"
    else:
        lines = []
        for it in items:
            if it["pass"]:
                lines.append(f"PASS {it['relation']}")
            else:
                lines.append(
                    f"FAIL {it['relation']}: lhs={it['lhs']} rhs={it['rhs']}"
                )
        lines.append(
            f"{args.suite}: {len(items)} checks, {len(failures)} failures"
        )
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return 1 if failures else 0


_COMMANDS = {
    "char": cmd_char,
    "jh": cmd_jh,
    "verify": cmd_verify,
    "homdim": cmd_homdim,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _COMMANDS[args.command](args)
    except (DomainError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
