"""Command-line front end.

Commands: ``char`` and ``jh`` print character-level data for one labelled
object, ``homdim`` prints one quantum Hom dimension, and ``verify`` runs a
named verification suite to a truncation bound.  Output is deterministic
(byte-identical across runs); exit codes are 0 for success, 1 for a
verification failure, 2 for usage errors.  ``verify`` writes each report item
as its suite yields it, so no report is held whole in memory, and a run of
items that share lhs, rhs and pass with one join.

``main`` returns the exit code and never ends the process; ``run``, the
process entry point, ends it with ``os._exit`` once the output is flushed.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from json.encoder import encode_basestring_ascii as _quote

from . import equivalence, modtools, satake, zigzag
from .characters import display_order
from .errors import DomainError, VerificationError

MAX_GUARD = 24
_JSON = json.JSONEncoder(separators=(",", ":"))


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


def _emit(chunks: Iterable[str], output: str | None) -> None:
    """Write the strings of ``chunks`` to stdout, or to the file ``output``.

    A target that cannot be written fails, naming ``output``, before
    ``chunks`` is read.  The report is staged in an anonymous temporary file
    and copied through ``open(output, "w")`` once ``chunks`` is exhausted, so
    a run that raises or is killed before then leaves ``output`` as it was,
    and a file, symlink, device or pipe is written as ``open`` writes it.
    The copy is not atomic: if it fails, ``output`` may be partly written.
    A closed stdout fails the same way, before ``chunks`` is read.  Stdout is
    flushed before returning, so a failed write of the report's tail raises
    here too.
    """
    if output is None:
        if sys.stdout is None:  # fd 1 was closed when the interpreter started
            raise OSError(errno.EBADF, "standard output is closed")
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
        return
    if os.path.isdir(output):
        raise IsADirectoryError(f"is a directory: {output!r}")
    if os.path.exists(output):
        fault = 0 if os.access(output, os.W_OK) else errno.EACCES
    else:
        # A dangling symlink stays: the new file is made where it points.
        target = os.path.realpath(output) if os.path.islink(output) else output
        head = os.path.dirname(target) or "."
        if not os.path.isdir(head):
            fault = errno.ENOTDIR if os.path.exists(head) else errno.ENOENT
        else:
            fault = 0 if os.access(head, os.W_OK | os.X_OK) else errno.EACCES
    if fault:
        raise OSError(fault, os.strerror(fault), output)
    import shutil  # here only, to keep both off every other start-up
    import tempfile

    # newline="" reads a "\r" of the report back as it was written.
    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as stage:
        stage.writelines(chunks)
        stage.seek(0)
        with open(output, "w", encoding="utf-8") as fh:
            shutil.copyfileobj(stage, fh)


def _jh_items(multiset: Counter) -> list[dict]:
    return [
        {"n": n, "sign": sign, "mult": multiset[(n, sign)]}
        for n, sign in display_order(multiset)
    ]


def _emit_one(args, value, text: str) -> int:
    """Write one result: ``value`` as compact JSON, or ``text``."""
    _emit((_JSON.encode(value) if args.fmt == "json" else text, "\n"), args.output)
    return 0


def cmd_char(args) -> int:
    character = satake.formal(args.kind, args.n, args.sign).character
    return _emit_one(args, character.to_json_dict(), str(character))


def cmd_jh(args) -> int:
    jh = satake.formal(args.kind, args.n, args.sign).jh
    return _emit_one(args, _jh_items(jh), satake.format_multiset(jh))


def cmd_homdim(args) -> int:
    for label in (args.a, args.b):
        if label < 0 or label % 2 != 0 or label > 2 * MAX_GUARD:
            raise DomainError(
                f"homdim labels must be even in 0..{2 * MAX_GUARD}, got {label}"
            )
    dim = len(modtools.hom(modtools.projective(args.a), modtools.projective(args.b)))
    return _emit_one(args, {"a": args.a, "b": args.b, "dim": dim}, str(dim))


def _suite_relations(max_n: int) -> Iterator[dict]:
    for n in range(max_n + 1):
        report = zigzag.verify_algebra(zigzag.make(n))
        yield {
            "relation": f"zigzag algebra N={n} invariants ({report['checks']} checks)",
            "lhs": f"{len(report['violations'])} violations",
            "rhs": "0 violations",
            "pass": not report["violations"],
        }
        yield from report["violations"]


def _suite_zigzag(max_n: int) -> Iterator[dict]:
    """Truncations N = 0..max_n in order.  Each quiver extends the one of
    N - 1, so every Hom space is solved once, and each gauge extends the one
    of N - 1 when ``gauge_fix`` finds its quiver unchanged.  After a failure
    the next truncation starts from scratch."""
    prev = None  # (quiver, gauge) of N - 1, if both were built
    for n in range(max_n + 1):
        try:
            hq = equivalence.hom_quiver(n, prev[0] if prev else None)
        except VerificationError as exc:
            yield _failed(f"N={n}: hom dimension pattern", exc, "2/1/0 pattern")
            prev = None
            continue
        yield {
            "relation": f"N={n}: hom dimension pattern",
            "lhs": str(hq.dim_matrix()),
            "rhs": "2/1/0 pattern",
            "pass": True,
        }
        try:
            gauge = equivalence.gauge_fix(hq, prev)
            compared = equivalence.compare_zigzag(hq, gauge)
        except VerificationError as exc:
            yield _failed(f"N={n}: gauge fixing", exc, "zigzag generators")
            prev = None
            continue
        prev = (hq, gauge)
        for item in compared:  # fresh dicts, relabelled in place (a run's head)
            item["relation"] = f"N={n}: {item['relation']}"
            yield item


def _failed(relation: str, exc: VerificationError, rhs: str) -> dict:
    return {"relation": relation, "lhs": str(exc), "rhs": rhs, "pass": False}


def _suite_clebsch(max_n: int) -> Iterator[dict]:
    for n in range(max_n + 1):
        for m in range(max_n + 1):
            yield from satake.verify_clebsch_gordan(n, m)


def _suite_steinberg(max_n: int) -> Iterator[dict]:
    for n in range(max_n + 1):
        yield from satake.verify_steinberg(n)


def _suite_blocks(max_n: int) -> Iterator[dict]:
    # Looked up at each call, so a wrapper installed on the attribute (as the
    # benchmark's tracer does) is the one that runs.
    yield from satake.verify_block_split(max_n)


def _suite_bgg(max_n: int) -> Iterator[dict]:
    for n in range(1, max_n + 1):
        yield from satake.verify_odd_ses(n)
    yield from satake.verify_bgg(max_n)


def _suite_frobenius(max_n: int) -> Iterator[dict]:
    for n in range(max_n + 1):
        for m in range(max_n + 1):
            yield from equivalence.frobenius_action_check(n, m)


# Each runner maps the truncation bound to an iterable of report items, in the
# order ``verify all`` runs them.
_SUITE_RUNNERS = {
    "zigzag": _suite_zigzag,
    "clebsch-gordan": _suite_clebsch,
    "steinberg": _suite_steinberg,
    "bgg": _suite_bgg,
    "blocks": _suite_blocks,
    "relations": _suite_relations,
    "frobenius": _suite_frobenius,
}
SUITES = (*_SUITE_RUNNERS, "all")
_SINGLE = ("",)


def _format_run(
    relation: str, tails: Sequence[str], item: dict, sep: str | None
) -> str:
    """The report lines of a run: one item per entry of ``tails``, each
    with the relation ``relation + tail`` and ``item``'s lhs, rhs and pass.
    A single item is the run with the one tail "".

    ``sep`` is None for text, or the JSON separator before the first item.
    Each form is one ``str.join``.  Escaping works character by character,
    so a JSON relation is the escaped head followed by the escaped tail; a
    tail is escaped on its own only when some tail needs escaping at all.
    """
    ok = item["pass"]
    if sep is None:
        if ok:
            head, end = f"PASS {relation}", "\n"
        else:
            head, end = f"FAIL {relation}", f": lhs={item['lhs']} rhs={item['rhs']}\n"
        return head + (end + head).join(tails) + end
    body = "".join(tails)
    if len(_quote(body)) != len(body) + 2:
        tails = [_quote(tail)[1:-1] for tail in tails]
    head = f'{{"relation":{_quote(relation)[:-1]}'
    end = (
        f'","lhs":{_quote(item["lhs"])},"rhs":{_quote(item["rhs"])},'
        f'"pass":{"true" if ok else "false"}}}'
    )
    return sep + head + (end + "," + head).join(tails) + end


def cmd_verify(args) -> int:
    """Write the report as the suites yield its items: PASS/FAIL lines and a
    summary, or the bytes of ``json.dumps(items, separators=(",", ":"))``.

    An item with a ``"run"`` key stands for one item per entry of it (see
    ``_format_run``) and counts as that many checks; any other item is a run
    with the one tail ""."""
    if args.max_n < 0:
        raise DomainError("--max must be >= 0")
    if args.max_n > MAX_GUARD and not args.force:
        raise DomainError(
            f"--max {args.max_n} exceeds the guard ({MAX_GUARD}); pass --force "
            "to override"
        )
    names = _SUITE_RUNNERS if args.suite == "all" else (args.suite,)
    as_json = args.fmt == "json"
    checks = failures = 0

    def report() -> Iterator[str]:
        nonlocal checks, failures
        sep = ""
        if as_json:
            yield "["
        for name in names:
            for item in _SUITE_RUNNERS[name](args.max_n):
                tails = item.get("run", _SINGLE)
                checks += len(tails)
                failures += 0 if item["pass"] else len(tails)
                relation = f"{name}: {item['relation']}"
                yield _format_run(relation, tails, item, sep if as_json else None)
                sep = ","
        if as_json:
            yield "]\n"
        else:
            yield f"{args.suite}: {checks} checks, {failures} failures\n"

    _emit(report(), args.output)
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
        try:
            sys.stderr.write(f"error: {exc}\n")
        except (AttributeError, OSError):  # stderr is closed (None) or unwritable
            pass
        return 2


def run() -> None:
    """Process entry point: exit with ``main()``'s code, skipping the
    interpreter's teardown of modules and caches.

    ``main`` has written the report and closed any ``--output`` file; what
    is left buffered (argparse's help, or the tail of a write that ``main``
    already reported as failed) is flushed, with errors ignored as argparse
    ignores them, and the process ends through ``os._exit``.  Under a
    profiler or tracer the interpreter exits normally, so that it can write
    its results.  An exception from ``main`` propagates as usual.
    """
    code = main()
    if sys.getprofile() is not None or sys.gettrace() is not None:
        sys.exit(code)
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, OSError):  # closed, or already reported
            pass
    os._exit(code)


if __name__ == "__main__":
    run()
