"""Command-line front end.

Commands: ``char`` and ``jh`` print character-level data for one labelled
object, ``homdim`` prints one quantum Hom dimension, and ``verify`` runs a
named verification suite to a truncation bound.  Output is deterministic
(byte-identical across runs); exit codes are 0 for success, 1 for a
verification failure, 2 for usage errors.  ``verify`` writes its report in
pieces of about 64 KiB as its suite yields the items, so no report is held
whole in memory, and a run of items that share lhs, rhs and pass with one
join.

A process loads only what its command runs.  ``main`` reads a plain command
line itself (``_plain_args``) and hands any other line, help and errors
included, to the argparse parser of ``build_parser``, the one source of usage,
help and error text.  JSON is written with the escaper of the C module
``_json`` (``_json_quote``), so the ``json`` package is imported only where
that module is missing.  Each command or suite imports the modules it runs
(``modtools``, ``zigzag``, ``equivalence``) when it runs.

``main`` returns the exit code and never ends the process; ``run``, the
process entry point, ends it with ``os._exit`` once the output is flushed.
"""

from __future__ import annotations

import errno
import os
import sys
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence
from types import SimpleNamespace

from . import satake
from .characters import display_order
from .errors import DomainError, VerificationError

MAX_GUARD = 24


def build_parser():
    """The argparse parser, used only for lines ``_plain_args`` does not read.

    It is the one source of usage, help and error text.  Its positionals come
    from ``_POSITIONALS``, so both readers take the same grammar.
    """
    import argparse  # here only: a plain command line never loads it

    parser = argparse.ArgumentParser(
        prog="qsatake",
        description=(
            "Exact signed-character calculus, quantum sl2 at q = i, and the "
            "zigzag-algebra comparison engine."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text in (
        ("char", "print the signed character of one object"),
        ("jh", "print the Jordan-Holder multiset of one object"),
        ("verify", "run a verification suite"),
        ("homdim", "dim Hom(P(a), P(b)) between quantum projectives"),
    ):
        p = sub.add_parser(command, help=help_text)
        for dest, choices in _POSITIONALS[command]:
            if choices is int:
                p.add_argument(dest, type=int)
            else:
                p.add_argument(dest, choices=choices)
        if command == "verify":
            p.add_argument(
                "--max",
                type=int,
                default=6,
                dest="max_n",
                help=f"truncation bound (default 6, capped at {MAX_GUARD})",
            )
            p.add_argument(
                "--force",
                action="store_true",
                help=f"allow truncations above {MAX_GUARD} (runtimes grow quickly)",
            )
        p.add_argument("--format", choices=_FORMATS, default="text", dest="fmt")
        p.add_argument("--output", default=None, help="write the report to a file")
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
    if "\0" in output:  # os.path reads it as missing; open() raises ValueError
        fault = errno.EINVAL
    elif os.path.exists(output):
        fault = 0 if os.access(output, os.W_OK) else errno.EACCES
    elif not output:  # open("") fails, however writable "." is
        fault = errno.ENOENT
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


def _json_quote() -> Callable[[str], str]:
    """JSON's escaper: a str as an ASCII JSON string literal.

    It is ``_json.encode_basestring_ascii``, the C function ``json.encoder``
    itself uses, imported here so that text output loads neither it nor the
    ``json`` package, whose decoder compiles regular expressions on import.
    """
    try:
        from _json import encode_basestring_ascii
    except ImportError:  # an interpreter built without the C accelerator
        from json.encoder import encode_basestring_ascii
    return encode_basestring_ascii


def _to_json(value, quote: Callable[[str], str]) -> str:
    """``json.dumps(value, separators=(",", ":"))`` for dicts with str keys,
    lists, strs and ints; any other type, bool included, raises TypeError."""
    kind = type(value)
    if kind is str:
        return quote(value)
    if kind is int:
        return str(value)
    if kind is list:
        return "[" + ",".join([_to_json(v, quote) for v in value]) + "]"
    if kind is dict:
        items = [f"{quote(k)}:{_to_json(v, quote)}" for k, v in value.items()]
        return "{" + ",".join(items) + "}"
    raise TypeError(f"cannot write a {kind.__name__} as JSON")


def _emit_one(args, value, text: str) -> int:
    """Write one result: ``value`` as compact JSON, or ``text``."""
    if args.fmt == "json":
        text = _to_json(value, _json_quote())
    _emit((text, "\n"), args.output)
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
    from . import modtools

    dim = len(modtools.hom(modtools.projective(args.a), modtools.projective(args.b)))
    return _emit_one(args, {"a": args.a, "b": args.b, "dim": dim}, str(dim))


def _suite_relations(max_n: int) -> Iterator[dict]:
    from . import zigzag

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
    from . import equivalence

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
    from . import equivalence

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
# ``verify`` hands its report to ``_emit`` in pieces of about this many
# characters: a write per item costs about as much as formatting it.
_PIECE = 1 << 16


def _format_run(
    relation: str,
    tails: Sequence[str] | None,
    item: dict,
    quote: Callable[[str], str] | None,
) -> str:
    """The report lines of a run: one item per entry of ``tails``, each
    with the relation ``relation + tail`` and ``item``'s lhs, rhs and pass,
    or the single item with the relation ``relation`` when ``tails`` is None.

    ``quote`` is None for text, or JSON's ``encode_basestring_ascii``.  A
    single item is formatted directly.  A run is one ``str.join`` of its
    tails between a head, the relation up to its tail, and an end, the rest
    of the line.  Escaping works character by character, so a JSON relation
    is the escaped head followed by the escaped tail; a tail is escaped on
    its own only when some tail needs escaping at all.
    """
    ok = item["pass"]
    if tails is None:
        if quote is None:
            if ok:
                return f"PASS {relation}\n"
            return f"FAIL {relation}: lhs={item['lhs']} rhs={item['rhs']}\n"
        return (
            f'{{"relation":{quote(relation)},"lhs":{quote(item["lhs"])},'
            f'"rhs":{quote(item["rhs"])},"pass":{"true" if ok else "false"}}}'
        )
    if quote is None:
        if ok:
            head, end = f"PASS {relation}", "\n"
        else:
            head, end = f"FAIL {relation}", f": lhs={item['lhs']} rhs={item['rhs']}\n"
        return head + (end + head).join(tails) + end
    body = "".join(tails)
    if len(quote(body)) != len(body) + 2:
        tails = [quote(tail)[1:-1] for tail in tails]
    head = f'{{"relation":{quote(relation)[:-1]}'
    end = (
        f'","lhs":{quote(item["lhs"])},"rhs":{quote(item["rhs"])},'
        f'"pass":{"true" if ok else "false"}}}'
    )
    return head + (end + "," + head).join(tails) + end


def cmd_verify(args) -> int:
    """Write the report as the suites yield its items: PASS/FAIL lines and a
    summary, or the bytes of ``json.dumps(items, separators=(",", ":"))``.

    An item with a ``"run"`` key stands for one item per entry of it (see
    ``_format_run``) and counts as that many checks."""
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
        quote = None
        piece = []  # formatted items not yet handed to _emit
        size = 0  # their length
        sep = ""  # before the next item: "," once a JSON item is written
        if as_json:
            quote = _json_quote()
            piece.append("[")
        for name in names:
            for item in _SUITE_RUNNERS[name](args.max_n):
                tails = item.get("run")
                count = 1 if tails is None else len(tails)
                checks += count
                failures += 0 if item["pass"] else count
                relation = f"{name}: {item['relation']}"
                text = sep + _format_run(relation, tails, item, quote)
                piece.append(text)
                size += len(text)
                if size >= _PIECE:
                    yield "".join(piece)
                    piece.clear()
                    size = 0
                if as_json:
                    sep = ","
        if as_json:
            piece.append("]\n")
        else:
            piece.append(f"{args.suite}: {checks} checks, {failures} failures\n")
        yield "".join(piece)

    _emit(report(), args.output)
    return 1 if failures else 0


_COMMANDS = {
    "char": cmd_char,
    "jh": cmd_jh,
    "verify": cmd_verify,
    "homdim": cmd_homdim,
}


_FORMATS = ("text", "json")
_SIGNS = ("+", "-")
# Each command's positionals in order, as (dest, choices), with ``int`` in
# place of choices for an integer: the grammar ``build_parser`` and
# ``_plain_args`` share.
_POSITIONALS = {
    "char": (("kind", satake.KINDS), ("n", int), ("sign", _SIGNS)),
    "jh": (("kind", satake.KINDS), ("n", int), ("sign", _SIGNS)),
    "verify": (("suite", SUITES),),
    "homdim": (("a", int), ("b", int)),
}
# The options ``_plain_args`` reads that take a value, as (dest, choices),
# with None for any string; ``verify`` also takes ``--max`` and ``--force``.
_OPTIONS = {"--format": ("fmt", _FORMATS), "--output": ("output", None)}
_VERIFY_OPTIONS = {**_OPTIONS, "--max": ("max_n", int)}


def _plain_args(argv: Sequence[str]) -> SimpleNamespace | None:
    """``argv`` read as argparse reads it, if it is a plain command line;
    otherwise None, and ``build_parser`` reads it.

    A plain line is a command word, then its positionals and, in any order,
    the exact options ``--format text|json`` and ``--output PATH``, and for
    ``verify`` ``--max INT`` and ``--force``, each value its own token.  A
    lone ``-`` is a positional, as for argparse.  Any other token that starts
    with ``-`` (help, ``--opt=value``, an abbreviation, a negative number,
    ``--``) and every line argparse would reject give None, so argparse alone
    writes usage, help and errors.  The result has the attributes, and the
    defaults, of argparse's namespace for the same line.
    """
    grammar = _POSITIONALS.get(argv[0]) if argv else None
    if grammar is None:
        return None
    verify = argv[0] == "verify"
    options = _VERIFY_OPTIONS if verify else _OPTIONS
    values = {"command": argv[0], "fmt": "text", "output": None}
    if verify:
        values.update(max_n=6, force=False)
    positionals, settings = [], []
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-" or token == "-":
            positionals.append(token)
        elif token == "--force" and verify:
            values["force"] = True
        elif token in options:
            value = next(tokens, None)
            if value is None or (value[:1] == "-" and value != "-"):
                return None
            settings.append((options[token], value))
        else:
            return None
    if len(positionals) != len(grammar):
        return None
    for (dest, choices), token in [*zip(grammar, positionals), *settings]:
        if choices is int:
            try:
                token = int(token)
            except ValueError:
                return None
        elif choices is not None and token not in choices:
            return None
        values[dest] = token
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
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
