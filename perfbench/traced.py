"""Traced child: run one ``qsatake`` CLI invocation with layer spans installed.

Usage: ``python3 perfbench/traced.py SPANS_FILE ARG...`` with ``src`` on
``PYTHONPATH``.  It wraps the public functions of each layer from outside the
package, calls ``qsatake.cli.main(ARG...)`` in this process, and at exit writes
the spans and scalar counts it held in memory to ``SPANS_FILE`` as JSON.
Standard output is the CLI's own, byte for byte, so the caller can check it
against the same golden digest as an untraced run.  If a traced function is
no longer defined where the span table says, it exits 3 without running the
CLI, so a renamed or moved layer fails the traced run instead of reading 0.

A span is ``[name, start, end, parent, attrs]``: ``parent`` is the index of the
enclosing span (-1 at the top) and ``attrs`` holds the counts measured at that
boundary.  Scalar operations are too many for spans and are only counted.

``layer_metrics`` turns the dumps of one pass into the per-layer metrics.
"""

from __future__ import annotations

import json
import sys
import time

# Each span name is defined by functions of the package, given as (module,
# attribute).  ``install`` replaces every reference to them in every loaded
# ``qsatake`` module, so from-imports, present or added later, are wrapped too.
SPANNED = {
    "cli": [],  # the call of cli.main below
    "linalg.reduce_rows": [("linalg", "reduce_rows")],
    "linalg.kronecker": [("linalg", "kronecker")],
    "linalg.solve_matrix": [("linalg", "solve_matrix")],
    "qsl2.intertwiner_basis": [("qsl2", "intertwiner_basis")],
    "qsl2.tensor": [("qsl2", "tensor")],
    "modtools.hom": [("modtools", "hom")],
    "modtools.coords_in_basis": [("modtools", "coords_in_basis")],
    "modtools.jh": [("modtools", "jh")],
    "equivalence.hom_quiver": [("equivalence", "hom_quiver")],
    "equivalence.gauge_fix": [("equivalence", "gauge_fix")],
    "equivalence.compare_zigzag": [("equivalence", "compare_zigzag")],
    "equivalence.frobenius_action_check": [("equivalence", "frobenius_action_check")],
    "zigzag.verify_algebra": [("zigzag", "verify_algebra")],
    "characters.conv": [("characters", "conv")],
    "characters.jh_decompose": [("characters", "jh_decompose")],
    "satake.verify": [
        ("satake", name)
        for name in (
            "verify_odd_ses",
            "verify_bgg",
            "verify_block_split",
            "verify_steinberg",
            "verify_clebsch_gordan",
        )
    ],
}
# Dunder methods are looked up on the class, so these are patched there.
SPANNED_METHODS = {
    "linalg.matmul": ("linalg", "QMatrix", "__matmul__"),
    "linalg.add": ("linalg", "QMatrix", "__add__"),
}
# Subtraction counts as an addition; __rsub__ is -self + other and counts there.
COUNTED_METHODS = {
    "scalars.mul": ("__mul__", "__rmul__"),
    "scalars.add": ("__add__", "__radd__", "__sub__"),
    "scalars.inverse": ("inverse",),
}


def _weight_pairs(m, n) -> int:
    """Unknowns of an intertwiner system: weight-matched entries of X."""
    mult: dict[int, int] = {}
    for w in m.weights:
        mult[w] = mult.get(w, 0) + 1
    return sum(mult.get(w, 0) for w in n.weights)


def _reduce_rows_attrs(args, pivots) -> dict:
    rows = args[0]
    return {"rows_in": len(rows), "nnz_in": sum(map(len, rows)), "pivots": len(pivots)}


ATTRS = {
    "linalg.reduce_rows": _reduce_rows_attrs,
    "qsl2.intertwiner_basis": lambda args, _: {"unknowns": _weight_pairs(*args)},
    "qsl2.tensor": lambda args, _: {"out_dim": args[0].dim * args[1].dim},
    "zigzag.verify_algebra": lambda _, report: {"checks": report["checks"]},
}


class MissingLayer(Exception):
    """A traced function is not where the span table says it is defined."""


class Tracer:
    """Spans and counts of one process, kept in memory until ``dump``."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts = {name: 0 for name in COUNTED_METHODS}

    def span(self, name: str, fn):
        attrs = ATTRS.get(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(record)
            stack.append(sid)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if attrs is not None:
                record[4] = attrs(args, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    def install(self) -> None:
        """Patch every traced function and method of the package.

        Raises ``MissingLayer``, before patching anything, if one of them is
        not defined where ``SPANNED``, ``SPANNED_METHODS`` or
        ``COUNTED_METHODS`` says: a renamed layer must fail the traced run
        rather than read 0.
        """
        import importlib
        import pkgutil

        import qsatake

        for info in pkgutil.iter_modules(qsatake.__path__):
            importlib.import_module(f"qsatake.{info.name}")

        def defined(short, attr, cls_name=None):
            owner = sys.modules.get(f"qsatake.{short}")
            where = f"qsatake.{short}"
            if cls_name is not None:
                owner, where = getattr(owner, cls_name, None), f"{where}.{cls_name}"
            fn = vars(owner).get(attr) if owner is not None else None
            if not callable(fn):
                raise MissingLayer(f"{where}.{attr} is not defined")
            return owner, fn

        functions = [
            (name, defined(short, attr)[1])
            for name, sites in SPANNED.items()
            for short, attr in sites
        ]
        methods = [
            (name, attr, *defined(short, attr, cls_name))
            for name, (short, cls_name, attr) in SPANNED_METHODS.items()
        ]
        counted = [
            (name, attr, *defined("scalars", attr, "GaussianRational"))
            for name, attrs in COUNTED_METHODS.items()
            for attr in attrs
        ]

        wrappers = {id(fn): (fn, self.span(name, fn)) for name, fn in functions}
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "qsatake" and not mod_name.startswith("qsatake."):
                continue
            for attr, value in list(vars(mod).items()):
                fn, wrapper = wrappers.get(id(value), (None, None))
                if fn is value:
                    setattr(mod, attr, wrapper)
        for name, attr, cls, fn in methods:
            setattr(cls, attr, self.span(name, fn))
        for name, attr, cls, fn in counted:
            setattr(cls, attr, self.counter(name, fn))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def layer_metrics(dumps: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one pass, summed over its invocations' dumps.

    ``self_s`` is a span's duration minus that of its direct children.  A
    ``modtools.hom`` call is a hit when it has no ``qsl2.intertwiner_basis``
    child, so the ratio does not depend on how the cache is written.
    """
    names = list(SPANNED) + list(SPANNED_METHODS)
    calls = dict.fromkeys(names, 0)
    self_s = dict.fromkeys(names, 0.0)
    attrs: dict[str, int] = {}
    counts = dict.fromkeys(COUNTED_METHODS, 0)
    hom_hits = equations = 0
    for dump in dumps:
        spans = dump["spans"]
        child_s = [0.0] * len(spans)
        solved = set()
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
                if name == "qsl2.intertwiner_basis":
                    solved.add(parent)
        for sid, (name, start, end, parent, extra) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - child_s[sid]
            for key, value in (extra or {}).items():
                attrs[f"{name}.{key}"] = attrs.get(f"{name}.{key}", 0) + value
            if name == "modtools.hom":
                hom_hits += sid not in solved
            if (
                name == "linalg.reduce_rows"
                and parent >= 0
                and spans[parent][0] == "qsl2.intertwiner_basis"
            ):
                equations += extra["rows_in"]
        for name, value in dump["counts"].items():
            counts[name] += value

    rows_in = attrs.get("linalg.reduce_rows.rows_in", 0)
    out = dict(counts)
    for name in names:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for key in (
        "linalg.reduce_rows.rows_in",
        "linalg.reduce_rows.nnz_in",
        "linalg.reduce_rows.pivots",
        "qsl2.intertwiner_basis.unknowns",
        "qsl2.tensor.out_dim",
        "zigzag.verify_algebra.checks",
    ):
        out[key] = attrs.get(key, 0)
    out["linalg.reduce_rows.pivot_ratio"] = (
        out["linalg.reduce_rows.pivots"] / rows_in if rows_in else 0.0
    )
    out["qsl2.intertwiner_basis.equations"] = equations
    hom_calls = calls["modtools.hom"]
    out["modtools.hom.hit_ratio"] = hom_hits / hom_calls if hom_calls else 0.0
    return out


def main(argv: list[str]) -> int:
    spans_file, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    try:
        tracer.install()
    except MissingLayer as exc:
        sys.stderr.write(f"traced.py: {exc}; update the span table\n")
        return 3
    from qsatake import cli

    try:
        return tracer.span("cli", cli.main)(cli_args)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
