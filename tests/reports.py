"""Report helpers for the tests: runs expanded into items, and the per-item
rendering that ``verify`` writes."""

from __future__ import annotations

import json
from collections.abc import Iterable


def expand_runs(items: Iterable[dict]) -> list[dict]:
    """The report items with every run replaced by the items it stands for,
    in order; a run must not be empty."""
    out = []
    for item in items:
        tails = item.get("run")
        if tails is None:
            out.append(item)
            continue
        assert len(tails) > 0, f"empty run {item['relation']!r}"
        rest = {key: item[key] for key in ("lhs", "rhs", "pass")}
        out.extend({"relation": item["relation"] + tail, **rest} for tail in tails)
    return out


def render_items(suite: str, items: Iterable[dict], fmt: str) -> str:
    """The bytes of ``verify SUITE`` for ``items``, written one by one: PASS and
    FAIL lines with the summary, or the compact JSON list."""
    items = [
        {**item, "relation": f"{suite}: {item['relation']}"}
        for item in expand_runs(items)
    ]
    if fmt == "json":
        return json.dumps(items, separators=(",", ":")) + "\n"
    lines = [
        f"PASS {item['relation']}\n"
        if item["pass"]
        else f"FAIL {item['relation']}: lhs={item['lhs']} rhs={item['rhs']}\n"
        for item in items
    ]
    failures = sum(not item["pass"] for item in items)
    return "".join(lines) + f"{suite}: {len(items)} checks, {failures} failures\n"
