from __future__ import annotations

import json
from pathlib import Path

import pytest

from qsatake.equivalence import HomQuiver
from qsatake.linalg import QMatrix

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def schemas() -> dict:
    out = {}
    for path in (REPO_ROOT / "schemas").glob("*.schema.json"):
        out[path.name.split(".")[0]] = json.loads(path.read_text(encoding="utf-8"))
    return out


@pytest.fixture
def with_doubled_arrow():
    """A function taking a quiver to a copy whose arrow P(0) -> P(2) has its
    entry-th nonzero entry (row-major) doubled."""

    def corrupt(hq: HomQuiver, entry: int = 0) -> HomQuiver:
        arrow = hq.hom(0, 1)[0]
        i, j, v = list(arrow.nonzero_entries())[entry]
        bumped = arrow + QMatrix(arrow.rows, arrow.cols, {i: {j: v}})
        homs = [list(row) for row in hq.homs]
        homs[0][1] = (bumped,)
        return HomQuiver(hq.n, hq.modules, tuple(tuple(row) for row in homs))

    return corrupt
