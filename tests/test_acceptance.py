"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All arithmetic is exact, so every comparison below is exact equality; the
only tolerances are the stated wall-clock budgets.
"""

from __future__ import annotations

import json
import time
from collections import Counter

from qsatake import cli
from qsatake.characters import (
    SignedCharacter,
    conv,
    jh_decompose,
    sign_twist,
    simple_char,
    standard_char,
    standard_char_from_cells,
)
from qsatake.equivalence import compare_zigzag, frobenius_action_check, hom_quiver
from qsatake.linalg import rank
from qsatake.modtools import (
    hom,
    is_indecomposable_local,
    jh,
    projective,
    socle_dims,
)
from qsatake.qsl2 import (
    canonical_map,
    dual_weyl,
    frobenius_simple,
    integrity_violations,
    intertwiner_basis,
    simple,
    tensor,
    weyl,
)
from qsatake.satake import formal, verify_bgg, verify_odd_ses
from modules import reference_image, reference_restrict_to_span
from reports import expand_runs


def report(number: int, description: str, ok: bool):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{status}] {description}")
    assert ok, f"acceptance criterion {number} failed: {description}"


def oracle_simple(n: int, sign: str) -> SignedCharacter:
    flip = {"+": "-", "-": "+"}
    plus: dict = {}
    minus: dict = {}
    if n % 2 == 0:
        bucket = plus if sign == "+" else minus
        for k in range(n // 2 + 1):
            bucket[n - 4 * k] = 1
    else:
        s = sign
        for k in range(n + 1):
            (plus if s == "+" else minus)[n - 2 * k] = 1
            s = flip[s]
    return SignedCharacter(plus, minus)


def oracle_standard(n: int, sign: str) -> SignedCharacter:
    plus: dict = {n: 1}
    minus: dict = {}
    for w in range(n - 2, -n, -2):
        plus[w] = plus.get(w, 0) + 1
        minus[w] = minus.get(w, 0) + 1
    if n >= 1:
        bucket = minus if n % 2 == 1 else plus
        bucket[-n] = bucket.get(-n, 0) + 1
    built = SignedCharacter(plus, minus)
    return built if sign == "+" else sign_twist(built)


def test_criterion_01_character_formulas():
    start = time.perf_counter()
    ok = True
    for n in range(11):
        for sign in "+-":
            ok = ok and simple_char(n, sign) == oracle_simple(n, sign)
            ok = ok and standard_char(n, sign) == oracle_standard(n, sign)
        ok = ok and standard_char_from_cells(n) == standard_char(n, "+")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report(1, f"closed-form characters and cell derivation, n <= 10 ({elapsed:.3f}s)", ok)


def test_criterion_02_clebsch_gordan():
    start = time.perf_counter()
    ok = True
    for n in range(7):
        for m in range(7):
            got = jh_decompose(conv(simple_char(2 * n, "+"), simple_char(2 * m, "+")))
            want = Counter(
                {(k, "+"): 1 for k in range(2 * (n + m), 2 * abs(n - m) - 1, -4)}
            )
            ok = ok and got == want
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report(2, f"monoidal Clebsch-Gordan decomposition, n, m <= 6 ({elapsed:.3f}s)", ok)


def test_criterion_03_steinberg_convolution():
    ok = True
    for n in range(9):
        got = jh_decompose(conv(simple_char(1, "+"), simple_char(2 * n, "+")))
        ok = ok and got == Counter({(2 * n + 1, "+"): 1})
    report(3, "Steinberg convolution gives odd simples, n <= 8", ok)


def test_criterion_04_odd_ses_and_bgg():
    ok = True
    for n in range(1, 7):
        ok = ok and all(item["pass"] for item in verify_odd_ses(n))
    ok = ok and all(item["pass"] for item in verify_bgg(6))
    # reciprocity on the minus side, via the sign twist of every object
    for n in range(7):
        for sign in "+-":
            filt = Counter(formal("projective", 2 * n + 1, sign).standard_filtration)
            for m in range(2 * n + 6):
                for s in "+-":
                    left = filt.get((m, s), 0)
                    right = formal("costandard", m, s).jh.get((2 * n + 1, sign), 0)
                    want = 1 if s == sign and m in (2 * n + 1, 2 * n + 3) else 0
                    ok = ok and left == right == want
    report(4, "odd short exact sequences and reciprocity, n <= 6, both signs", ok)


def test_criterion_05_block_splitting():
    ok = True
    for n in (1, 3, 5):
        for sign in "+-":
            content = formal("projective", n, sign).jh
            ok = ok and all(s == sign for (_, s) in content)
    mixed = jh_decompose(standard_char(2, "+"))
    ok = ok and mixed == Counter({(2, "+"): 1, (0, "+"): 1, (0, "-"): 1})
    report(5, "odd projectives sign-pure; standard(2)+ mixes signs", ok)


def test_criterion_06_module_integrity():
    ok = True
    singles = []
    for n in range(17):
        singles.extend([weyl(n), dual_weyl(n), simple(n)])
    for m in range(17):
        singles.append(frobenius_simple(m))
    for mod in singles:
        ok = ok and integrity_violations(mod) == []
    generators = (
        [weyl(n) for n in range(7)]
        + [dual_weyl(n) for n in range(5)]
        + [simple(n) for n in range(7)]
        + [frobenius_simple(m) for m in range(5)]
    )
    pairs = 0
    for a in generators:
        for b in generators:
            if a.dim * b.dim <= 50:
                pairs += 1
                ok = ok and integrity_violations(tensor(a, b)) == []
    report(6, f"operator identities on all modules, {pairs} tensor pairs, dim <= 50", ok)


def test_criterion_07_odd_semisimplicity():
    ok = True
    for m in range(7):
        x = canonical_map(2 * m + 1)
        ok = ok and rank(x) == 2 * m + 2
    for m in range(7):
        columns = reference_image(canonical_map(2 * m))
        image = reference_restrict_to_span(dual_weyl(2 * m), columns)
        basis = intertwiner_basis(frobenius_simple(m), image)
        ok = ok and len(basis) == 1 and rank(basis[0]) == m + 1
    report(7, "odd canonical maps invertible; even image = Frobenius pullback, m <= 6", ok)


def test_criterion_08_projectives():
    ok = True
    for a in range(7):
        for b in range(7):
            want = 2 if a == b else (1 if abs(a - b) == 1 else 0)
            ok = ok and len(hom(projective(2 * a), projective(2 * b))) == want
    ok = ok and jh(projective(0)) == Counter({0: 2, 2: 1})
    for n in range(1, 7):
        ok = ok and jh(projective(2 * n)) == Counter(
            {2 * n: 2, 2 * n - 2: 1, 2 * n + 2: 1}
        )
    for n in range(7):
        dims = socle_dims(projective(2 * n), 2 * n + 2)
        ok = ok and dims[2 * n] == 1 and sum(dims.values()) == 1
        ok = ok and len(hom(projective(2 * n), projective(2 * n))) == 2
        ok = ok and is_indecomposable_local(projective(2 * n))
    report(8, "projective Hom pattern, JH content, socles, local End, n <= 6", ok)


def test_criterion_09_main_theorem(tmp_path):
    start = time.perf_counter()
    ok = True
    for n in range(7):
        hq = hom_quiver(n)
        items = expand_runs(compare_zigzag(hq))
        ok = ok and len(items) == (4 * n + 2) ** 2
        ok = ok and all(item["pass"] for item in items)
    out = tmp_path / "verify_all.json"
    code = cli.main(
        ["verify", "all", "--max", "6", "--format", "json", "--output", str(out)]
    )
    items = json.loads(out.read_text(encoding="utf-8"))
    elapsed = time.perf_counter() - start
    ok = ok and code == 0 and all(item["pass"] for item in items)
    ok = ok and elapsed < 600.0
    report(9, f"zigzag comparison exact for N <= 6; verify all ({elapsed:.1f}s < 600s)", ok)


def test_criterion_10_frobenius_compatibility():
    ok = True
    for n in range(6):
        for m in range(6):
            ok = ok and all(item["pass"] for item in frobenius_action_check(n, m))
    report(10, "nearby-cycles/Frobenius action match, n, m <= 5", ok)
