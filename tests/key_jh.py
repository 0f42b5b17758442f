"""The per-key Jordan-Holder routine, kept as a reference for the strip
routine ``characters._triangular_jh`` that replaced it."""

from __future__ import annotations

from collections import Counter

from qsatake.characters import _CHAINS
from qsatake.errors import NotACharacterError


def reference_key_jh(mults: dict, signed: bool) -> Counter:
    """Invert the unitriangular matrix of simple characters key by key, over
    (weight, sign) keys if ``signed``, else weights.

    The simple character led by a key K is multiplicity-free on its chain K,
    below(K), ..., bottom(K) (see ``_CHAINS``), and bottom(K), its mirror,
    has weight -weight(K).  So the simple led by a key K of weight >= 0 has
    multiplicity mults[K] - mults[above(K)], and a key of negative weight
    must have the multiplicity of its mirror.  Leading-key elimination breaks
    at the largest link (a key of ``mults``, or the below or bottom of one of
    weight >= 0) where this residual is negative, or nonzero at negative
    weight; that link and residual raise.

    Only the keys of weight >= 0 are scanned, from the largest down.  Each
    one K of weight > 0 also checks its below and bottom: either, if absent,
    breaks with residual -mults[K], and the bottom B, if present, has
    residual mults[B] - mults[K].  (The below of a key of weight 0 is the
    bottom of the key above it if that is a key, and holds otherwise.)
    Bottoms are distinct, so when nothing breaks and there are as many keys
    of negative weight as bottoms, each of them is a bottom that holds.
    Otherwise a key of negative weight that is no bottom has no mirror, and
    its multiplicity is its residual.
    """
    get = mults.get
    out: Counter = Counter()
    broken = {}  # link: residual, for each link that breaks its rule
    bottoms = []
    keys = sorted(mults, reverse=True)
    nonnegative = 0
    for key in keys:
        if signed:
            w, sign = key
            step, turn = _CHAINS[w & 1]
            sign = turn[sign]
            above, below, bottom = (w + step, sign), (w - step, sign), (-w, sign)
        else:
            w = key
            step = _CHAINS[w & 1][0]
            above, below, bottom = w + step, w - step, -w
        if w < 0:
            break
        nonnegative += 1
        c = mults[key]
        mult = c - get(above, 0)
        if mult > 0:
            out[key] = mult
        elif mult:
            broken[key] = mult
        if w:
            bottoms.append(bottom)
            if below not in mults:
                broken[below] = -c
            residual = get(bottom, 0) - c
            if residual:
                broken[bottom] = residual
    if not broken and len(keys) - nonnegative == len(bottoms):
        return out
    mirrored = set(bottoms)
    for key in keys[nonnegative:]:
        if key not in mirrored:
            broken[key] = mults[key]
    key = max(broken)
    raise NotACharacterError(f"multiplicity {broken[key]} at {key}: not a character")
