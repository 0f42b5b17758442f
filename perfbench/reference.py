"""Fixed reference program that measures how fast the host runs Python now.

``run.py`` runs it in a fresh interpreter next to the benchmark's own
invocations and rescales their times by it.  It uses only the standard
library and the kind of work the package does (``Fraction`` arithmetic,
small dicts and tuples), so a host that slows the package slows it too.
Every recorded time is in units of this program: changing it changes the
benchmark.
"""

from fractions import Fraction

table = {}
x = Fraction(1, 3)
for i in range(5000):
    x = x * Fraction(i % 7 + 1, i % 5 + 2) + Fraction(1, i + 1)
    x = Fraction(x.numerator % 1000003, x.denominator % 999983 + 1)
    table[i % 61] = (x, i)
