"""Exact computational engine for the signed character calculus, quantum sl2
at a primitive fourth root of unity, and the zigzag-algebra comparison."""

__version__ = "0.1.0"
