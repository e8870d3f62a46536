"""Benchmark-scale reproductions of the paper's tables and figures.

Making this directory a package lets the figure benchmarks use relative
imports (``from .figure_utils import ...``) under plain ``python -m pytest``
from the repository root — pytest then imports them as ``benchmarks.test_*``
instead of top-level modules with no parent package.
"""
