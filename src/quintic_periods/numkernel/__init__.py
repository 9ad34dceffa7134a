"""Numeric kernel: polynomials, roots, residues, expression parsing.

The package namespace holds the names the rest of the library imports from
it; everything else is imported from its module (``numkernel.residues``,
``numkernel.roots``, ``numkernel.parser``, ``numkernel.unipoly``).
"""

from .parser import parse_expression
from .unipoly import BinaryForm, UniPoly

__all__ = ["BinaryForm", "UniPoly", "parse_expression"]
