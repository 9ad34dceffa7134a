"""Numeric kernel: polynomials, roots, residues, expression parsing."""

from .parser import (
    Expr,
    continued_root5,
    differentiate,
    eval_on_path,
    evaluate,
    expr_to_multipoly,
    parse_expression,
)
from .residues import (
    QUAD_NODES,
    PoleSite,
    RationalFunction,
    ZeroResidueSum,
    ZeroSiteReport,
    quadrature_radius,
    residue_analytic,
    residue_at_infinity_analytic,
    residue_quadrature,
    residue_sum_check,
    residues_at_zeros,
)
from .roots import poly_roots
from .unipoly import BinaryForm, UniPoly

__all__ = [
    "BinaryForm",
    "QUAD_NODES",
    "Expr",
    "PoleSite",
    "RationalFunction",
    "UniPoly",
    "ZeroResidueSum",
    "ZeroSiteReport",
    "continued_root5",
    "differentiate",
    "eval_on_path",
    "evaluate",
    "expr_to_multipoly",
    "parse_expression",
    "poly_roots",
    "quadrature_radius",
    "residue_analytic",
    "residue_at_infinity_analytic",
    "residue_quadrature",
    "residue_sum_check",
    "residues_at_zeros",
]
