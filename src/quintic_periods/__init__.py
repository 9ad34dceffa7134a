"""quintic_periods: residue-cocycle periods of first-order curve families.

Library layout:

* :mod:`quintic_periods.numkernel` -- polynomials, root finding, the residue
  engine and its scalar oracle, expression parsing with branch-tracked fifth
  roots;
* :mod:`quintic_periods.multipoly` -- sparse multivariate polynomials;
* :mod:`quintic_periods.geometry`  -- hypersurfaces, curve jets, Moebius
  machinery, containment/tangency residuals;
* :mod:`quintic_periods.griffiths` -- contraction signs and their bruteforce
  oracle, pair wedges, inner factors and numerators;
* :mod:`quintic_periods.period`    -- period assembly, sweeps, closed-form
  comparison, monomial scans;
* :mod:`quintic_periods.catalog`   -- built-in hypersurfaces and the fifty
  line families with corrected and literal modes;
* :mod:`quintic_periods.cli`       -- `quintic-periods` command line.

The names below are the public API.  The scalar residue oracle
(``RationalFunction`` and ``residues_at_zeros`` from ``numkernel.residues``)
is not among them: the tests import it from its module.  On the catalog
lines the acceptance suite checks the period engine against
``LineFamilyDescriptor.monomial_period``, the closed form of every monomial
period there.
"""

from .catalog import (
    ClosedFormRef,
    LineFamilyDescriptor,
    closed_form_g,
    fermat_hypersurface,
    line_families,
    mobius_null_family,
    paper_line_slice,
    shioda_quintic,
)
from .errors import QuinticPeriodsError
from .geometry import (
    CurveFamily,
    CurveJet,
    Hypersurface,
    MobiusMap,
    containment_residual,
    mobius_deformation,
    mobius_reparam,
    smooth_spot_check,
    tangency_residual,
)
from .griffiths import (
    contract_bruteforce,
    contraction_sign,
    j2star,
)
from .multipoly import MultiPoly
from .numkernel import BinaryForm, UniPoly, parse_expression
from .period import compare_closed_form, monomial_scan, period_at, sweep

__version__ = "0.1.0"

__all__ = [
    "BinaryForm",
    "ClosedFormRef",
    "CurveFamily",
    "CurveJet",
    "Hypersurface",
    "LineFamilyDescriptor",
    "MobiusMap",
    "MultiPoly",
    "QuinticPeriodsError",
    "UniPoly",
    "closed_form_g",
    "compare_closed_form",
    "containment_residual",
    "contract_bruteforce",
    "contraction_sign",
    "fermat_hypersurface",
    "j2star",
    "line_families",
    "mobius_deformation",
    "mobius_null_family",
    "mobius_reparam",
    "monomial_scan",
    "paper_line_slice",
    "parse_expression",
    "period_at",
    "shioda_quintic",
    "smooth_spot_check",
    "sweep",
    "tangency_residual",
    "__version__",
]
