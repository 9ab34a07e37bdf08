"""Exact Laplace-Beltrami spectra of lens spaces via lattice point counting.

The library side: validated lens-space parameters and their symmetry
classes, box-bounded counts, the 1-norm generating function's numerator
by dynamic programming, and N(h) and multiplicity tables read off it,
all in exact integers.  The brute-force enumeration twin lives in
lenslat.oracle (test instrument, not a stable surface); the command
line lives in lenslat.cli.
"""

from .lattice import (
    LensSpace,
    Numerator,
    SubsetMask,
    binom,
    canonical_q_tuples,
    decompose,
    gamma,
    make_lens_space,
    numerator,
)
from .spectra import (
    IsospectralReport,
    ParityRow,
    SpectrumEntry,
    compare_spectra,
    first_positive_eigenvalue,
    multiplicity,
    n_lattice_formula,
    parity_report,
    spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "IsospectralReport",
    "LensSpace",
    "Numerator",
    "ParityRow",
    "SpectrumEntry",
    "SubsetMask",
    "binom",
    "canonical_q_tuples",
    "compare_spectra",
    "decompose",
    "first_positive_eigenvalue",
    "gamma",
    "make_lens_space",
    "multiplicity",
    "n_lattice_formula",
    "numerator",
    "parity_report",
    "spectrum",
]
