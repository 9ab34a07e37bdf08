"""Exact Laplace-Beltrami spectra of lens spaces via lattice point counting.

The library side: validated lens-space parameters and their symmetry
classes, box-bounded counts, the 1-norm generating function's numerator
by dynamic programming, and N(h), multiplicity tables and the census of
isospectral classes read off it, all in exact integers.  lenslat.oracle
holds the enumeration twin and the plan, checks and timing loop of `lenslat verify`
and `lenslat bench` (test instrument, not a stable surface); the command line is lenslat.cli.
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
    SpectrumEntry,
    compare_spectra,
    first_positive_eigenvalue,
    isospectral_census,
    multiplicities,
    multiplicity,
    n_lattice_formula,
    parity_verdicts,
)

__version__ = "0.1.0"

__all__ = [
    "IsospectralReport",
    "LensSpace",
    "Numerator",
    "SpectrumEntry",
    "SubsetMask",
    "binom",
    "canonical_q_tuples",
    "compare_spectra",
    "decompose",
    "first_positive_eigenvalue",
    "gamma",
    "isospectral_census",
    "make_lens_space",
    "multiplicities",
    "multiplicity",
    "n_lattice_formula",
    "numerator",
    "parity_verdicts",
]
