#!/usr/bin/env python3
"""Scan lens spaces L(p; q_1,...,q_m) at fixed (p, m) for spectral twins.

Prints what lenslat.isospectral_census finds (its docstring gives the
method): the class count, the number of distinct spectra and each family
of two or more classes, with its multiplicities up to --i-max.

Example:
    python3 scripts/isospectral_search.py --p 11 --m 3 --i-max 16
"""

import argparse
import functools
import sys

from lenslat import isospectral_census
from lenslat.cli import write_output


# built once per process, on first use; every default is immutable, so reuse keeps no state
@functools.cache
def _parser():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--p", type=int, required=True, help="order of the cyclic group")
    parser.add_argument("--m", type=int, default=3, help="number of rotation parameters")
    parser.add_argument("--i-max", type=int, default=16, help="degree bound for the comparison")
    return parser


def main(argv=None):
    parser = _parser()
    args = parser.parse_args(argv)
    try:  # invalid p, m or i_max: a usage error with exit 2, not a traceback
        classes, spectra = isospectral_census(args.p, args.m, args.i_max)
    except ValueError as err:
        parser.error(str(err))
    text = (f"p = {args.p}, m = {args.m}: {classes} symmetry classes, comparing degrees "
            f"0..{args.i_max}\n{len(spectra)} distinct multiplicity sequences\n")
    coincident = sorted((seq, qs) for seq, qs in spectra if len(qs) > 1)
    if not coincident:
        text += "no spectral coincidences between distinct symmetry classes\n"
    for seq, qs in coincident:
        members = "  ".join(f"L({args.p};{','.join(map(str, q))})" for q in qs)
        text += f"family of {len(qs)}: {members}\n  dim(lambda_i), i <= {args.i_max}: {list(seq)}\n"
    return write_output(text)


if __name__ == "__main__":
    sys.exit(main())
