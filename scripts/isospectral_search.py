#!/usr/bin/env python3
"""Scan lens spaces L(p; q_1,...,q_m) at fixed (p, m) for spectral twins.

Every symmetry class of parameter tuples (coordinate permutation,
negation of entries mod p, global scaling by a unit) is represented
once.  Classes are first grouped by their multiplicity sequence
(dim lambda_0, ..., dim lambda_i_max), a cheap filter: equal prefixes
only make candidates, since many agree that far and part later
(L(54;1,1,17) and L(54;1,1,19) agree up to i = 17 and differ at 18).
Each group of two or more is then split by the full numerator of the
spectral generating function.  Spaces with equal (p, m) share its
denominator, so equal numerators prove equal spectra, and every printed
family is isospectral in every degree.  The printed sequence is the
prefix up to i_max.

Each prefix comes from the space's generating-function numerator,
built only up to degree i_max, which keeps large-p scans cheap; the
full numerator is built only for the members of a prefix group.

Example:
    python3 scripts/isospectral_search.py --p 11 --m 3 --i-max 16
"""

import argparse
import sys
from collections import defaultdict

from lenslat import canonical_q_tuples, make_lens_space, numerator, spectrum


def multiplicity_sequence(p, q, i_max):
    return tuple(e.mult for e in spectrum(make_lens_space(p, q), i_max))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--p", type=int, required=True, help="order of the cyclic group")
    parser.add_argument("--m", type=int, default=3, help="number of rotation parameters")
    parser.add_argument("--i-max", type=int, default=16, help="degree bound for the comparison")
    args = parser.parse_args(argv)

    families = defaultdict(list)
    spectra = []  # (prefix, classes) with equal numerators, so equal spectra
    try:  # invalid p, m or i_max: a usage error with exit 2, not a traceback
        tuples = canonical_q_tuples(args.p, args.m)
        for q in tuples:
            families[multiplicity_sequence(args.p, q, args.i_max)].append(q)
        for seq, qs in families.items():
            if len(qs) == 1:
                spectra.append((seq, qs))
                continue
            by_numerator = defaultdict(list)
            for q in qs:
                by_numerator[numerator(make_lens_space(args.p, q)).coeffs].append(q)
            spectra += [(seq, sorted(group)) for group in by_numerator.values()]
    except ValueError as err:
        parser.error(str(err))

    print(f"p = {args.p}, m = {args.m}: {len(tuples)} symmetry classes, "
          f"comparing degrees 0..{args.i_max}")
    coincident = sorted((seq, qs) for seq, qs in spectra if len(qs) > 1)
    print(f"{len(spectra)} distinct multiplicity sequences")
    if not coincident:
        print("no spectral coincidences between distinct symmetry classes")
        return 0
    for seq, qs in coincident:
        members = "  ".join(f"L({args.p};{','.join(map(str, q))})" for q in qs)
        print(f"family of {len(qs)}: {members}")
        print(f"  dim(lambda_i), i <= {args.i_max}: {list(seq)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
