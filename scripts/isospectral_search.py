#!/usr/bin/env python3
"""Scan lens spaces L(p; q_1,...,q_m) at fixed (p, m) for spectral twins.

Every symmetry class of parameter tuples (coordinate permutation,
negation of entries mod p, global scaling by a unit) is represented
once.  One loop files each class under its multiplicity sequence
(dim lambda_0, ..., dim lambda_i_max), a cheap filter: many prefixes
agree that far and part later (L(54;1,1,17) and L(54;1,1,19) agree up
to i = 17 and differ at 18).  A class with a shared prefix is filed
under the prefix and the full numerator of the spectral generating
function.  Spaces with equal (p, m) share its denominator, so equal
numerators prove equal spectra, and every printed family is
isospectral in every degree; its printed sequence is the prefix.

Each prefix comes from the space's numerator built only up to degree
i_max, which keeps large-p scans cheap; the full numerator is built
only for classes that share a prefix.  The class, degree and DP size
rules are checked from (p, m, i_max) before any class is built.

Example:
    python3 scripts/isospectral_search.py --p 11 --m 3 --i-max 16
"""

import argparse
import functools
import sys
from collections import defaultdict

from lenslat import canonical_q_tuples, make_lens_space, numerator, spectrum
from lenslat.lattice import _canonical_candidates, _pass_plan
from lenslat.spectra import _check_i_max


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

    prefixes = defaultdict(list)  # prefix -> [(q, space)], q ascending like the classes
    families = defaultdict(list)  # (prefix, numerator if shared) -> [q]: equal spectra
    try:  # invalid p, m or i_max: a usage error with exit 2, not a traceback
        # every class meets these rules; checked once, before the first is built
        _canonical_candidates(args.p, args.m)
        _check_i_max(args.i_max)
        _pass_plan(args.p, args.m, args.i_max, True)
        tuples = canonical_q_tuples(args.p, args.m)
        for q in tuples:
            space = make_lens_space(args.p, q)
            prefixes[tuple(e.mult for e in spectrum(space, args.i_max))].append((q, space))
        for seq, members in prefixes.items():
            for q, space in members:
                key = (seq, numerator(space).coeffs) if len(members) > 1 else (seq,)
                families[key].append(q)
    except ValueError as err:
        parser.error(str(err))

    print(f"p = {args.p}, m = {args.m}: {len(tuples)} symmetry classes, "
          f"comparing degrees 0..{args.i_max}")
    coincident = sorted((key[0], qs) for key, qs in families.items() if len(qs) > 1)
    print(f"{len(families)} distinct multiplicity sequences")
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
