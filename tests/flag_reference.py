"""Reference flag enumeration: one rref chain and one membership test per
ordered tuple of active weights, as `arrangement.enumerate_flags` worked
before it grew its chains as a prefix tree.  Tests compare the two."""

import itertools
from fractions import Fraction

from jkcalc import linalg
from jkcalc.arrangement import Flag, FlagStabilityError
from jkcalc.linalg import fvec


def kappa_determinant(kappa, basis) -> Fraction:
    """det of the kappa tuple expressed in the given lattice basis."""
    coords = []
    for k in kappa:
        c = linalg.solve_coords([fvec(b) for b in basis], fvec(k))
        if c is None:
            raise ValueError("kappa vector outside the lattice span")
        coords.append(c)
    return linalg.det(coords)


def enumerate_flags(active_weights, xi_tilde, basis) -> list[Flag]:
    weights = [fvec(w) for w in dict.fromkeys(tuple(fvec(w)) for w in active_weights)]
    xi_tilde = fvec(xi_tilde)
    dim = len(xi_tilde)
    if dim == 0:
        return [Flag(generators=(), chain=(), kappa=(), lattice_factor=Fraction(1))]
    chains = {}
    for tup in itertools.permutations(range(len(weights)), dim):
        gens = [weights[i] for i in tup]
        chain = []
        for i in range(1, dim + 1):
            sub = tuple(linalg.rref(gens[:i]))
            if len(sub) != i:
                break
            chain.append(sub)
        else:
            chains.setdefault(tuple(chain), tuple(gens))
    flags = []
    for chain, gens in sorted(chains.items()):
        kappa = []
        for sub in chain:
            total = tuple(Fraction(0) for _ in range(dim))
            for w in weights:
                if linalg.in_span(w, sub):
                    total = linalg.vec_add(total, w)
            kappa.append(total)
        coords = linalg.solve_coords(kappa, xi_tilde)
        if coords is None:
            continue
        if any(c == 0 for c in coords):
            raise FlagStabilityError(
                "stability multiplier vanished on a flag; perturbation is not sum-regular"
            )
        if not all(c > 0 for c in coords):
            continue
        d = kappa_determinant(kappa, basis)
        if d == 0:
            continue
        flags.append(Flag(
            generators=gens,
            chain=chain,
            kappa=tuple(kappa),
            lattice_factor=Fraction(1) / abs(d),
        ))
    return flags
