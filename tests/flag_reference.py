"""Reference flag enumeration: one rref chain and one membership test per
ordered tuple of active weights, as `arrangement.enumerate_flags` worked
before it grew its chains as a prefix tree.  The stability test perturbs xi
lexicographically by a signed order ((j_1, s_1), ..., (j_k, s_k)): the
kappa-coordinates of xi, s_1 e_j1, ..., s_k e_jk are each solved for, and a
coordinate of xi_tilde is positive when its vector of coordinates is
lexicographically positive.  Each flag carries kappa's inverse from the
Fraction elimination of `linalg_reference.inverse`, and the flags come in the
order of their kappa.  Tests compare the two."""

import itertools
from fractions import Fraction
from math import lcm

import linalg_reference
from jkcalc import linalg
from jkcalc.arrangement import Flag


def kappa_determinant(kappa, basis) -> Fraction:
    """det of the kappa tuple expressed in the given lattice basis."""
    coords = []
    for k in kappa:
        c = linalg.solve_coords(basis, k)
        if c is None:
            raise ValueError("kappa vector outside the lattice span")
        coords.append(c)
    return linalg.det(coords)


def perturbed_coordinates(kappa, xi, order):
    """Per kappa coordinate, its values in xi, s_1 e_j1, ..., s_k e_jk (the
    coefficients of eps^0, eps^1, ... of xi_tilde's coordinate); None when
    kappa is dependent."""
    dim = len(xi)
    columns = [linalg.solve_coords(kappa, xi)]
    for j, s in order:
        columns.append(linalg.solve_coords(
            kappa, tuple(Fraction(s * (i == j)) for i in range(dim))))
    if columns[0] is None:
        return None
    return list(zip(*columns))


def integer_inverse(kappa):
    """kappa's Fraction inverse as (rows, d), integer rows over the least
    common denominator d of its entries."""
    rows = linalg_reference.inverse(kappa)
    d = lcm(*(x.denominator for row in rows for x in row))
    return tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in rows), d


def enumerate_flags(active_weights, xi, basis, order) -> list[Flag]:
    weights = list(dict.fromkeys(tuple(w) for w in active_weights))
    dim = len(xi)
    if dim == 0:
        return [Flag(kappa=(), kappa_inverse=((), 1), lattice_factor=Fraction(1))]
    chains = set()
    for tup in itertools.permutations(range(len(weights)), dim):
        gens = [weights[i] for i in tup]
        chain = []
        for i in range(1, dim + 1):
            sub = tuple(linalg.rref(gens[:i]))
            if len(sub) != i:
                break
            chain.append(sub)
        else:
            chains.add(tuple(chain))
    flags = []
    zero = (Fraction(0),) * (dim + 1)
    for chain in chains:
        kappa = []
        for sub in chain:
            total = (0,) * dim
            for w in weights:
                if linalg.in_span(w, sub):
                    total = linalg.vec_add(total, w)
            kappa.append(total)
        coords = perturbed_coordinates(kappa, xi, order)
        if coords is None:
            continue
        if not all(c > zero for c in coords):
            continue
        d = kappa_determinant(kappa, basis)
        if d == 0:
            continue
        flags.append(Flag(
            kappa=tuple(kappa),
            kappa_inverse=integer_inverse(kappa),
            lattice_factor=Fraction(1) / abs(d),
        ))
    return sorted(flags, key=lambda flag: flag.kappa)
