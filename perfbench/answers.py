"""Known answers transcribed from the paper, and the benchmark's own arithmetic.

These tables are the reference the workloads are checked against; they
are written from the paper's displays, not from grs output.  The README
lists them as the known-answer table.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

# alpha0 + alpha1 + 2*alpha2 + alpha3 + alpha4 = 1, solved for alpha0
PVI_NORMALIZATION = {"alpha0": "1 - alpha1 - 2*alpha2 - alpha3 - alpha4"}

# eigenvalue relations of the four generalized schemes, cleared of
# denominators; the last symbol is the one eliminated through the relation
PAPER_RELATIONS = {
    "gen-pvi": ("n1*n2*n3 + n1*n2*n4 + n1*n3*n4 + n2*n3*n4 - 2*n1*n2*n3*n4",
                ("n1", "n2", "n3", "n4")),
    "gen-pv": ("2*n1*n2*n3 - (n1 + n2)*n3 - 2*(n1 + n2)", ("n1", "n2", "n3")),
    "gen-piv": ("2*n1*n2 - 3*n1 - n2 - 3", ("n1", "n2")),
    "gen-piii": ("n1*n2 - 4", ("n1", "n2")),
}

# the same relations as exact predicates on rational tuples
FRACTION_RELATIONS = {
    "genVI": lambda v: sum(1 / q for q in v) == 2,
    "genV": lambda v: 2 * v[0] * v[1] * v[2] - (v[0] + v[1]) * v[2] - 2 * (v[0] + v[1]) == 0,
    "genIV": lambda v: 2 * v[0] * v[1] - 3 * v[0] - v[1] - 3 == 0,
    "genIII": lambda v: v[0] * v[1] == 4,
}
ARITY = {"genVI": 4, "genV": 3, "genIV": 2, "genIII": 2}

# complete natural solution lists, in the paper's ordering conventions
NATURAL_TUPLES = {
    "genVI": [(1, 2, 3, 6), (1, 2, 4, 4), (1, 3, 3, 3), (2, 2, 2, 2)],
    "genV": [(2, 1, 6), (2, 2, 2), (3, 1, 4), (3, 3, 1), (5, 1, 3), (6, 2, 1)],
    "genIV": [(1, 6), (2, 3), (5, 2)],
    "genIII": [(2, 2), (4, 1)],
}

# accessible points: label -> (multiplicity, local-index ratio at simple points)
POINTS = {
    "pvi": {"0": (1, "2"), "1": (1, "2"), "t": (1, "2"), "inf": (1, "2")},
    "gen-pvi": {"0": (1, "n1"), "1": (1, "n2"), "t": (1, "n3"), "inf": (1, "n4")},
    "gen-pv": {"0": (2, None), "1": (1, "n1"), "inf": (1, "n2")},
    "gen-piv": {"0": (3, None), "inf": (1, "n1")},
    "gen-piii": {"0": (2, None), "inf": (2, None)},
}

# resolution of the multiple points: (system, point) -> (blow-ups, patching
# map in U0 coordinates, resolved point)
RESOLUTIONS = {
    ("gen-pv", "0"): (2, ("x", "x^2*y"), ("0", "-t")),
    ("gen-piv", "0"): (3, ("x", "x^3*y"), ("0", "-1/2")),
    ("gen-piii", "inf"): (2, ("1/x", "-(x*y + alpha2)/x"), ("0", "-1")),
}

# symmetry verdicts: (system, map) -> (invariant, involution)
SYMMETRY_VERDICTS = {
    ("gen-pvi", "s"): (True, True), ("gen-pvi", "pi1"): (True, True),
    ("gen-pvi", "pi2"): (True, True), ("gen-pvi", "pi3"): (True, True),
    ("gen-pvi", "pi3-verbatim"): (False, False),
    ("gen-pv", "s"): (True, True), ("gen-pv", "pi"): (True, True),
    ("gen-piv", "s"): (True, True),
    ("gen-piii", "s"): (True, True), ("gen-piii", "pi"): (True, True),
}

# the three-point family at (n1, n2) = (2, 3) is PIV with beta_i = alpha_i
PIV_CORRESPONDENCE = {"beta1": "alpha1", "beta2": "alpha2"}

def integer_tuples(relation: str, bound: int) -> list[tuple[int, ...]]:
    """Every signed nonzero integer tuple with |entries| <= bound on the relation."""
    values = [v for v in range(-bound, bound + 1) if v != 0]
    test = FRACTION_RELATIONS[relation]
    return sorted(t for t in product(values, repeat=ARITY[relation])
                  if test([Fraction(v) for v in t]))


def reciprocal_sum(ratios) -> Fraction:
    return sum((1 / Fraction(r) for r in ratios), Fraction(0))
