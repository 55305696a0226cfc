"""Weight combinatorics for sl(n) and the standard-structure eigenvalue census.

Torsion-type tensors (T^l_{ij}, antisymmetric in ij) and curvature-type
tensors (A^l_{kij}, antisymmetric in ij) decompose into irreducible pieces
under sl(n). The decompositions are driven by one fact: tensoring an
irreducible with the defining representation V splits with multiplicity
one, the components being indexed by the dominant sums of the highest weight
with the weights of V. Dimensions come from the classical product formula.
The census reads the standard complex structure's eigenvalues on each
component from its character: j0 is diagonal with entries +-i in a complex
basis, so the multiplicity of ik is a count of semistandard tableaux by
content (the Schur polynomial of the component's partition).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .tensor import OddDimension

__all__ = [
    "NotDominant", "WeightVector", "IrrepComponent",
    "weights_of_V", "decompose_with", "weyl_dim",
    "fundamental", "torsion_component_weights", "curvature_component_weights",
    "j0_census",
]


class NotDominant(ValueError):
    """The weight has a negative fundamental-weight coefficient."""


@dataclass(frozen=True)
class WeightVector:
    """Integer coefficients in the fundamental-weight basis w1..w(n-1)."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))

    @property
    def dominant(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def __add__(self, other: "WeightVector") -> "WeightVector":
        return WeightVector(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "WeightVector":
        return WeightVector(tuple(-c for c in self.coeffs))

    def __str__(self) -> str:
        out = ""
        for i, c in enumerate(self.coeffs, start=1):
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if out else "")
            mag = abs(c)
            out += sign + (f"w{i}" if mag == 1 else f"{mag}*w{i}")
        return out or "0"


def fundamental(i: int, n: int) -> WeightVector:
    """The fundamental weight w_i for sl(n), or the zero weight for i = 0."""
    if not 0 <= i <= n - 1:
        raise ValueError(f"fundamental index must be in 0..{n - 1}, got {i}")
    coeffs = [0] * (n - 1)
    if i > 0:
        coeffs[i - 1] = 1
    return WeightVector(tuple(coeffs))


def weights_of_V(n: int) -> "list[WeightVector]":
    """The n weights of the defining representation: w1, w2-w1, ..., -w(n-1)."""
    out = [fundamental(1, n)]
    for k in range(2, n):
        out.append(fundamental(k, n) + (-fundamental(k - 1, n)))
    out.append(-fundamental(n - 1, n))
    return out


def decompose_with(hw: WeightVector, n: int) -> "list[WeightVector]":
    """Highest weights of (irreducible with highest weight hw) tensor V.

    Valid because V has multiplicity-one weights: the components are exactly
    the dominant elements among hw + (weight of V), each once.
    """
    if not hw.dominant:
        raise NotDominant(f"{hw} is not dominant")
    return [hw + m for m in weights_of_V(n) if (hw + m).dominant]


def weyl_dim(hw: WeightVector, n: int) -> int:
    """Dimension of the sl(n) irreducible with highest weight hw.

    Uses the partition lambda_a = sum of m_k for k >= a and the hook-style
    product over index pairs, in exact rational arithmetic.
    """
    if not hw.dominant:
        raise NotDominant(f"{hw} is not dominant")
    if len(hw.coeffs) != n - 1:
        raise ValueError(f"weight length {len(hw.coeffs)} does not fit sl({n})")
    lam = [sum(hw.coeffs[a:]) for a in range(n - 1)] + [0]
    out = Fraction(1)
    for a in range(n):
        for b in range(a + 1, n):
            out *= Fraction(lam[a] - lam[b] + b - a, b - a)
    assert out.denominator == 1
    return int(out)


def torsion_component_weights(n: int) -> "list[WeightVector]":
    """Components of the torsion space (vector-valued 2-forms): trace-free, trace."""
    return decompose_with(fundamental(n - 2, n), n)


def curvature_component_weights(n: int) -> "list[WeightVector]":
    """Components of the curvature space: the fully antisymmetric branch
    (trace-free then trace; a single entry at n=3), then the cyclic-symmetry
    branch (Weyl, symmetric-Ricci, skew-Ricci images)."""
    if n < 3:
        raise ValueError("the curvature component list needs n >= 3")
    lam3 = decompose_with(fundamental(n - 3, n), n)
    bianchi = decompose_with(fundamental(n - 2, n) + fundamental(n - 1, n), n)
    return lam3 + bianchi


@dataclass(frozen=True)
class IrrepComponent:
    """One irreducible constituent with its standard-structure eigenvalue data."""

    highest: WeightVector
    dim: int
    spectrum: "dict[int, int]"  # imaginary part k -> multiplicity of eigenvalue ik


def _tableau_spectrum(hw: WeightVector, n: int) -> "dict[int, int]":
    """Multiplicity of each eigenvalue ik of j0 (i on the first n/2 coordinates,
    -i on the rest) on the irreducible of highest weight hw: the semistandard
    tableaux of shape lambda_a = sum of m_k for k >= a, entries 1..n, counted by
    (#entries <= n/2) - (#entries > n/2). Cells fill row by row, rows weakly
    increasing and columns strictly increasing (Fulton-Harris, section 15.3)."""
    rows = [sum(hw.coeffs[a:]) for a in range(n - 1)]
    cells = [(r, c) for r, length in enumerate(rows) for c in range(length)]
    grid = [[0] * length for length in rows]
    counts: "dict[int, int]" = {}

    def fill(index: int, k: int) -> None:
        if index == len(cells):
            counts[k] = counts.get(k, 0) + 1
            return
        r, c = cells[index]
        low = max(grid[r][c - 1] if c else 1, grid[r - 1][c] + 1 if r else 1)
        for entry in range(low, n + 1):
            grid[r][c] = entry
            fill(index + 1, k + (1 if 2 * entry <= n else -1))

    fill(0, 0)
    return counts


def j0_census(space: str, n: int) -> "list[IrrepComponent]":
    """Eigenvalues of the standard complex structure on each component.

    Labels come positionally from the decomposition lists, each spectrum from
    a tableau count, whose total is checked against the dimension formula.
    """
    if n % 2 != 0:
        raise OddDimension("the census pairs coordinates into 2-planes")
    if n not in (4, 6):
        raise ValueError(
            "census supports n = 4 and 6; the generic component lists collapse at n = 2")
    if space == "torsion":
        labels = torsion_component_weights(n)
    elif space == "curvature":
        labels = curvature_component_weights(n)
    else:
        raise ValueError(f"space must be 'torsion' or 'curvature', got {space!r}")

    out = []
    for label in labels:
        spectrum = _tableau_spectrum(label, n)
        d, expected = sum(spectrum.values()), weyl_dim(label, n)
        if d != expected:
            raise ValueError(f"tableau count for {label} is {d}, expected {expected}")
        out.append(IrrepComponent(label, d, dict(sorted(spectrum.items()))))
    return out
