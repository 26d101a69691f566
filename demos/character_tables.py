#!/usr/bin/env python3
"""Character tables without character theory.

A central projector for an irrep of S_n can be assembled from a few
class-sums: a Lagrange product over transposition eigenvalues, plus
3-, 4- or 5-cycle factors when two irreps share a transposition
eigenvalue (S_6 is the first group that needs a 3-cycle factor).
Expanding the projector back in the class-sum basis and rescaling by
n!/dim yields the full character row.  An independent Murnaghan-Nakayama
recursion confirms every entry.
"""

from heckeq import (
    YoungDiagram,
    build_projector,
    character_table,
    characters_from_projector,
    class_product,
    dimension,
    murnaghan_nakayama_character,
    partitions,
    single_cycle_class_sum,
)
from heckeq.invariant import central_character
from heckeq.symgroup import ClassVector, display_cycle_type

print("The standard irrep of S_3")
print("-" * 60)
p = build_projector(YoungDiagram((2, 1)))
print(f"  projector: {p}")
row = characters_from_projector(p, YoungDiagram((2, 1)))
for t, value in row.items():
    print(f"  chi({display_cycle_type(t)}) = {value}")

print()
print("The degenerate pair of S_6 needs a second stage")
print("-" * 60)
lam2 = {g: central_character(2, g) for g in partitions(6)}
print("  transposition eigenvalues:", sorted(set(lam2.values())))
print("  [4,1,1] and [3,3] both sit at 3, so after the transposition")
print("  prefilter one 3-cycle factor does the splitting:")
for rows, lam3 in (((4, 1, 1), 4), ((3, 3), -8)):
    g = YoungDiagram(rows)
    assert central_character(3, g) == lam3
    print(f"    [{g}]: 3-cycle eigenvalue {lam3}")
p_hook = build_projector(YoungDiagram((4, 1, 1)))
assert class_product(p_hook, p_hook) == p_hook
print("  the resulting projector is idempotent: checked")

print()
print("Full S_5 character table (projector route)")
print("-" * 60)
table = character_table(5, "projector")
classes = [g.rows for g in partitions(5)]
header = "  ".join(f"{display_cycle_type(t, suppress_units=True):>8s}" for t in classes)
print(f"  {'irrep':>10s}  {header}")
for g, row in table.items():
    values = "  ".join(f"{row[t]:>8d}" for t in classes)
    print(f"  {str(g):>10s}  {values}")

print()
print("Cross-check against the Murnaghan-Nakayama recursion")
print("-" * 60)
for n in (4, 5, 6):
    mn = character_table(n, "mn")
    assert character_table(n, "projector") == mn
    print(f"  n={n}: all {len(mn)}x{len(mn)} entries agree")

print()
print("Column at the identity is the dimension")
print("-" * 60)
for g in partitions(5):
    assert murnaghan_nakayama_character(g, (1,) * 5) == dimension(g)
print("  checked for every irrep of S_5")
