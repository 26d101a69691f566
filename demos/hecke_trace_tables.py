#!/usr/bin/env python3
"""Trace tables of the Hecke algebra from one branching recursion.

Basis states of an irrep are chains in Young's lattice, and each Murphy
operator acts diagonally with the q-content of the box its step adds.
So Murphy traces restrict along branching, connected-word traces follow
by binomial inversion, and products of non-consecutive Murphy operators
unlock the non-simply-connected words.  Everything is symbolic in q and
double-checked against an exact regular representation at q0 = 2.
"""

from fractions import Fraction

from heckeq import (
    YoungDiagram,
    doubly_connected_traces,
    invariant_trace_consistency,
    irreducible_trace,
    murphy_product_trace,
    murphy_traces,
    partitions,
    simply_connected_trace,
)

print("Murphy trace tables for H_4")
print("-" * 60)
for g in partitions(4):
    entries = murphy_traces(g)
    cells = ", ".join(f"tr(L_{i}) = {entries[i]}" for i in sorted(entries))
    print(f"  [{g}]: {cells}")

print()
print("Connected-word traces tr(g_1 g_2 ... g_{k-1}) by inversion")
print("-" * 60)
for g in partitions(4):
    taus = ", ".join(str(simply_connected_trace(g, k)) for k in (2, 3, 4))
    print(f"  [{g}]: {taus}")

print()
print("Beyond connected words: products of Murphy operators")
print("-" * 60)
g = YoungDiagram((3, 1))
print(f"  tr(L_2 L_4) on [{g}] = {murphy_product_trace(g, (2, 4))}")
solved = doubly_connected_traces(g)
print(f"  solving the expansion gives tr(g_1 g_3) = {solved['g1*g3']}")
for rows in ((4,), (2, 2)):
    h = YoungDiagram(rows)
    print(f"  tr(g_1 g_3) on [{h}] = {doubly_connected_traces(h)['g1*g3']}")

print()
print("The invariant's trace, two ways")
print("-" * 60)
ok = all(invariant_trace_consistency(g) for n in range(1, 8) for g in partitions(n))
print(f"  dim * eigenvalue vs the connected-word expansion, n <= 7: {'agree' if ok else 'DISAGREE'}")

print()
print("Oracle spot-check at q0 = 2 (exact rational arithmetic)")
print("-" * 60)
q0 = Fraction(2)
for g in partitions(4):
    for k in (2, 3, 4):
        symbolic = simply_connected_trace(g, k).evaluate(q0)
        oracle = irreducible_trace(g, tuple(range(1, k)), q0)
        assert symbolic == oracle
    assert doubly_connected_traces(g)["g1*g3"].evaluate(q0) == irreducible_trace(g, (1, 3), q0)
print("  every H_4 trace above matches the regular representation exactly")
