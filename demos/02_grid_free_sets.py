#!/usr/bin/env python3
"""Grid-free sets: constructions, representation functions, witnesses.

A set is (s, t)-grid-free when no sumset B + C with |B| = s, |C| = t lands
inside it; s = t = 2 is the Sidon property.  The detector scans distinct
s-subsets and their admissible shifts; when a grid exists it reconstructs
one explicitly.
"""

import numpy as np

from addlab import (
    CyclicCtx,
    SetA,
    erdos_turan_sidon,
    find_kst_violation,
    find_kst_violation_exhaustive,
    greedy_kst_free,
    rep_diff,
    rep_tuple,
)

# -------------------------------------------------------------- Sidon sets
print("Erdos-Turan Sidon sets {2p*i + (i^2 mod p)}")
for p in (5, 7, 11):
    A = erdos_turan_sidon(p)
    r = rep_diff(A).values
    print(f"  p={p}: A={list(map(int, A.indices))[:6]}..., "
          f"max nonzero difference count = {int(r[1:].max())}")

# ---------------------------------------------------------- a grid witness
print("\nwitness extraction")
B = SetA(CyclicCtx(20), [0, 1, 2, 3])
w = find_kst_violation(B, 2, 2)
print(f"  {{0,1,2,3}} contains the grid B={w.b} + C={w.c} =",
      sorted(set(w.grid(B.ctx))))
print("  naive oracle agrees:", find_kst_violation_exhaustive(B, 2, 2) is not None)

# ------------------------------------------------- admissible shift counts
print("\nadmissible shifts of tuples (zero shift not counted)")
A = SetA(CyclicCtx(30), [0, 1, 2, 3, 7, 12])
for tpl in [(0, 1), (0, 3), (1, 2), (0, 1, 2)]:
    print(f"  rep{tpl} = {rep_tuple(A, tpl)}")

# --------------------------------------------------------- greedy corpus
print("\ngreedy grid-free sets (random insertion order, re-verified)")
for s, t in ((2, 2), (2, 3), (3, 3)):
    A = greedy_kst_free(s, t, 80 if s == 2 else 36, seed=1)
    dens = len(A) / A.model_n
    print(f"  (s,t)=({s},{t}): |A| = {len(A)} in [0,{A.model_n}), density {dens:.2f}")

# grid-freeness survives because every insertion was checked; the greedy
# set for (2,3) tolerates repeated differences up to multiplicity 2
A23 = greedy_kst_free(2, 3, 80, seed=1)
r = rep_diff(A23).values
hist = np.bincount(r[1:][r[1:] > 0])
print("  (2,3) difference multiplicity histogram:", dict(enumerate(hist.tolist())))
