#!/usr/bin/env python3
"""The full transference ledger, end to end.

Compare the solution count of a translation-invariant equation under the
dense model f against the rescaled indicator F = N^{1/s} 1_A: the
telescoping identity splits the difference into k one-slot swaps, each
bounded through the dual-side Hoelder chain by the Fourier gap of
g = f - F.  Exact statements are asserted; asymptotics are printed as
ratios for inspection.
"""

from addlab import (
    EquationSpec,
    FieldCtx,
    VectorCtx,
    equation_free_greedy,
    erdos_turan_sidon,
    greedy_kst_free,
    run_transference_pipeline,
)

EQ = EquationSpec([1, 1, 1, -1, -2])


def show(tag, rep):
    print(f"\n{tag}: {rep.summary()}")
    for name, sec in rep.sections.items():
        print(f"  {sec.summary()}")
    print("  ledger:")
    for k, v in rep.ledger.items():
        if isinstance(v, float):
            print(f"    {k:24s} = {v:.6g}")
        else:
            print(f"    {k:24s} = {v}")
    for f in rep.flags:
        print("  note:", f)


# ------------------------------------------------- integers: Sidon input
rep = run_transference_pipeline(erdos_turan_sidon(11), EQ, 2, 2, "1/8")
show("Z model, p=11 Sidon set, eq 1,1,1,-1,-2", rep)

# ---------------------------------------- integers: equation-free input
# 1,1,1,1,-4 has no vanishing coefficient subsum, so the greedy set grows
# past one point; it is not Sidon, so the pipeline runs at (s, t) = (2, 3)
EQ_FREE = EquationSpec([1, 1, 1, 1, -4])
A = equation_free_greedy(EQ_FREE, 48, seed=6)
rep = run_transference_pipeline(A, EQ_FREE, 2, 3, "1/8")
show(f"Z model, equation-free greedy set (|A|={len(A)}), eq 1,1,1,1,-4, K_(2,3)-free", rep)

# ------------------------------------------------------- F_3^5 analogue
ctx = VectorCtx(FieldCtx(3, 1), 5)
B = greedy_kst_free(2, 2, ctx.N, seed=9, ctx=ctx)
rep = run_transference_pipeline(B, EquationSpec([1, 1, 1, 1, -4]), 2, 2, "1/2")
show(f"F_3^5, greedy Sidon-type set (|A|={len(B)}), eq 1,1,1,1,-4", rep)

print("\nreading the ledger: T_F/N^{k-1} would have to undercut T_f/N^{k-1}")
print("for the counting contradiction; at desk scale the smoother collapses")
print("(|B| or |H| small), so the two counts track each other and the")
print("asymptotic gap is visible only as the printed ratios.")
