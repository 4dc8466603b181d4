"""Run the whole identity catalog and print one verdict per cell.

Each identity states a closed form for the coefficients connecting two
families; verification rebuilds both sides as exact coefficient vectors.
The lambda identities are checked in "symbolic" mode: enough distinct
rational samples that passing proves the identity for every lambda != 1.
"""

from umbra import THEOREM_IDS, verify_theorem

N = 8

print(f"identity checks through degree {N}:")
for tid in THEOREM_IDS:
    if tid == "t6":
        report = verify_theorem(tid, N, N + 1)
        print(f"  {tid:6s} r={N + 1}  {report.status}  (needs r > n)")
        continue
    for r in range(3):
        report = verify_theorem(tid, N, r, symbolic_lambda=True)
        if report.lambdas:
            note = f"({len(report.lambdas)} lambda samples)"
        else:
            note = "(degrees n >= r)" if tid == "t7" else ""
        print(f"  {tid:6s} r={r}  {report.status}  {note}")

print("\nthe t4/t5 pair states the same coefficients two ways; so does t8/remark.")
print("see the CLI for machine-readable reports:")
print("  umbra verify --theorems all --max-n 12 --orders 0,1,2,3,4")
