"""The three workloads: CLI argv lists and the exact result each must print.

Every expected ``result`` is frozen.  Where the repository already states a
number (the 4-simplex f-vector and its top entry 380,125, the reference
tables of the n = 3 verifier, the exact sequence Z^24 -> Z^99 -> Z^96 ->
Z^21) the reference is built from it; the remaining f-vectors and the full
``verify all --max-n 3`` document were taken from the output of commit
4dd1f65 and are cross-checked by `check_references` against the reduced
Euler characteristics they must have.

A seed only reorders jobs that do not depend on each other; it never
changes the work done or the outputs.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("count-n4", "homology-n3", "verify-suite")

# f-vector of M(simplex:4), as frozen in morsematch.verify.N4_F_VECTOR
N4_M = [75, 2485, 47955, 598425, 5071367, 29844505, 122685075, 350017175,
        680808105, 876110235, 712961065, 343320335, 88467825, 10315975, 380125]
N4_TOP = 380125
# from the output of commit 4dd1f65
N4_GM = [75, 2485, 48035, 602685, 5168119, 31072025, 132269895, 397931395,
         835688945, 1196294175, 1123298425, 651477055, 211720845, 32385555,
         1569309]
BD4_M = [70, 2155, 38420, 439745, 3387062, 17907875, 65162120, 161358215,
         265139350, 277122385, 172371460, 57378175, 8501650, 380125]
BD4_GM = [70, 2155, 38500, 443665, 3468394, 18842035, 71695600, 190253755,
          346555930, 421001065, 325663060, 149074035, 35738550, 3563385, 82584]
# reduced Euler characteristics the f-vectors must reproduce
REDUCED_CHI = {("simplex:4", "M"): 212456, ("simplex:4", "GM"): -1728,
               ("boundary:4", "M"): 11456, ("boundary:4", "GM"): 62592}
F_VECTORS = {("simplex:4", "M"): N4_M, ("simplex:4", "GM"): N4_GM,
             ("boundary:4", "M"): BD4_M, ("boundary:4", "GM"): BD4_GM}
OPTIMAL = {"simplex:4": (15, N4_TOP), "boundary:4": (14, N4_TOP)}

# TABLE_H of verify_reference_tables: nonzero reduced Betti numbers, all
# torsion-free.  The first entry is the top degree, the dimension of the
# matching complex: one less than the length of its TABLE_F f-vector (for
# GM, from the output of commit 4dd1f65)
HOMOLOGY = {("simplex:3", "M"): (6, {4: 99}), ("boundary:3", "M"): (5, {3: 21, 4: 24}),
            ("simplex:3", "MP"): (6, {3: 81}), ("boundary:3", "MP"): (5, {3: 81}),
            ("simplex:3", "GM"): (6, {4: 39}), ("boundary:3", "GM"): (5, {4: 39})}
# 0 -> Z^24 -> Z^99 -> Z^96 -> Z^21 -> 0: H_4(M(simplex:3), M(boundary:3)) = Z^96
LES = [24, 99, 96, 21]

VERIFY_ALL_N3 = json.loads(
    (Path(__file__).parent / "expected_verify_all_n3.json").read_text())
SPANNING_TREE_N4 = {
    "checks": [
        {"details": {"count": 64, "distinct_trees": 16}, "instance": {"n": 3},
         "name": "spanning-tree", "status": "pass", "witness": None},
        {"details": {"count": 76025, "distinct_trees": 125}, "instance": {"n": 4},
         "name": "spanning-tree", "status": "pass", "witness": None}],
    "summary": {"fail": 0, "pass": 2, "skipped-budget": 0}}


def _fvector(spec, variant):
    fv = F_VECTORS[(spec, variant)]
    return {"variant": variant, "f_vector": fv,
            "euler_characteristic": sum((-1) ** d * v for d, v in enumerate(fv))}


def _homology(spec, variant, relative=None):
    if relative is None:
        top, nonzero = HOMOLOGY[(spec, variant)]
    else:
        top, nonzero = HOMOLOGY[(spec, variant)][0], {4: LES[2]}
    return {"variant": variant, "relative": relative, "reduced": True,
            "void": False,
            "degrees": [{"degree": d, "betti": nonzero.get(d, 0), "torsion": []}
                        for d in range(top + 1)]}


def _report(name, instance):
    found = [c for c in VERIFY_ALL_N3["checks"]
             if c["name"] == name and c["instance"] == instance]
    return found[0]["details"] if len(found) == 1 else None


def check_references() -> None:
    """Raise ValueError if the frozen references contradict the numbers the
    repository states."""
    problems = [f"reduced chi of {key}" for key, want in REDUCED_CHI.items()
                if _fvector(*key)["euler_characteristic"] - 1 != want]
    if N4_M[-1] != N4_TOP:
        problems.append("top entry of the M(simplex:4) f-vector")
    checks = VERIFY_ALL_N3["checks"]
    if any(c["status"] != "pass" for c in checks) or VERIFY_ALL_N3["summary"] != {
            "fail": 0, "pass": len(checks), "skipped-budget": 0}:
        problems.append("verify all --max-n 3 has a report that is not pass")
    if _report("les-example", {}) != {"sequence": LES}:
        problems.append("les-example sequence")
    if _report("reference-tables", {}) != {
            "optimal_counts": {"1": 2, "2": 9, "3": 256}}:
        problems.append("reference-tables optimal counts")
    for variant, name in (("MP", "conjecture-pure"), ("GM", "conjecture-gm")):
        details = _report(name, {"n": 3, "variant": variant})
        nonzero = HOMOLOGY[("simplex:3", variant)][1]
        if details is None or details["homology"] != {
                str(d): b for d, b in nonzero.items()}:
            problems.append(f"{name} homology at n = 3")
    if problems:
        raise ValueError("inconsistent references: " + "; ".join(problems))


def jobs(workload: str, rng: random.Random) -> list[tuple[list[str], int, dict]]:
    """(argv without --cache-dir, expected exit code, expected result)."""
    if workload == "count-n4":
        cold = [(["fvector", "--complex", spec, "--variant", v, "--allow-long"],
                 0, _fvector(spec, v))
                for spec in ("simplex:4", "boundary:4") for v in ("M", "GM")]
        cold += [(["count-optimal", "--complex", spec, "--allow-long"], 0,
                  {"max_cardinality": OPTIMAL[spec][0], "count": OPTIMAL[spec][1]})
                 for spec in ("simplex:4", "boundary:4")]
        rng.shuffle(cold)
        # no --allow-long: euler must be answered from the fvector entry
        euler = dict(_fvector("simplex:4", "M"))
        euler["reduced_euler_characteristic"] = euler["euler_characteristic"] - 1
        cold.append((["euler", "--complex", "simplex:4", "--variant", "M"], 0, euler))
        warm = list(cold)
        rng.shuffle(warm)
        return cold + warm
    if workload == "homology-n3":
        out = [(["homology", "--complex", spec, "--variant", v], 0, _homology(spec, v))
               for spec in ("simplex:3", "boundary:3") for v in ("M", "MP", "GM")]
        out.append((["homology", "--complex", "simplex:3", "--variant", "M",
                     "--relative", "boundary:3"], 0,
                    _homology("simplex:3", "M", "boundary:3")))
        rng.shuffle(out)
        return out
    if workload == "verify-suite":
        out = [(["verify", "all", "--max-n", "3"], 0, VERIFY_ALL_N3),
               (["verify", "spanning-tree", "--max-n", "4"], 0, SPANNING_TREE_N4)]
        rng.shuffle(out)
        return out
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
