"""Rebuild perfbench/corpus.json, the screened instances of the random workloads.

Run from the repository root, after changing a workload's instances, its
candidate counts or its node budget:

    python3 perfbench/make_corpus.py [reduce-search] [equiv-factor]

Every candidate instance runs once, untimed, at half its workload's node
budget.  A decided instance is checked like a timed op and accepted; one
that exhausts the half budget is rejected.  Accepted instances are listed
cheapest first, by the time of that one run, which the workloads use to
deal a representative mix of costs.  The half budget leaves a margin,
so an accepted instance is still decided if a change to the search costs it
up to twice the nodes.  Workloads not named keep their entries.  The whole
file takes a few minutes on one core.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402
from asdkit.errors import SearchBudgetExceeded  # noqa: E402

CLASSES = {cls.name: cls for cls in (workloads.ReduceSearch, workloads.EquivFactor)}


def screen(cls) -> dict:
    wl = cls(0, corpus={})
    kinds = {}
    for kind, count in cls.CANDIDATES.items():
        accepted, rejected, took = [], [], 0.0
        for i in range(count):
            op = wl.instance(kind, i).make("s.")
            start = time.perf_counter()
            try:
                with wl.screening():
                    value = op.run()
                decided = True
            except SearchBudgetExceeded:
                decided = False
            seconds = time.perf_counter() - start
            took += seconds
            if not decided:
                rejected.append(i)
                continue
            op.check(value)
            accepted.append((seconds, i))
        kinds[kind] = {"accepted": [i for _, i in sorted(accepted)], "rejected": rejected}
        print(f"{cls.name:<14} {kind:<12} {len(accepted):3d} accepted {len(rejected):3d} rejected"
              f" {took:8.2f} s", flush=True)
    return {"budget": cls.budget, "screen_budget": cls.budget // 2, "kinds": kinds}


def main(names) -> int:
    unknown = set(names) - set(CLASSES)
    if unknown:
        print(f"error: unknown workload(s) {sorted(unknown)}; choose from {sorted(CLASSES)}",
              file=sys.stderr)
        return 2
    corpus = {}
    if os.path.exists(workloads.CORPUS_FILE):
        with open(workloads.CORPUS_FILE, encoding="utf-8") as fh:
            corpus = json.load(fh)
    for name in names or CLASSES:
        corpus[name] = screen(CLASSES[name])
    with open(workloads.CORPUS_FILE, "w", encoding="utf-8") as fh:
        json.dump(corpus, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
