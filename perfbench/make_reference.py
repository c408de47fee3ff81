"""Record the dual-twistE8 reference answers that the workload checks against.

    python3 perfbench/make_reference.py

Writes perfbench/reference.json: census dims and label tuples per case,
solved with the default solver seed.  The labels do not depend on the
solver seed, and every dual-twistE8 run checks that at its own seed.  Run
it at the commit whose answers are taken as right.
"""

import json
import sys

import bootstrap

if __name__ == "__main__":
    bootstrap.prepare()
    import workloads
    from euciso import dual

    reference = {}
    for name, N in workloads.DUAL_CASES:
        atlas = dual.enumerate_dual(workloads.fresh_catalog_spec(name), N)
        if not all(atlas.checks.values()):
            sys.exit(f"atlas checks failed for {name} at N={N}: {atlas.checks}")
        reference[f"{name}@{N}"] = {"census_dims": atlas.census_dims,
                                     "labels": workloads.label_tuples(atlas)}
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
