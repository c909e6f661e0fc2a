#!/usr/bin/env python3
"""Record the reference outputs that every benchmark run is checked against.

    python3 perfbench/make_references.py

Runs every workload once for each input variant and writes each op's
outputs to ``perfbench/references.json``.  It refuses to write anything if
an op raises or fails one of the paper's checks.  Run it only on a commit
whose values are trusted: a later commit whose outputs move by more than
``run.REF_RTOL`` counts those ops as failed.
"""

import json
import sys

import run

if not run.use_source():
    sys.exit(2)

import workloads  # noqa: E402  (needs the source path and the BLAS setting first)


def main() -> int:
    refs = {}
    for name in sorted(workloads.WORKLOADS):
        refs[name] = {}
        for variant in range(workloads.N_VARIANTS):
            wl = workloads.build(name, variant)
            outputs = {op.name: op.call() for op in wl.ops}
            failed, gap = wl.check(outputs)
            if failed:
                print(f"error: {name} variant {variant} fails {sorted(failed)}", file=sys.stderr)
                return 1
            refs[name][str(variant)] = outputs
            print(f"{name} variant {variant}: {len(outputs)} ops, xcheck_gap {gap}", flush=True)
    payload = {
        "source": run.source_state(),
        "environment": run.environment(),
        "workloads": refs,
    }
    with open(run.REFERENCES, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
