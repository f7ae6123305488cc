"""Regenerate perfbench/reference.json from the sources in this checkout.

    python3 perfbench/make_reference.py

Stores, for every op whose inputs do not depend on the seed, the values its
summary reports (and the body digest of CLI ops). Run it only when a change
deliberately alters results, and state the drift in CHANGES.md: the stored
values are what later changes are checked against.
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import worker  # noqa: E402  (pins BLAS threads and puts src/ on the path)
import workloads  # noqa: E402

# Not compared: the digest is exact bytes and the byte count follows float
# repr lengths, both of which a permitted last-bit drift changes.
UNCOMPARED = ("digest", "bytes")


def main():
    os.chdir(worker.ROOT)
    workdir = os.path.join("perfbench", "out", "inputs")
    os.makedirs(workdir, exist_ok=True)
    reference = {}
    try:
        for name in workloads.WORKLOADS:
            ctx, ops = workloads.build(name, 0, workdir, {})
            results = worker.finish_pass(ctx, worker.run_pass(ctx, ops, "plain"),
                                         check=False)
            refs = {}
            for op, res in zip(ops, results):
                if op.seeded or res["error"] is not None:
                    continue
                entry = {"values": {k: v for k, v in res["values"].items()
                                    if k not in UNCOMPARED}}
                if op.name.startswith("cli-"):
                    entry["body_sha256"] = res["values"]["digest"]
                refs[op.name] = entry
            reference[name] = refs
            print(f"{name}: {len(refs)} reference ops")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
