"""Rewrite perfbench/expected.json from the library as it stands.

    python3 perfbench/record.py

Runs every deep instance and the whole sweep pool of each workload once
and stores each job's fingerprint.  Use it only in a change that alters
outputs on purpose, and say in that change why each fingerprint moved.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run._cap_memory()
    out = {}
    for name in workloads.BUILDERS:
        wl = workloads.build(name, 0)
        fps = {}
        for job in wl.deep + wl.sweep:
            fp, problems = job.run()
            fps[job.id] = fp
            if problems:
                print(f"{name} {job.id}: {problems[0][:200]}", file=sys.stderr)
        out[name] = dict(sorted(fps.items()))
        print(f"{name}: {len(fps)} fingerprints", file=sys.stderr)
    # one job per line keeps later diffs readable
    blocks = []
    for name, fps in out.items():
        rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                          for k, v in fps.items())
        blocks.append(f" {json.dumps(name)}: {{\n{rows}\n }}")
    with open(run.BENCH / "expected.json", "w") as fh:
        fh.write("{\n" + ",\n".join(blocks) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
