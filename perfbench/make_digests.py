"""Record the digest of the canonical output of every job input the gate checks
against stored values: every table, verify and stable input of the full and
tiny mixes, and the powers (c^n)^k with k < n of the ring mixes (higher powers
are checked against zero, ring cups against commutativity).

    python3 perfbench/make_digests.py

Run it only at a commit whose outputs are known good; it overwrites
``perfbench/digests.json``.  Jobs run through the benchmark's own child, so
the canonical forms are the ones the benchmark checks.
"""

from __future__ import annotations

import json
import sys
import time

from run import run_job
from workloads import DIGEST_FILE, all_digest_jobs, all_power_inputs, power_input, power_key

CAP_S = 600.0


def main() -> int:
    jobs = all_digest_jobs(tiny=False) + all_digest_jobs(tiny=True)
    for n, k in sorted(set(all_power_inputs(tiny=False)) | set(all_power_inputs(tiny=True))):
        op = {"call": "normal_form", "n": n, "expr": power_input(n, k), "expect": ["digest", power_key(n, k)]}
        jobs.append({"label": f"power n={n} k={k}", "ops": [op]})
    digests = {}
    for job in jobs:
        result = run_job(job, CAP_S, trace=False, deadline=time.monotonic() + CAP_S)
        for op, res in zip(job["ops"], result["ops"]):
            if res["status"] != "ok":
                print(f"{job['label']}: {res['status']} {res.get('error', '')}", file=sys.stderr)
                return 1
            digests[op["expect"][1]] = res["digest"]
        print(f"{job['label']}: {result['job_s']:.2f} s", file=sys.stderr)
    DIGEST_FILE.write_text(json.dumps(dict(sorted(digests.items())), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
