#!/usr/bin/env python3
"""Record the byte-identity reference: the digest of every output of the
default seed's whole input pool, full size and tiny, for every workload.

Usage: python3 perfbench/record_digests.py

Rewrites perfbench/digests.json.  Run it only when a change of output is
intended; a performance change must leave the digests as they are.  It stops
without writing if any operation fails or any check rejects an output.
"""

import json
import shutil
import sys

import run


def main() -> int:
    sys.path[:0] = [str(run.ROOT / "src")]
    import workloads

    spec = run.load_spec()
    recorded = {}
    for w in spec["workloads"]:
        for tiny in (False, True):
            name = w["name"] + ("/tiny" if tiny else "")
            workdir = run.WORK / "record" / name.replace("/", "-")
            shutil.rmtree(workdir, ignore_errors=True)
            wl = workloads.WORKLOADS[w["name"]](run.DEFAULT_SEED, tiny, workdir)
            guard, tally = run.DigestGuard(None), run.Tally()
            run.run_rounds(wl.rounds, None, guard, tally)
            if tally.failures:
                print(f"error: {len(tally.failures)} failed operations in {name}; nothing written", file=sys.stderr)
                return 1
            recorded[name] = dict(sorted(guard.seen.items()))
            print(f"{name}: {len(guard.seen)} digests from {tally.attempted} operations")
            shutil.rmtree(workdir, ignore_errors=True)
    with open(run.HERE / "digests.json", "w", encoding="ascii") as fh:
        json.dump(recorded, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
