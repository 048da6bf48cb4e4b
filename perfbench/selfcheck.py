#!/usr/bin/env python3
"""Benchmark self-check: two runs of kv-small and wiki-blob with the same
seed must give exactly equal deterministic counters.

    python3 perfbench/selfcheck.py

Run from the repository root.  Each run uses seed 1 and a 2 s phase.
Exits 0 when every counter matches, 1 otherwise.
"""
import json
import subprocess
import sys

COUNTERS = {
    "0": ["bytes_stored_per_user_byte"],
    "1": [
        "chunk_store.puts_per_op",
        "chunk_store.dedup_ratio",
        "pos_tree.chunks_per_put",
        "wire.bytes_per_op",
    ],
}


def run(workload, trace):
    out = subprocess.run(
        ["sh", "perfbench/run.sh", "--workload", workload, "--seed", "1",
         "--seconds", "2", "--trace", trace],
        capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["metrics"]


def main():
    ok = True
    for workload in ["kv-small", "wiki-blob"]:
        for trace, names in COUNTERS.items():
            a = run(workload, trace)
            b = run(workload, trace)
            for name in names:
                same = a[name]["value"] == b[name]["value"]
                ok = ok and same
                print(f"{workload:10s} {name:28s} {a[name]['value']!r:>22} "
                      f"{b[name]['value']!r:>22} {'equal' if same else 'DIFFERENT'}")
    print("self-check", "passed" if ok else "FAILED")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
