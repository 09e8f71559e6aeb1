"""Rebuild discover_reference.json: the span of the generators plinth returns
for every discover request of the default seed, rounds 0 to ROUNDS - 1.

Run from the repository root, only when the discover inputs change:

    python3 perfbench/record_reference.py

Spans are stored as [rank, digest of the reduced echelon form], so a change
to the oracle's canonical form of its basis still matches.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

ROUNDS = 64  # about three times the rounds a 30 s run reaches


def main():
    reference = {}
    for rnd in range(ROUNDS):
        for req in workloads.setup("discover", workloads.DEFAULT_SEED, rnd):
            reference[req.label] = workloads.span_key(req.execute().generators)
    lines = ["%s: %s" % (json.dumps(k), json.dumps(v)) for k, v in sorted(reference.items())]
    workloads.REFERENCE_FILE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print("%d spans written to %s" % (len(reference), workloads.REFERENCE_FILE.name))


if __name__ == "__main__":
    main()
