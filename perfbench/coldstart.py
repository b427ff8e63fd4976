"""Cold set-up in a fresh interpreter: import bctransforms, then the first rule builds.

Usage: python3 perfbench/coldstart.py SRC_DIR

Prints one JSON object: ``setup_s`` (import plus the three builds),
``import_s``, ``rule_ms`` per order, and ``problem`` (``null`` when every rule
integrates the weight to sqrt(pi)).  The rule cache is empty in a fresh
process, so each build is a first call.
"""

import json
import math
import os
import sys
import time

RULE_ORDERS = (64, 256, 1000)


def main(src: str) -> int:
    start = time.perf_counter()
    sys.path.insert(0, src)
    import bctransforms

    import_s = time.perf_counter() - start
    if not os.path.realpath(bctransforms.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"bctransforms was imported from {bctransforms.__file__}, not {src}", file=sys.stderr)
        return 2
    rule_ms, rules = {}, []
    for order in RULE_ORDERS:
        t0 = time.perf_counter()
        rules.append(bctransforms.gauss_hermite(order))
        rule_ms[str(order)] = (time.perf_counter() - t0) * 1e3
    problem = None
    for rule in rules:
        if not abs(float(rule.weights.sum()) - math.sqrt(math.pi)) <= 1e-12:
            problem = f"order {rule.order} weights do not sum to sqrt(pi)"
    setup_s = import_s + sum(rule_ms.values()) / 1e3
    print(json.dumps({"setup_s": setup_s, "import_s": import_s, "rule_ms": rule_ms, "problem": problem}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
