"""Report-only pass: elapsed time of each acceptance criterion that has a
wall-clock bound, against that bound.

    python3 perfbench/headroom.py

Calls the criteria's functions in tests/test_acceptance.py directly, not
through pytest, one after another in this process.  Prints one line per
criterion and, last, a JSON object keyed by criterion number.  This pass
is not a benchmark workload and never feeds the regression check; it
shows how close each bound is before a change trips it.
"""

import os

# pinned as in the benchmark children; must precede the numpy import
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# criterion -> (test function, wall-clock bound in seconds)
BOUNDS = {
    1: ("test_criterion_1_oracle_equivalence", 5.0),
    2: ("test_criterion_2_coefficient_identities", 1.0),
    3: ("test_criterion_3_row_identity_oracle", 1.0),
    4: ("test_criterion_4_intermediate_vs_meanfield_bound", 10.0),
    9: ("test_criterion_9_concentration_bounds", 30.0),
    10: ("test_criterion_10_tree_scaling", 60.0),
}


def main():
    tests_dir = os.path.join(ROOT, "tests")
    if not os.path.isfile(os.path.join(tests_dir, "test_acceptance.py")):
        print(f"no acceptance tests under {tests_dir}", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), tests_dir]
    import test_acceptance

    report = {}
    for num, (name, bound) in BOUNDS.items():
        start = time.perf_counter()
        try:
            getattr(test_acceptance, name)()
            passed = True
        except AssertionError:
            passed = False
        elapsed = time.perf_counter() - start
        report[num] = {"elapsed_s": elapsed, "bound_s": bound, "headroom_s": bound - elapsed,
                       "used": elapsed / bound, "passed": passed}
        print(f"criterion {num}: {elapsed:.3f} s of {bound:g} s "
              f"({100 * elapsed / bound:.0f}% used), {'PASS' if passed else 'FAIL'}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
