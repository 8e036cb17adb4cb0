"""One benchmark child: import opinionlab, parse a config, run it once.

    python3 perfbench/child.py CONFIG OUT_DIR RESULT_JSON [--trace] [--setup-only]

Set-up time is measured from the first statement of this file to the
end of ``parse_config``, so it covers ``import opinionlab`` and config
parsing, which every CLI invocation pays before any sampling.  The run
time is the wall time of ``opinionlab.harness.run``.  With ``--trace``
the public layer calls are wrapped first (see spans.py) and the span
summary goes into the result file.  A failing run exits non-zero after
printing its traceback; the parent counts it as a failed operation.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_opinionlab():
    """Import the package from this checkout's source tree, never from
    an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "opinionlab", "__init__.py")):
        raise SystemExit(f"no opinionlab source tree under {SRC}")
    sys.path.insert(0, SRC)
    import opinionlab

    if not os.path.abspath(opinionlab.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"opinionlab imported from {opinionlab.__file__}, not {SRC}")


def library_facts():
    """Python, numpy, scipy and OpenBLAS versions, and the thread count
    OpenBLAS actually runs with."""
    import ctypes
    import glob

    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    facts = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration") or blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": None,
    }
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*.so*")
    for path in glob.glob(libs):
        get_threads = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if get_threads is not None:
            get_threads.argtypes = []
            get_threads.restype = ctypes.c_int
            facts["blas_threads"] = get_threads()
    return facts


def main(argv):
    config_path, out_dir, result_path = argv[:3]
    traced = "--trace" in argv[3:]
    setup_only = "--setup-only" in argv[3:]
    import_opinionlab()
    from opinionlab import config as configmod, harness

    tracer = None
    if traced:
        sys.path.insert(0, HERE)
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    with open(config_path, encoding="utf-8") as fh:
        text = fh.read()
    cfg = configmod.parse_config(text)
    setup_s = time.perf_counter() - _T0
    result = {"setup_s": setup_s}
    if not setup_only:
        start = time.perf_counter()
        harness.run(cfg, out_dir)
        result["wall_s"] = time.perf_counter() - start
        if tracer is not None:
            result["trace"] = tracer.summary()
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["libraries"] = library_facts()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
