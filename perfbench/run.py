"""Benchmark of sparse_kacrice: exact-oracle workloads, one JSON result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload quadrature --seed 1 --seconds 30 --trace 0

Workloads are ``quadrature``, ``montecarlo`` and ``psi-scan``; see
``perfbench/README.md``.  The package is imported from the checkout's
``src/``; without one the benchmark exits with status 1 and no result.
"""

import os
import sys

#: One BLAS thread for this process and its children, so that runs do not
#: contend with each other for the cores.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _import_checkout_package() -> None:
    src = os.path.join(os.getcwd(), "src")
    package = os.path.join(src, "sparse_kacrice")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        sys.exit(f"perfbench: no sparse_kacrice package under {src}; run from a checkout root")
    sys.path.insert(0, src)
    import sparse_kacrice

    if os.path.dirname(os.path.abspath(sparse_kacrice.__file__)) != package:
        sys.exit(f"perfbench: imported sparse_kacrice from {sparse_kacrice.__file__}, not {package}")


if __name__ == "__main__":
    _import_checkout_package()
    import harness

    sys.exit(harness.main(sys.argv[1:]))
