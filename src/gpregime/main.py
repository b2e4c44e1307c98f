"""Console entry point of the `gpregime` command.

The command runs on one BLAS/OpenMP thread unless the caller's
environment sets OPENBLAS_NUM_THREADS or OMP_NUM_THREADS; numpy reads
them when it loads, hence before the cli is imported. On the default
config and the 4-mode, cap-5 fock suites, a threaded pool spends CPU
for no wall-time gain. On a two-core machine, growth suites at caps
of 1,820 and 3,060 states ran their dense exponentials, products and
eigenvalue solves 1.7 times faster on two threads, so set the
variables for large caps.
"""

import os
import sys


def main(argv=None):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    from .cli import main as cli_main
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
