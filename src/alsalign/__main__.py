"""Process entry of the ``alsalign`` script and of ``python -m alsalign``."""

import os
import sys


def main() -> int:
    # alsalign never calls BLAS (the exact re-score is np.add.reduce, the FFT
    # pocketfft), so no output bit depends on this. It saves the CPU of the
    # worker OpenBLAS otherwise starts per extra core when numpy loads, which
    # spins for about 0.1 s before it sleeps. It must run before numpy is
    # imported, and a value the user set is kept. cli.main and the library
    # leave the environment alone, so in-process callers see no side effect.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
