"""Process set-up shared by the benchmark entry points.

Import this module before numpy: it pins every BLAS pool to one thread
through the environment, which the BLAS library reads once when it loads.
It imports nothing heavy itself.
"""
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Exit code for a checkout without the library source; no result is printed.
EXIT_NO_LIBRARY = 2


class LibraryMissing(RuntimeError):
    pass


def import_library():
    """Import ``qincompat`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "qincompat" / "__init__.py").is_file():
        raise LibraryMissing(f"no library source at {SRC / 'qincompat'}")
    sys.path.insert(0, str(SRC))
    import qincompat

    origin = Path(qincompat.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise LibraryMissing(f"qincompat was imported from {origin}, not from {SRC}")
    return qincompat
