"""`python -m driftbandit ...`: the same entry point as the `driftbandit` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
