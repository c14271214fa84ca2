"""``python -m sobprod``: the same command line as the ``sobprod`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
