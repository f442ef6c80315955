"""``python -m trigzeros``: the command line of trigzeros.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
