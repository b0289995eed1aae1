"""`python -m onoffgraph`: the command-line interface of onoffgraph.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
