"""``python -m socialplan``: the command-line interface of socialplan.cli."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
