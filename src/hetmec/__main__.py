"""`python -m hetmec`: the command-line front end without an installed script."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
