"""``python -m convalg``: the command-line interface of ``convalg.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
