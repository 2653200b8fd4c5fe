"""``python -m counterpoint``: the command-line interface of ``cli_reports``."""

import sys

from .cli_reports import main

if __name__ == "__main__":
    sys.exit(main())
