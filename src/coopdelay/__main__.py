"""`python -m coopdelay`: the command-line interface of `coopdelay.cli`."""

import sys

from .cli import main

if __name__ == "__main__":  # importing the module runs nothing
    sys.exit(main())
