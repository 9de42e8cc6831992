"""``python -m amalgam``: the ringdsl command line, e.g.

    PYTHONPATH=src python -m amalgam check corpus/duplication_z4.ring
"""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
