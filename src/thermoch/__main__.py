"""``python -m thermoch``: the command-line interface of ``thermoch.io_cli``."""

import sys

from .io_cli import main

sys.exit(main())
