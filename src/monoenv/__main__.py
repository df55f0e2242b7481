"""``python -m monoenv``: the ``monoenv`` command, runnable from a source
checkout with ``src`` on ``PYTHONPATH``."""

import sys

from .cli import main

sys.exit(main())
