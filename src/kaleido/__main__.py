"""``python -m kaleido``: the same command line as the ``kaleido`` script."""

import sys

from .cli import main

sys.exit(main())
