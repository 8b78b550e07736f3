"""``python -m consensus_admm``: the ``consensus-admm`` command."""

import sys

from .cli import main

sys.exit(main())
