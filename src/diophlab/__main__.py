"""``python -m diophlab``: the ``diophlab`` command run from a source checkout."""

import sys

from diophlab.cli import main

sys.exit(main())
