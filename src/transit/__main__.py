"""Run the command line from a checkout: ``python -m transit <verb> ...``."""

import sys

from .cli import main

sys.exit(main())
