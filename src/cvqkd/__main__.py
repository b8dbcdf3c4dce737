"""`python -m cvqkd`: the same command line front end as `cvqkd`."""

import sys

from .cli import main

sys.exit(main())
