"""``python -m repro.service``: the ``sustainable-ai serve`` command."""

import sys

from repro.experiments import runner

if __name__ == "__main__":
    sys.exit(runner.main(["serve", *sys.argv[1:]]))
