"""Set-up half of a filmstab CLI run, stopping before any numerical work.

    python3 benchmark/setup_probe.py COMMAND CONFIG.json

Loads and validates the config and builds the problem inputs, which pulls in
numpy, scipy and the filmstab modules the subcommand handlers import.  The
parent times this process from spawn to exit as ``setup_s``; it sets the
BLAS thread variables in the environment, as ``--threads`` would.
"""

import json
import sys
from pathlib import Path

from filmstab.config import build_problem_inputs, validate_config


def main(command: str, config_path: str) -> int:
    cfg = validate_config(json.loads(Path(config_path).read_text()), command)
    build_problem_inputs(cfg)
    import filmstab.flat  # noqa: F401  (imports stability, as the handlers do)

    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
