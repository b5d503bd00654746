import os
import sys

from .cli import main


def run() -> int:
    """``main()`` for the ``diamforge`` script and ``python -m diamforge``."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (``| head``).  Point stdout at devnull
        # so the interpreter's final flush fails no more, and exit 1 quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(run())
