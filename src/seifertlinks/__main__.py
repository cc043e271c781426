import gc
import sys

from . import cli


def main() -> int:
    """The command line of both entry points, `python -m seifertlinks` and
    the `seifertlinks` script: `cli.main`, then a frozen heap."""
    try:
        return cli.main()
    finally:
        # Interpreter exit runs full collections that visit every object the
        # import and the answer left behind; frozen objects are skipped, while
        # the flush, `atexit` handlers and the exit code stay as they were.
        gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
