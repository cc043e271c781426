import gc
import sys

from .cli import main

try:
    sys.exit(main())
finally:
    # Interpreter exit runs full collections that visit every object the
    # import and the answer left behind; frozen objects are skipped, while
    # the flush, `atexit` handlers and the exit code stay as they were.
    gc.freeze()
