"""``python -m chaoscope``: the command line, as the ``chaoscope`` script runs it."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
