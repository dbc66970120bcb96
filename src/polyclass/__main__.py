"""``python -m polyclass``: the command line of :mod:`polyclass.cli`."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
