"""``python -m plantedscan``: the same command line as the ``plantedscan`` script."""

from .cli import main

if __name__ == "__main__":
    main()
