"""``python -m totalparts``: the same command line as ``totalparts``."""

from .cli import main

if __name__ == "__main__":
    main()
