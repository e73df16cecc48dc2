"""`python -m wh3`: the wh3 command line."""

from .cli import main

if __name__ == "__main__":
    main()
