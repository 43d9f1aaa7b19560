"""`python -m isobench`: the same command line as the `isobench` script."""

from .cli import console_main

if __name__ == "__main__":
    console_main()
