"""`python -m seps`: the `seps` command line."""

from .cli import entry

if __name__ == "__main__":
    entry()
