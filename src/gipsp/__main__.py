"""``python -m gipsp``: the ``gipsp`` command line (see :mod:`gipsp.cli`)."""
from .cli import console_entry

if __name__ == "__main__":
    console_entry()
