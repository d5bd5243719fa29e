"""``python -m monotrick``: the ``monotrick`` command."""

from .cli import entry

if __name__ == "__main__":
    entry()
