"""``python -m qsl``: the same command line as the installed ``qsl``."""

from .cli import main

main()
