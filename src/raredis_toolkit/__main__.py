"""`python -m raredis_toolkit <subcommand> ...` runs the raredis command line."""

from .cli import main

main()
