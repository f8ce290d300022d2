"""`python -m orbitq` runs the `orbit` command."""

from .cli import main

main()
