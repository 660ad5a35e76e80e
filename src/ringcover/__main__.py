"""`python -m ringcover ...` runs the command-line front end."""

from .cli import main

main()
