"""`python -m sunlab` runs the `sunlab` command."""
from .cli import main

if __name__ == "__main__":
    main()
