"""`python -m mathemb`: the same command line as the `mathemb` executable."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
