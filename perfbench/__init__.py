"""Repository benchmark (see README.md)."""
