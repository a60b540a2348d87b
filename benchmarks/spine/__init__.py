"""The measurement spine: the repository's benchmark (see README.md)."""
