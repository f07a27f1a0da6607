"""The end-to-end benchmark's own code (see ../README.md); ``run.py`` is the entry point."""
