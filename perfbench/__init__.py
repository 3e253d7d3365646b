"""The analyzer's end-to-end benchmark; ``run.py`` is the entry point."""
