"""The repo benchmark (see bench/README.md); entry point is bench/run.py."""
