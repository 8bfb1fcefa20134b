"""End-to-end figure-regeneration benchmark (see ``bench/README.md``)."""
