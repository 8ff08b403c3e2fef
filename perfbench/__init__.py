"""Performance benchmark for qlayout; see README.md in this directory."""
