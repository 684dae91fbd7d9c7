"""Workload interpreter started by run.py; not meant to be run by hand."""

import sys

from harness import child_main

if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))
