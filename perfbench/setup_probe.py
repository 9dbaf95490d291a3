"""Time the program's own set-up in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR GRAPHS_JSON

Imports pebbletools from SRC_DIR (numpy comes with it) and builds one
Graph per [n, edges] entry of GRAPHS_JSON; prints the seconds this took.
Reading the JSON file is input handling and is not timed.
"""

import json
import sys
import time

src, graphs_file = sys.argv[1], sys.argv[2]
with open(graphs_file, encoding="utf-8") as fh:
    graphs = json.load(fh)
sys.path.insert(0, src)
start = time.perf_counter()
import pebbletools  # noqa: E402

built = [pebbletools.Graph(n, [tuple(e) for e in edges]) for n, edges in graphs]
print(time.perf_counter() - start)
