"""Record the anchor digests that every benchmark run checks.

Run from the root of a checkout:

  PYTHONPATH=src python3 perfbench/record_reference.py

Record again only after a deliberate change of what certificates assert
(verdict, primes, ind_p, exact, dedekind, field_disc or trust), and say so
in the change.
"""

import json
from pathlib import Path

import workloads

lib = workloads.load_library()
reference = {
    name: {
        "seed": workloads.ANCHOR_SEED,
        "anchors": w.anchors,
        "digest": workloads.digest(workloads.run_anchors(lib, name)[1]),
    }
    for name, w in workloads.WORKLOADS.items()
    if w.has_reference
}
path = Path(__file__).resolve().parent / "reference.json"
path.write_text(json.dumps(reference, indent=2) + "\n")
print(json.dumps(reference, indent=2))
