"""Write bench/reference.json: every workload's outputs on its canonical
(seed 0) input, which later runs on that input must reproduce.

    python3 bench/make_reference.py

Run it from the root of a source checkout of the commit whose outputs are
the reference.
"""
import json
import sys

from run import SRC

sys.path.insert(0, SRC)
from workloads import REFERENCE_PATH, WORKLOADS, attempt  # noqa: E402


def main():
    ref = {}
    for name, workload in WORKLOADS.items():
        params = workload.params(0)
        run = attempt(workload, params)
        if run.problems:
            sys.exit("%s: %s" % (name, "; ".join(run.problems)))
        outputs = {k: v for k, v in run.outputs.items()
                   if k not in ("defect", "osc2_recomputed")}
        ref[name] = {"params": params, "outputs": outputs}
        print(name, outputs["status"], outputs["nT"], outputs["iterations"])
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
