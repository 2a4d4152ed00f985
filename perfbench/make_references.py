#!/usr/bin/env python3
"""Recompute perfbench/references.json with the library at the current commit.

    PYTHONPATH=src python3 perfbench/make_references.py

Runs each `stat` call and each `pvalue` call on a normal sample through
`eppspulley.cli.main`, on the unpermuted base samples, at every scale.
`stat` is evaluated on the exact O(n^2) pair sum; run this only at a
commit whose statistic is computed that way.  Also stores, per beta, the
relative standard error of lambda1 under the reference spectrum protocol,
which the table2 check of criterion 2 needs.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

import workloads as W

from eppspulley import backend_name, cli
from eppspulley.spectral import nystrom_spectrum
from eppspulley.statistic import TuningParam


def main() -> int:
    refs: dict = {"backend": backend_name()}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for scale in W.SCALES:
            for name in ("stat-large", "pvalue-batch"):
                wl = W.workload(name, scale)
                W.write_inputs(wl, None, tmp)
                for op in wl.ops:
                    if op.command == "pvalue" and op.sample in W.NON_NORMAL:
                        continue
                    if cli.main(op.argv(tmp, tmp)) != 0:
                        raise SystemExit(f"{op.name} failed")
                    out = json.loads((tmp / f"{op.name}.json").read_text(encoding="utf-8"))
                    key = "statistic" if op.command == "stat" else "p_value"
                    refs[W.reference_key(scale, op)] = out[key]
                    print(W.reference_key(scale, op), out[key], file=sys.stderr)
    se_rel = {}
    for b in W.PAPER_BETAS:
        sp = nystrom_spectrum(TuningParam(b))
        first = sp.per_run[:, 0]
        se_rel[repr(b)] = float(first.std(ddof=1)) / math.sqrt(sp.runs) / float(first.mean())
    refs["lambda1_se_rel"] = se_rel
    W.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
