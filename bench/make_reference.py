"""Record the reference verdicts in bench/reference.json.

    python3 bench/make_reference.py

Runs every workload's script once with seed 0 and records each verdict
that does not depend on the seed.  A verdict that fails its hand value or
oracle, or a query that raises, stops the recording: the reference only
holds verdicts the independent checks accept.  Re-record only when a
change is meant to alter verdicts, and say so in CHANGES.md.
"""

import json
import os
import shutil
import sys

from run import HERE, REFERENCE, ROOT, canonical, run_round
from workloads import WORKLOADS, load_hotring


def main():
    hotring = load_hotring(ROOT)
    scratch = os.path.join(HERE, ".scratch", f"reference-{os.getpid()}")
    reference = {}
    try:
        for name, cls in sorted(WORKLOADS.items()):
            workload = cls(hotring, 0, os.path.join(scratch, name))
            try:
                workload.setup()
                workload.prepare()
                _, _, queries, verdicts, _ = run_round(hotring, workload, 0)
            finally:
                workload.cleanup()
            recorded = {}
            for q, verdict in zip(queries, verdicts):
                problem = verdict.get("raised") or (q.check and
                                                    q.check(verdict))
                if problem:
                    sys.exit(f"{name}/{q.qid}: {problem}")
                if q.recorded:
                    value = canonical(verdict)
                    if recorded.setdefault(q.qid, value) != value:
                        sys.exit(f"{name}/{q.qid}: verdict changes "
                                 "within one round")
            reference[name] = recorded
            print(f"{name}: {len(recorded)} verdicts")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass
    # one verdict per line, so that a changed verdict is a one-line diff
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        for w, (name, recorded) in enumerate(sorted(reference.items())):
            fh.write(f" {json.dumps(name)}: {{\n")
            lines = [f"  {json.dumps(qid)}: {json.dumps(value, sort_keys=True)}"
                     for qid, value in sorted(recorded.items())]
            fh.write(",\n".join(lines))
            fh.write("\n }" + ("," if w < len(reference) - 1 else "") + "\n")
        fh.write("}\n")


if __name__ == "__main__":
    main()
