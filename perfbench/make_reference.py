"""Record the seed-42 reference values the output checks compare against.

    python3 perfbench/make_reference.py

Runs each workload's set-up and one iteration at full scale and writes
``perfbench/reference.json``. Rerun it only when a change is meant to move
the pinned values, and say so where the change is described.
"""

from __future__ import annotations

import json
import shutil

from workloads import (
    DEFAULT_SEED,
    PINNED_SYSTEMS,
    REFERENCE,
    WORKLOADS,
    run_child,
    sedfuse_cmd,
    sha256_file,
)
from run import STATE


def _scores(report: dict, systems) -> dict:
    return {
        "overall": {name: report["overall"][name] for name in systems},
        "classwise_f1": {
            cls: {name: row[name] for name in systems}
            for cls, row in report["classwise_f1"].items()
        },
    }


def main() -> int:
    reference = {}
    for name, cls in WORKLOADS.items():
        work = STATE / "work" / f"reference-{name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            w = cls(DEFAULT_SEED, False, work)
            calls = w.calls(work / "out")
            for args in [w.setup_args(), *[c.args for c in calls]]:
                if run_child(sedfuse_cmd(args), work / "call.log").status != 0:
                    raise SystemExit(f"{name}: sedfuse {args[0]} failed, see {work / 'call.log'}")
            by_label = {c.label: c.out for c in calls}
            if name == "experiment-200":
                report = json.loads((by_label["experiment"] / "report.json").read_text())
                entry = _scores(report, PINNED_SYSTEMS)
                entry["final_loss"] = report["logistic"]["final_loss"]
            elif name == "score-psds":
                entry = _scores(json.loads((by_label["score"] / "report.json").read_text()), ("system",))
            else:
                meta = json.loads((by_label["fuse-logistic"] / "logistic_model.json").read_text())
                entry = {
                    "final_loss": meta["final_loss"],
                    "curves_sha256": sha256_file(by_label["fuse-pair"] / "curves.json"),
                }
            reference[name] = entry
        finally:
            shutil.rmtree(work, ignore_errors=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
