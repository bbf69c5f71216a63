"""Golden answers: one committed reply per request of each workload's grid.

An entry is the full canonical reply (plan, predicted or realized
good/bad counts, times, feasible/satisfied flags) that a *fresh* service
gives when it answers that request alone, right after its set-up.  Entries
are keyed by request, not by position, so any seed's sequence can be
checked.  Every reply is also checked against invariants that need no
golden file.

Regenerate (after a change that is meant to alter answers) with::

    python3 perfbench/golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE / "golden"


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


def load(workload: str) -> Dict[str, Dict[str, Any]]:
    with open(golden_path(workload), encoding="utf-8") as handle:
        return json.load(handle)["entries"]


def invariant_errors(request: Any, response: Dict[str, Any]) -> List[str]:
    """Checks every reply must pass, golden file or not."""
    errors: List[str] = []
    if response.get("mode") != request.mode:
        errors.append("mode differs from the request's")
    if (response.get("tau_good"), response.get("tau_bad")) != (
        request.tau_good,
        request.tau_bad,
    ):
        errors.append("requirement differs from the request's")
    planned = response.get("plan") is not None
    if bool(response.get("feasible")) != planned:
        errors.append("feasible flag disagrees with the plan")
    if request.mode == "execute" and planned:
        good, bad = response.get("good"), response.get("bad")
        if good is None or bad is None:
            errors.append("executed plan without realized counts")
        else:
            met = good >= request.tau_good and bad <= request.tau_bad
            if response.get("satisfied") != met:
                errors.append("satisfied != (good >= τg and bad <= τb)")
    if request.mode == "plan" and planned:
        if response.get("predicted_good") is None:
            errors.append("plan without predicted counts")
    return errors


def check(
    golden: Dict[str, Dict[str, Any]], request: Any, response: Optional[Dict[str, Any]]
) -> List[str]:
    """Every reason a reply is not correct (empty: correct)."""
    if response is None:
        return ["no reply"]
    errors = invariant_errors(request, response)
    expected = golden.get(request.key)
    if expected is None:
        errors.append(f"no golden entry for {request.key}")
    elif expected != response:
        differing = sorted(
            k
            for k in set(expected) | set(response)
            if expected.get(k) != response.get(k)
        )
        errors.append(f"differs from golden in {', '.join(differing)}")
    return errors


def regenerate(workload_names: List[str]) -> None:
    """Answer every grid request on its own fresh service; write the files."""
    from run import import_program, work_dir
    from harness import Rig
    from workloads import WORKLOADS

    repro = import_program()
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in workload_names:
        workload = WORKLOADS[name]
        entries: Dict[str, Any] = {}
        with work_dir() as scratch:
            rig = Rig(workload, scratch / "store", repro)
            for step in rig.testbed_steps():
                step()
            for request in workload.grid_requests():
                try:
                    for step in rig.service_steps():
                        step()
                    entries[request.key] = json.loads(rig.answer(request))
                finally:
                    rig.close()
        with open(golden_path(name), "w", encoding="utf-8") as handle:
            json.dump(
                {"workload": name, "entries": entries},
                handle,
                indent=1,
                sort_keys=True,
                ensure_ascii=False,
            )
            handle.write("\n")
        print(f"{name}: {len(entries)} entries", file=sys.stderr)


if __name__ == "__main__":
    from workloads import WORKLOADS

    regenerate(sys.argv[1:] or list(WORKLOADS))
