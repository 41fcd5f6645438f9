"""Write reference.json: the outputs that later runs must reproduce.

    python3 perfbench/freeze.py

Runs the full and the tiny pass of sweep, certify and scale, and takes
the library values behind every cli document; refuses to write when any
invariant check fails. The seed changes no output, so one seed serves.
Rerun it only when a change is meant to alter these outputs, and say so
in the change.
"""

import json
import sys

import run


def main():
    run.import_package()
    import workloads

    frozen = {}
    for name in ("sweep", "certify", "scale"):
        wl = workloads.WORKLOADS[name]
        frozen[name] = {}
        for case in wl.cases(0) + wl.cases(0, tiny=True):
            summary, problems = wl.check(case, wl.run(case), None)
            if problems:
                sys.exit(f"{name} {case.label}: {problems}")
            frozen[name][case.label] = summary
            print(name, case.label, summary, flush=True)
    frozen["cli"] = {f: workloads.cli_reference(f) for f in workloads.CLI_FILES}
    workloads.REFERENCE.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
