"""Run every workload once, each in its own process, and print every
end-to-end metric by name and unit, with the failed fraction.

    python3 perfbench/report.py [--seed N] [--seconds S]
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = p.parse_args()
    for w in bench["workloads"]:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600, check=True,
        )
        lines = done.stdout.splitlines()
        result = json.loads(lines[-1])
        print(f"{w['name']}: {lines[0]}")
        print(f"  failed_frac = {result['failed'] / result['attempted']:.4g} "
              f"({result['failed']} of {result['attempted']}), correct = {result['correct']}")
        for name, m in result["metrics"].items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(lines[-2])


if __name__ == "__main__":
    main()
