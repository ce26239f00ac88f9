"""Run the benchmark over several seeds per workload and record the figures.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Each run is a separate ``run.py`` process, one at a time: every workload of
``BENCHMARK.json`` untraced with seeds 1 to 10, then traced with seeds 1 and
2. For every workload the record keeps each run's result line, and per
metric the median, the quartiles and their distance as a share of the
median, computed as ``statistics.quantiles(values, n=4)`` does.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = range(1, 11)
TRACED_SEEDS = range(1, 3)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n"
                         f"{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    env = next(json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("environment "))
    return {"seed": seed, "environment": env, **result}


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        entry = {"unit": runs[0]["metrics"][name]["unit"], "median": median}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
        out[name] = entry
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        plain = [run_once(name, s, spec["run_seconds"], 0) for s in SEEDS]
        traced = [run_once(name, s, spec["run_seconds"], 1) for s in TRACED_SEEDS]
        record["environment"] = plain[0].pop("environment")
        for r in plain + traced:
            r.pop("environment", None)
        record["workloads"][name] = {
            "end_to_end": summarize(plain),
            "per_layer": summarize(traced),
            "runs": plain + traced,
        }
        for metric, entry in record["workloads"][name]["end_to_end"].items():
            print(f"{name:9s} {metric:14s} median {entry['median']:.6g} {entry['unit']}"
                  f"  spread {entry.get('spread')}", flush=True)
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
