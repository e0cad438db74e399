"""Run every workload on several seeds and record a baseline.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

Seeds run in the outer loop and workloads in the inner one, so host drift
spreads over every workload instead of landing on one. Each workload then
gets one traced run on the first seed. For each end-to-end metric the output
holds the values, median, quartiles and spread (quartile distance over
median, as ``statistics.quantiles(values, n=4)`` gives them) next to the
bound from BENCHMARK.json; the detail metrics are medians and the per-layer
metrics come from the traced run.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited "
                         f"{proc.returncode}:\n{proc.stderr}{proc.stdout[-2000:]}")
    detail, final = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return detail, final


def _summary(values, bound):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "bound": bound,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--out", type=Path, default=ROOT / "perfbench" / "baseline.json")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    runs = {name: [] for name in names}
    for seed in args.seeds:
        for name in names:
            detail, final = _run(name, seed, seconds, 0)
            runs[name].append((detail, final))
            print(name, seed, json.dumps({k: round(v["value"], 5)
                                          for k, v in final["metrics"].items()}), flush=True)

    result = {"run_seconds": seconds, "seeds": args.seeds,
              "manifest": runs[names[0]][0][0]["manifest"], "workloads": {}}
    ok = True
    for name in names:
        finals = [f for _, f in runs[name]]
        details = [d for d, _ in runs[name]]
        entry = {
            "attempted": sum(f["attempted"] for f in finals),
            "failed": sum(f["failed"] for f in finals),
            "calibration_s": [d["manifest"]["calibration_s"] for d in details],
            "end_to_end": {m: _summary([f["metrics"][m]["value"] for f in finals], bounds[m])
                           for m in bounds},
            "detail": {m: statistics.median(d["all_metrics"][m]["value"] for d in details)
                       for m in details[0]["all_metrics"]},
        }
        traced_detail, traced_final = _run(name, args.seeds[0], seconds, 1)
        entry["per_layer"] = {m: v["value"] for m, v in traced_detail["all_metrics"].items()}
        entry["traced_failed"] = traced_final["failed"]
        result["workloads"][name] = entry
        for metric, s in entry["end_to_end"].items():
            flag = "ok" if s["spread"] <= s["bound"] / 3 else (
                "within bound" if s["spread"] <= s["bound"] else "OVER BOUND")
            ok &= metric == "setup_s" or s["spread"] <= s["bound"]
            print(f"{name:16s} {metric:14s} median {s['median']:.6g} "
                  f"spread {s['spread']:.3f} bound {s['bound']} {flag}")
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
