#!/usr/bin/env python3
"""Self-test of the hwsec benchmark at tiny sizes.

    python3 perfbench/selftest.py

Asserts that every run prints every metric of BENCHMARK.json with its unit
(end-to-end metrics non-zero, each workload's own layers non-zero in a
traced run), that every output check fires when its result is corrupted,
that the simulated sim.* counts repeat exactly between two traced runs,
and that run.py fails without printing a result when the repository's
sources are missing.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "0.5"

# Layers each workload must measure (non-zero) in a traced run.
OWN_LAYERS = {
    "campaign_mobile": ["machine_pool.acquire_us", "attacks.plant_us", "sim.leak_us",
                        "sim.retired", "sim.loads", "sim.l1_hits", "sim.ns_per_retired",
                        "campaign.overhead_us", "checkpoint.saves", "checkpoint.cost_ms",
                        "shard.assignments", "shard.worker_cpu_ms", "shard.worker_rss_mib",
                        "service.submit_ms", "service.direct_ms", "service.result_wait_ms",
                        "service.daemon_cpu_ms"],
    "fuzz_allarch": ["machine_pool.acquire_us", "machine_pool.builds", "sim.mpu_run_us",
                     "sim.mmu_run_us", "sim.fresh_build_us", "conformance.generate_us",
                     "conformance.reference_us", "conformance.install_us",
                     "conformance.diff_us", "conformance.arch_context_ms",
                     "campaign.overhead_us"],
    "sca_stream": ["capture.batch_us", "campaign.overhead_us", "sca.add_batch_us", "sca.merge_ms",
                   "sca.finalize_ms"],
}
# (workload, trace, check) for every output check the benchmark makes.
CHECKS = [("campaign_mobile", "0", "leak"), ("campaign_mobile", "1", "digest"),
          ("campaign_mobile", "1", "job_digest"), ("fuzz_allarch", "0", "divergence"),
          ("sca_stream", "0", "key")]
SIM_COUNTS = ["sim.retired", "sim.loads", "sim.l1_hits", "sim.llc_hits", "sim.dram_accesses"]

failures = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, seed=3, corrupt="", cwd=ROOT):
    command = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", SECONDS, "--trace", trace]
    if corrupt:
        command += ["--corrupt", corrupt]
    out = subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600,
                         check=False)
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None and not corrupt and cwd == ROOT:
        sys.stderr.write(out.stdout[-2000:] + out.stderr[-2000:])
    return out.returncode, result


def check_metrics(workload, trace, result, defs):
    metrics = result["metrics"]
    for d in defs:
        m = metrics.get(d["name"])
        expect(m is not None and m.get("unit") == d["unit"],
               f"{workload} trace={trace}: {d['name']} printed in {d['unit']}")
    expect(set(metrics) == {d["name"] for d in defs},
           f"{workload} trace={trace}: no metric outside BENCHMARK.json")
    expect(result["attempted"] >= 1 and result["failed"] == 0,
           f"{workload} trace={trace}: attempted >= 1, failed == 0")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = list(OWN_LAYERS)
    expect(workloads == [w["name"] for w in bench["workloads"]],
           "BENCHMARK.json names every workload the self-test covers")
    sim_counts = []
    for workload in workloads:
        code, result = run(workload, "0")
        expect(code == 0 and result is not None and result["correct"],
               f"{workload}: untraced run passes its output checks")
        if result:
            check_metrics(workload, "0", result, bench["end_to_end"])
            for d in bench["end_to_end"]:
                expect(result["metrics"].get(d["name"], {}).get("value", 0) > 0,
                       f"{workload}: {d['name']} is non-zero")
        code, result = run(workload, "1")
        expect(code == 0 and result is not None and result["correct"],
               f"{workload}: traced run passes its output checks")
        if result:
            check_metrics(workload, "1", result, bench["per_layer"])
            for name in OWN_LAYERS[workload]:
                expect(result["metrics"].get(name, {}).get("value", 0) > 0,
                       f"{workload}: traced {name} is non-zero")
            if workload == "campaign_mobile":
                sim_counts.append([result["metrics"][n]["value"] for n in SIM_COUNTS])

    code, result = run("campaign_mobile", "1", seed=4)
    if result:
        sim_counts.append([result["metrics"][n]["value"] for n in SIM_COUNTS])
    expect(len(sim_counts) == 2 and sim_counts[0] == sim_counts[1],
           f"sim.* counts repeat exactly between traced runs: {sim_counts}")

    for workload, trace, check in CHECKS:
        code, result = run(workload, trace, corrupt=check)
        expect(code == 1 and result is not None and not result["correct"],
               f"{workload} trace={trace}: corrupting '{check}' fails the run")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    code, result = run(workloads[0], "0", cwd=bare)
    expect(code != 0 and result is None, "without the sources: non-zero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
