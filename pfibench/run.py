#!/usr/bin/env python3
"""Build pfi_bench from this source tree and run it.

    python3 pfibench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 pfibench/run.py --smoke

The first form builds (cmake, into .bench_build/ at the repository root)
and then runs the benchmark binary from the repository root with the given
arguments; its standard output, whose last line is the JSON result, passes
through unchanged. Build output goes to standard error. A failed build exits
non-zero without printing a result.

--smoke runs every workload at 1/20 size with its checks, the traced mode on
shard4, and the self-test: a deliberately wrong reference seed must fail the
cross-check, the metric names both modes print must equal BENCHMARK.json's
lists, and malformed arguments must exit 2 naming the argument.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "pfi_bench")


def build():
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "pfi_bench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            sys.exit("pfibench: build failed: " + " ".join(cmd))


def bench(*args):
    """Run the binary; returns (exit code, stdout, stderr)."""
    p = subprocess.run([BINARY, *args], cwd=ROOT, capture_output=True,
                       text=True, timeout=600)
    return p.returncode, p.stdout, p.stderr


def result_of(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        "0": [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        "1": [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }
    problems = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            problems.append(what)

    workloads = [w["name"] for w in spec["workloads"]]
    runs = [(w, "0") for w in workloads] + [("shard4", "1")]
    for workload, trace in runs:
        code, out, err = bench("--workload", workload, "--seed", "5",
                               "--seconds", "1", "--trace", trace, "--smoke")
        mode = "traced" if trace == "1" else "timed"
        check(code == 0 and result_of(out)["correct"],
              f"{workload} {mode} smoke run passes its checks"
              + ("" if code == 0 else ": " + err.strip()[-300:]))
        if code == 0:
            got = [(k, v["unit"]) for k, v in result_of(out)["metrics"].items()]
            check(got == expected[trace],
                  f"{workload} {mode} metrics equal BENCHMARK.json's list")

    code, out, _ = bench("--workload", "weight_fp32", "--seed", "5",
                         "--seconds", "1", "--trace", "0", "--smoke",
                         "--perturb-reference")
    r = result_of(out) if out.strip() else {}
    check(code == 1 and r.get("correct") is False and r.get("failed", 0) > 0,
          "a wrong reference seed fails the cross-check")

    base = ["--workload", "shard4", "--seed", "5", "--seconds", "1",
            "--trace", "0"]
    bad = [
        (["--workload", "shard4", "--seed", "4x", "--seconds", "1",
          "--trace", "0"], "--seed"),
        (base + ["--workload", "fleet_ber"], "--workload"),
        (["--workload", "nosuch", "--seed", "5", "--seconds", "1",
          "--trace", "0"], "nosuch"),
    ]
    for args, named in bad:
        code, out, err = bench(*args)
        check(code == 2 and named in err and not out.strip(),
              f"{' '.join(args)} exits 2 naming {named}")
    if problems:
        sys.exit(f"pfibench smoke: {len(problems)} check(s) failed")
    print("pfibench smoke: all checks passed")


def main():
    build()
    if sys.argv[1:] == ["--smoke"]:
        smoke()
        return
    sys.stdout.flush()
    code = subprocess.run([BINARY, *sys.argv[1:]], cwd=ROOT).returncode
    sys.exit(code)


if __name__ == "__main__":
    main()
