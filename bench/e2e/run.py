#!/usr/bin/env python3
"""End-to-end benchmark of kanon_cli and kanond (see README.md).

Run from the repository root:

  python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
      One workload. The last line of stdout is one JSON object with the
      keys correct, attempted, failed and metrics: the end-to-end metrics
      BENCHMARK.json names with --trace 0, its per-layer metrics with
      --trace 1 (0 for a layer the workload does not exercise).
  python3 bench/e2e/run.py [--seed N] [--seconds S] [--trace 0|1]
                           [--out FILE]
      Every workload; prints one JSON document with each workload's full
      kanon_bench report (every metric's sample count, median and
      quartiles, and the output digest). compare_runs.py compares two.
  python3 bench/e2e/run.py --smoke
      Small inputs, one repetition each; checks that every end-to-end
      metric appears with its unit, that each batch table equals
      kanon_cli --output byte for byte, that the traces hold the six
      layer spans, and that a workload forced to fail still prints its
      result line. Exits 1 on any failure.

Each invocation first builds kanon_bench and the tools it drives into
--build-dir (default .bench_build) from this checkout's sources. --trace 1
adds one traced repetition per workload and writes its Chrome trace to
--trace-dir (default <build dir>/traces)/<workload>.trace.json. Inputs are
generated with kanon_gendata from --seed, untimed, into a directory under
the build directory that is removed afterwards. Exit codes: 0 correct,
1 a correctness check failed, 2 usage error, missing sources or no seed
whose spec fits its table.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
DEFAULT_SEED = 20080407
SERVE_TABLES = 8
# Seeds tried per table before giving up; about half the Adult n=4000 seeds
# fit their spec (README.md).
SEED_TRIES = 64
LAYER_SPANS = ("ingest/csv", "scheme/build", "loss/precompute",
               "engine/anonymize", "verify/notion", "output/serialize")

# name -> (mode, dataset, rows, smoke rows, method, k). Why each was chosen
# is in README.md.
WORKLOADS = {
    "art-agglomerative-8k": ("batch", "art", 8000, 2000, "agglomerative", 10),
    "adult-global-4k": ("batch", "adult", 4000, 2000, "global", 10),
    "art-fulldomain-500k": ("batch", "art", 500000, 2000, "full-domain", 20),
    "serve-closed-loop": ("serve", "art", 200, 200, "agglomerative", 10),
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def run(cmd, **kwargs):
    # Tool chatter goes to stderr: stdout carries only the result.
    return subprocess.run([str(c) for c in cmd], stdout=kwargs.pop(
        "stdout", sys.stderr), **kwargs)


def build(build_dir):
    for path in ("src/kanon", "tools/kanond.cc", "BENCHMARK.json"):
        if not (ROOT / path).exists():
            log(f"run.py: {ROOT / path} is missing; run from a full checkout")
            sys.exit(2)
    configure = ["cmake", "-S", ROOT / "bench/e2e", "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
                "--target", "kanon_bench"]
    for cmd in (configure, compile_):
        if run(cmd).returncode != 0:
            log("run.py: build failed")
            sys.exit(2)


def tool(build_dir, name):
    if name == "kanon_bench":
        return build_dir / name
    return build_dir / "tools" / name


def gendata(build_dir, dataset, rows, seed, stem):
    run([tool(build_dir, "kanon_gendata"), f"--dataset={dataset}",
         f"--rows={rows}", f"--seed={seed}", f"--output={stem}.csv",
         f"--spec-out={stem}.spec"], check=True, stderr=subprocess.DEVNULL)


def spec_error(build_dir, stem):
    """The input guard: None when the spec fits the schema inferred from
    the CSV (kanon_cli --print-spec exits 0), else kanon_cli's last line of
    error output, which names the value the table lacks."""
    proc = run([tool(build_dir, "kanon_cli"), f"--input={stem}.csv",
                f"--spec={stem}.spec", "--print-spec"],
               stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode == 0:
        return None
    return (proc.stderr.strip().splitlines() or [f"exit {proc.returncode}"])[-1]


def make_table(build_dir, dataset, rows, seed, stem):
    """Writes the table of the first seed from `seed` on whose spec fits its
    CSV and returns that seed. kanon_gendata's spec names every domain
    value, and a small sample can miss one (README.md, known gaps)."""
    for tried in range(seed, seed + SEED_TRIES):
        gendata(build_dir, dataset, rows, tried, stem)
        error = spec_error(build_dir, stem)
        if error is None:
            return tried
        log(f"run.py: {dataset} seed {tried} skipped: {error}")
    log(f"run.py: no {dataset} seed in [{seed}, {seed + SEED_TRIES}) fits"
        " its spec")
    sys.exit(2)


def make_inputs(build_dir, name, seed, smoke, work):
    mode, dataset, rows, smoke_rows, _, _ = WORKLOADS[name]
    rows = smoke_rows if smoke else rows
    if mode == "batch":
        make_table(build_dir, dataset, rows, seed, work / "input")
        return
    for i in range(SERVE_TABLES):
        seed = make_table(build_dir, dataset, rows, seed, work / f"t{i}") + 1


def bench_command(build_dir, name, seconds, smoke, work, trace_dir):
    mode, _, _, _, method, k = WORKLOADS[name]
    cmd = [tool(build_dir, "kanon_bench"), f"--mode={mode}", f"--name={name}",
           f"--k={k}", f"--seconds={seconds}", f"--work-dir={work}"]
    if mode == "batch":
        cmd += [f"--csv={work / 'input.csv'}", f"--spec={work / 'input.spec'}",
                f"--method={method}"]
    else:
        cmd += [f"--inputs={work}", f"--kanond={tool(build_dir, 'kanond')}"]
    if trace_dir is not None:
        cmd.append(f"--trace-dir={trace_dir}")
    if smoke:
        cmd.append("--smoke")
    return cmd


def parse_report(name, proc):
    """kanon_bench's report, or a failed one when it printed none."""
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        report = {"workload": name, "correct": False, "attempted": 1,
                  "failed": 1, "digest": "", "metrics": {},
                  "errors": [f"kanon_bench exited {proc.returncode} without"
                             " a report"]}
    report["exit_code"] = proc.returncode or (0 if report["correct"] else 1)
    return report


def run_workload(build_dir, name, seed, seconds, trace_dir=None, smoke=False,
                 check=None, env=None):
    """Runs one workload in its own kanon_bench process, with `env` as its
    environment when given; returns its report. `check(work, report)` runs
    before the inputs are removed."""
    work = build_dir / "work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        make_inputs(build_dir, name, seed, smoke, work)
        proc = run(bench_command(build_dir, name, seconds, smoke, work,
                                 trace_dir),
                   stdout=subprocess.PIPE, text=True, env=env)
        report = parse_report(name, proc)
        if check is not None:
            check(work, report)
        return report
    finally:
        shutil.rmtree(work, ignore_errors=True)


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def contract_line(report, trace):
    """The one-workload result line: the declared metrics, by median. A
    failed run can lack end-to-end metrics; they are left out, and the line
    still carries its failure count."""
    end_to_end, per_layer = declared_metrics()
    measured = report["metrics"]
    metrics = {}
    for metric in per_layer if trace else end_to_end:
        name = metric["name"]
        if name in measured:
            value = measured[name]["median"]
        elif trace:
            value = 0.0  # A layer this workload does not exercise.
        else:
            continue
        metrics[name] = {"value": value, "unit": metric["unit"]}
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def smoke(build_dir):
    end_to_end, per_layer = declared_metrics()
    units = {m["name"]: m["unit"] for m in end_to_end + per_layer}
    trace_dir = build_dir / "smoke-traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    problems = []

    def check(work, report):
        name = report["workload"]
        if not report["correct"]:
            problems.append(f"{name}: incorrect: {report['errors']}")
        for metric in end_to_end:
            if metric["name"] not in report["metrics"]:
                problems.append(f"{name}: {metric['name']} missing")
        for metric, got in report["metrics"].items():
            if metric in units and got["unit"] != units[metric]:
                problems.append(f"{name}: {metric} in {got['unit']}, declared"
                                f" {units[metric]}")
        if WORKLOADS[name][0] != "batch":
            return
        # kanon_cli at its default thread count: tables are byte-identical
        # at every count, so this also checks kanon_bench's two threads.
        _, _, _, _, method, k = WORKLOADS[name]
        cli_out = work / "cli.csv"
        run([tool(build_dir, "kanon_cli"), f"--input={work / 'input.csv'}",
             f"--spec={work / 'input.spec'}", f"--k={k}", f"--method={method}",
             f"--output={cli_out}"], stderr=subprocess.DEVNULL)
        if not cli_out.exists() or (cli_out.read_bytes()
                                    != (work / f"{name}.out.csv").read_bytes()):
            problems.append(f"{name}: table differs from kanon_cli --output")
        trace = json.loads((trace_dir / f"{name}.trace.json").read_text())
        spans = {event.get("name") for event in trace["traceEvents"]}
        missing = [span for span in LAYER_SPANS if span not in spans]
        if missing:
            problems.append(f"{name}: trace lacks spans {missing}")

    for name in WORKLOADS:
        run_workload(build_dir, name, DEFAULT_SEED, 1, trace_dir, True, check)

    # A workload that fails (here: every CSV open refused, so the warm-up
    # fails) must still print its result line, with correct false.
    failing = run_workload(build_dir, "art-agglomerative-8k", DEFAULT_SEED, 1,
                           smoke=True,
                           env={**os.environ, "KANON_FAILPOINTS": "csv.open"})
    line = contract_line(failing, 0)
    if line["correct"] or line["failed"] < 1 or failing["exit_code"] != 1:
        problems.append(f"forced failure reported as {line},"
                        f" exit {failing['exit_code']}")
    for problem in problems:
        log(f"bench_smoke: {problem}")
    print("bench_smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", type=Path)  # Default: build/traces.
    parser.add_argument("--out", type=Path)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--build-dir", type=Path, default=Path(".bench_build"))
    args = parser.parse_args()
    build_dir = args.build_dir.resolve()
    build(build_dir)
    trace_dir = None
    if args.trace:
        trace_dir = (args.trace_dir or build_dir / "traces").resolve()
        trace_dir.mkdir(parents=True, exist_ok=True)
    if args.smoke:
        return smoke(build_dir)
    if args.workload is not None:
        report = run_workload(build_dir, args.workload, args.seed,
                              args.seconds, trace_dir)
        print(json.dumps(contract_line(report, args.trace)))
        return report["exit_code"]
    doc = {"seed": args.seed, "seconds": args.seconds,
           "cpus": os.cpu_count(), "workloads": {}}
    for name in WORKLOADS:
        log(f"run.py: {name}")
        doc["workloads"][name] = run_workload(
            build_dir, name, args.seed, args.seconds, trace_dir)
    text = json.dumps(doc, indent=1, sort_keys=True)
    if args.out is not None:
        args.out.write_text(text + "\n")
    print(text)
    return max(r["exit_code"] for r in doc["workloads"].values())


if __name__ == "__main__":
    sys.exit(main())
