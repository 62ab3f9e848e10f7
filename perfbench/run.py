"""landauvar benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload exact-landau --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
`src` directory.  The run

1. generates the workload's inputs from the seed (workloads.py) and writes
   them under .perfbench/ in the checkout;
2. with --trace 0, times set-up: a fresh interpreter's `import
   landauvar.cli` plus `build_parser()`, several times;
3. starts worker.py, which runs the command list as repeated batches for
   --seconds (closed loop, one client, one thread);
   end-to-end times are normalised for the machine's speed (speed.py);
4. checks every distinct output with the oracles (oracles.py), outside the
   timed region;
5. prints a details line (tail percentile and sample count, failures, stdout
   digests, layer shares) and, last, one JSON object with the end-to-end
   metrics (--trace 0) or the per-layer metrics (--trace 1).

It exits with status 2 and prints no result when the checkout has no
landauvar sources.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
import speed
import workloads
from tracer import SPAN_NAMES

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 11
SETUP_CODE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import landauvar.cli\n"
    "landauvar.cli.build_parser()\n"
    "print(repr(time.perf_counter() - start))\n"
)
# a run must end within 180 s; leave room for generation, set-up and oracles
WORKER_DEADLINE_S = 165


def percentile(sorted_values, p):
    """Nearest-rank percentile of an already sorted list."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(per_batch: int) -> float:
    """Highest percentile with at least ten samples beyond it in one batch,
    so that it is the same for every run of a workload."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if per_batch * (1 - p / 100) >= 10:
            return p
    return 50.0


def model_tables(cli) -> dict:
    """`variation table --format json` of every builtin model."""
    tables = {}
    for model in workloads.MODELS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["variation", "table", model, "--format", "json"])
        if code != 0:
            raise RuntimeError(f"variation table {model} exited with {code}")
        tables[model] = json.loads(out.getvalue())
    return tables


def child_env(src: Path) -> dict:
    """Environment of the set-up and worker processes: the checkout's sources
    first on the path, and numerical libraries held to one thread, as the
    load model is one process with one thread.  The string hash seed is
    fixed: with a random one, dict and set layouts differ from process to
    process, and the latency of short commands with them by up to 10%
    between otherwise identical runs."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def measure_setup(src: Path) -> tuple:
    """Set-up time: the median over SETUP_REPEATS fresh interpreters of the
    time to import landauvar, each normalised by a reference interpreter
    (speed.IMPORT_CODE) started just before it; and the median raw time."""
    env = child_env(src)

    def interpreter(code):
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        return float(done.stdout.strip())

    raw, normalised = [], []
    for _ in range(SETUP_REPEATS):
        reference = interpreter(speed.IMPORT_CODE)
        raw.append(interpreter(SETUP_CODE))
        normalised.append(raw[-1] / reference * speed.REF_IMPORT_S)
    return statistics.median(normalised), statistics.median(raw)


def check_outputs(manifest, result, seed) -> dict:
    """Oracle verdict per (command id, stdout digest); None means correct."""
    specs = {c["id"]: c["check"] for c in manifest["commands"]}
    verdicts = {}
    for cid, by_digest in result["outputs"].items():
        spec = specs[cid]
        partner = None
        if "partner" in spec:
            partner = next(iter(result["outputs"][spec["partner"]].values()))
        for digest, text in by_digest.items():
            verdicts[(cid, digest)] = oracles.check(text, spec, seed, partner)
    return verdicts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.perf_counter()

    root = HERE.parent
    src = root / "src"
    if not (src / "landauvar" / "cli.py").is_file():
        print(f"error: no landauvar sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import landauvar
    import landauvar.cli as cli

    if Path(landauvar.__file__).resolve().parent != (src / "landauvar").resolve():
        print(f"error: imported landauvar from {landauvar.__file__}, not {src}",
              file=sys.stderr)
        return 2

    run_dir = root / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    tables = model_tables(cli) if args.workload == "word-audit" else None
    manifest = workloads.generate(args.workload, args.seed, run_dir / "inputs", tables)
    (run_dir / "manifest.json").write_text(json.dumps(manifest, indent=1))

    setup_s, raw_setup_s = measure_setup(src) if args.trace == 0 else (None, None)

    result_path = run_dir / "result.json"
    deadline = WORKER_DEADLINE_S - (time.perf_counter() - began)
    worker = subprocess.Popen([
        sys.executable, str(HERE / "worker.py"), "--src", str(src),
        "--manifest", str(run_dir / "manifest.json"), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--out", str(result_path),
        "--spans", str(run_dir / "spans.jsonl"),
    ], env=child_env(src))
    try:
        status = worker.wait(timeout=deadline)
    except subprocess.TimeoutExpired:
        worker.kill()
        worker.wait()
        print(f"error: worker did not finish within {deadline:.0f} s", file=sys.stderr)
        return 1
    if status != 0:
        print(f"error: worker exited with status {status}", file=sys.stderr)
        return 1
    result = json.loads(result_path.read_text())

    verdicts = check_outputs(manifest, result, args.seed)
    batches = result["batches"]
    runs = [r for b in batches for r in b["runs"]]
    failed_runs = [r for r in runs
                   if r[2] != 0 or r[3] or verdicts[(r[0], r[4])] is not None]
    attempted, failed = len(runs), len(failed_runs)

    per_batch = len(manifest["commands"])
    tail_p = tail_percentile(per_batch)
    untraced = [b for b in batches if b["mode"] == "untraced"]
    traced = [b for b in batches if b["mode"] == "traced"]
    latencies = sorted(r[5] for b in untraced for r in b["runs"])
    digests = {}
    for r in runs:
        digests.setdefault(r[0], r[4])
    reasons = {}
    for r in failed_runs:
        reasons.setdefault(r[0], verdicts[(r[0], r[4])]
                           or result["errors"].get(r[0], f"exit status {r[2]}"))
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "commands_per_batch": per_batch,
        "batches": {"untraced": len(untraced), "traced": len(traced)},
        "cmd_tail_percentile": tail_p, "cmd_samples": len(latencies),
        "fail_ratio": failed / attempted,
        "failures": reasons,
        "stdout_sha256": digests,
    }

    if args.trace == 0:
        details["raw"] = {
            "setup_s": raw_setup_s,
            "wall_s": statistics.median(b["busy"] for b in untraced),
            "cpu_s": statistics.median(b["cpu"] for b in untraced),
            "cmd_p50_s": statistics.median(r[1] for b in untraced for r in b["runs"]),
        }
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(b["norm_wall"] for b in untraced),
            "cpu_s": statistics.median(b["norm_cpu"] for b in untraced),
            "cmd_p50_s": statistics.median(latencies),
            "cmd_tail_s": percentile(latencies, tail_p),
            "ok_ratio": 1 - failed / attempted,
            "peak_rss_mb": result["peak_rss_mb"],
        }
    else:
        layers = {key: statistics.median(b["layers"][key] for b in traced)
                  for key in traced[0]["layers"]}
        traced_wall = statistics.median(b["norm_wall"] for b in traced)
        untraced_wall = statistics.median(b["norm_wall"] for b in untraced)
        layers["trace.overhead_s"] = traced_wall - untraced_wall
        modules = {}
        for name in SPAN_NAMES:
            modules.setdefault(name.split(".")[0], 0.0)
            key = "cli.self_s" if name == "cli" else f"{name}.self_s"
            modules[name.split(".")[0]] += layers[key]
        details["traced_wall_s"] = traced_wall
        details["untraced_wall_s"] = untraced_wall
        raw_traced_wall = statistics.median(b["busy"] for b in traced)
        details["module_self_share"] = {m: v / raw_traced_wall
                                        for m, v in modules.items()}
        values = layers

    # BENCHMARK.json names every metric and its unit; print exactly those
    spec = json.loads((root / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in listed}
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
