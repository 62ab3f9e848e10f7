"""Runs one workload's command list in a single process and thread.

Started by run.py with the manifest it generated.  Commands run one after
another through `landauvar.cli.main(argv)` (closed loop, one client), and
the whole list is repeated as a batch until the time budget is used.  With
--trace 1, untraced and traced batches alternate so that the tracing
overhead is the difference of their normalised times.  Commands run between
reference samples (speed.py), which give each one a time normalised for the
machine's speed; untraced commands are also sampled while they run.  The
result file holds each command's latency, exit status and stdout digest, the
distinct outputs for the oracles, per-layer metrics of the traced batches,
the reference samples, and peak RSS.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _call(spec):
    from landauvar import variation

    if spec["function"] == "nilpotency_index":
        model = variation.builtin_model(spec["model"])
        print(variation.nilpotency_index(model, spec["subset"]))
        return 0
    raise ValueError(f"unknown library call {spec['function']!r}")


def run_command(cmd, cli, tracer, meter):
    """Run one command.  Returns its start and end, its raw wall and cpu
    time without the meter's samples, exit status, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    failure = None
    if tracer is not None:
        tracer.command = cmd["id"]
        tracer.open("cli")
    if meter is not None:
        spent = list(meter.spent)
        if tracer is None:  # samples inside a command would land in its spans
            meter.arm()
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(cmd["argv"]) if "argv" in cmd else _call(cmd["call"])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback is a failed command, not a failed benchmark
        code = None
        failure = sys.exc_info()
    finally:
        if meter is not None:
            meter.disarm()
        stop = time.perf_counter()
        elapsed = stop - start
        cpu = time.process_time() - cpu_start
        if tracer is not None:
            tracer.close()
    if meter is not None:
        elapsed -= meter.spent[0] - spent[0]
        cpu -= meter.spent[1] - spent[1]
        meter.sample()
    text = out.getvalue()
    errors = err.getvalue()
    if failure is not None:
        errors += "".join(traceback.format_exception(*failure))
    return start, stop, elapsed, cpu, code, text, errors


def run_batch(commands, cli, tracer, meter, outputs, errors):
    """Run the command list once.  A run records the command id, raw
    latency, exit status, whether a traceback was printed, the stdout digest
    and the normalised latency and cpu time."""
    gc.collect()
    runs = []
    spans = []
    stdout_bytes = 0
    if meter is not None:
        meter.sample()
    wall0 = time.perf_counter()
    for cmd in commands:
        start, stop, elapsed, cpu, code, text, err = run_command(cmd, cli, tracer, meter)
        spans.append((start, stop, elapsed, cpu))
        digest = hashlib.sha256(text.encode()).hexdigest()
        outputs.setdefault(cmd["id"], {}).setdefault(digest, text)
        stdout_bytes += len(text.encode())
        traceback_seen = "Traceback" in err
        if code != 0 or traceback_seen:
            errors.setdefault(cmd["id"], err[-2000:])
        runs.append([cmd["id"], elapsed, code, traceback_seen, digest])
    batch = {"wall": time.perf_counter() - wall0,
             "busy": sum(span[2] for span in spans),
             "cpu": sum(span[3] for span in spans),
             "runs": runs, "stdout_bytes": stdout_bytes}
    if meter is not None:
        for run, (start, stop, elapsed, cpu) in zip(runs, spans):
            wall_factor, cpu_factor = meter.factors(start, stop)
            run += [elapsed * wall_factor, cpu * cpu_factor, start, stop, cpu]
        batch["norm_wall"] = sum(r[5] for r in runs)
        batch["norm_cpu"] = sum(r[6] for r in runs)
    return batch


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, args.src)
    import landauvar.cli as cli
    from speed import Speedometer
    from tracer import Tracer

    commands = json.loads(Path(args.manifest).read_text())["commands"]
    tracer = Tracer() if args.trace else None
    meter = Speedometer()
    modes = ["untraced", "traced"] if args.trace else ["untraced"]
    outputs, errors, batches = {}, {}, []
    spans_written = False
    begin = time.perf_counter()
    while True:
        mode = modes[len(batches) % len(modes)]
        if mode == "traced":
            tracer.reset()
            tracer.install()
        try:
            batch = run_batch(commands, cli, tracer if mode == "traced" else None,
                              meter, outputs, errors)
        finally:
            if mode == "traced":
                tracer.uninstall()
        batch["mode"] = mode
        if mode == "traced":
            batch["layers"] = tracer.layer_metrics(batch["stdout_bytes"])
            if not spans_written:
                with open(args.spans, "w", encoding="utf-8") as fh:
                    for span in tracer.spans:
                        fh.write(json.dumps(span) + "\n")
                spans_written = True
        batches.append(batch)
        elapsed = time.perf_counter() - begin
        if len(batches) >= len(modes) and elapsed + batch["wall"] > args.seconds:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(args.out).write_text(json.dumps({
        "batches": batches,
        "outputs": outputs,
        "errors": errors,
        "peak_rss_mb": peak_kb / 1024.0,
        "speed_samples": meter.samples,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
