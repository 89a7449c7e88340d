"""Benchmark one evoclust workload end to end, or layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload opt-protocol --seed 1 --seconds 25 --trace 0

The workload's inputs are made from ``--seed`` and written to files; the
program sees only those files. One process and one caller run the workload's
CLI calls through ``evoclust.cli.main`` in a closed loop: a pass is every call
of the workload once, one after another, and passes repeat on the same inputs
until ``--seconds`` is used up. Every call's outputs are checked, and every
pass's JSON outputs, with wall-clock keys scrubbed, must equal the first
pass's.

The machine may be shared, and other tenants slow it by tens of percent in
spells from seconds to minutes. So a fixed calibration workload runs before
the first pass and after every round of passes, and each pass's call times
are also expressed in reference seconds: divided by the mean calibration time
around that pass and multiplied by ``CAL_REF_S``. ``suite_ref_s`` sums each
call's median reference time; ``suite_s`` sums the median wall times.
``setup_s`` is the set-up time in reference seconds, calibrated around the
set-up the same way; ``setup.wall_s`` is its wall time.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics: span times and counts from the traced passes (see ``spans.py``), the
protocol metrics of the untraced passes, and ``trace.overhead_s``, the traced
minus the untraced suite time in reference seconds.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (CLI calls, a call failing on a nonzero exit or a
failed check) and ``metrics``. Provenance and every pass are written to
``.perfbench/results/``. The exit code is 0 only when every check passed.
"""

import os

# pin BLAS/OpenMP pools before numpy loads: one process, one thread
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_PINS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SAMPLES = 3  # set-up repeats (imports and input generation) per run
CAL_SAMPLES = 8  # calibrate() samples between rounds of passes
# fastest calibrate() seen on an idle 2-core Intel Xeon box (Python 3.11,
# numpy 2.4): a reference second is a second at that speed
CAL_REF_S = 0.018


class BenchError(Exception):
    pass


def _median(values):
    return statistics.median(values) if values else 0.0


# -------------------------------------------------------------- program

def import_program():
    """Import evoclust from this checkout's sources; seconds taken."""
    if not (SRC / "evoclust" / "__init__.py").is_file():
        raise BenchError(f"no evoclust sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import evoclust.cli  # noqa: F401
    elapsed = time.perf_counter() - start
    if Path(sys.modules["evoclust"].__file__).resolve().parent != SRC / "evoclust":
        raise BenchError("imported an evoclust that is not this checkout's")
    return elapsed


def child_import_s():
    """Import time of evoclust in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import evoclust.cli; "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise BenchError(f"import in a fresh interpreter failed: {done.stderr.strip()}")
    return float(done.stdout)


def calibrate():
    """Seconds that a fixed mix of interpreter and small-numpy work takes now.

    Other tenants of a shared machine slow this work as they slow the
    program, so its time just before and just after a pass measures the
    machine's speed during the pass.
    """
    import numpy as np
    start = time.perf_counter()
    acc = 0
    for i in range(120_000):
        acc += (i * i) % 7
    table = {}
    for i in range(60_000):
        table[i % 97] = table.get(i % 97, 0) + i
    a = np.arange(40_000, dtype=float).reshape(200, 200) / 40_000
    for _ in range(6):
        a = a @ a
        a /= a.max()
    return time.perf_counter() - start


# ------------------------------------------------------------- provenance

def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _tree_sha256(root):
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(args):
    import numpy
    import scipy
    return {"git_sha": _git_sha(), "src_sha256": _tree_sha256(SRC / "evoclust"),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
            "platform": platform.platform(),
            "thread_pins": {v: os.environ[v] for v in THREAD_PINS},
            "workload": args.workload, "workload_seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


# ------------------------------------------------------------------ passes

class Runner:
    """Runs passes of one workload and checks their outputs."""

    def __init__(self, workload, inputs, input_dir, out_root):
        self.workload = workload
        self.inputs = inputs
        self.input_dir = input_dir
        self.out_root = out_root
        self.reference = {}  # call index -> scrubbed outputs of its first success
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.passes = []

    def run_pass(self, tracer=None):
        import workloads  # imports evoclust, so only after import_program
        cli = sys.modules["evoclust.cli"]
        out = self.out_root / f"pass{len(self.passes)}"
        out.mkdir(parents=True)
        calls = self.workload.calls(self.inputs, self.input_dir, out)
        results = []
        with spans.installed(tracer) if tracer else contextlib.nullcontext():
            for call in calls:
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(err):
                    start = time.perf_counter()
                    rc = cli.main(list(call.argv))
                    elapsed = time.perf_counter() - start
                results.append((elapsed, rc, err.getvalue().strip()))

        record = {"traced": tracer is not None, "kinds": [c.kind for c in calls],
                  "call_s": [], "facts": []}
        for i, (call, (elapsed, rc, err)) in enumerate(zip(calls, results)):
            self.attempted += 1
            problems, facts = [], {}
            if rc != 0:
                problems.append(f"exit {rc}: {err}")
            else:
                problems, facts = workloads.check(call, out)
                try:
                    texts = workloads.scrubbed(call, out)
                except (OSError, ValueError) as exc:
                    problems.append(f"unreadable output: {exc}")
                else:
                    if texts != self.reference.setdefault(i, texts):
                        problems.append("outputs differ from the first pass")
            if problems:
                self.failed += 1
                self.problems.extend(f"pass {len(self.passes)} {' '.join(call.argv[:3])}: {p}"
                                     for p in problems)
            record["call_s"].append(elapsed)
            record["facts"].append(facts)
        if tracer is not None:
            record["layers"] = spans.layer_metrics(tracer.spans)
        if len(self.passes) > 0:
            shutil.rmtree(out)
        self.passes.append(record)
        return record


def median_calls(passes, reference=False):
    """Each call's median time across the passes, in wall seconds or in
    reference seconds."""
    def times(p):
        scale = CAL_REF_S / p["cal_s"] if reference else 1.0
        return [t * scale for t in p["call_s"]]
    return [_median(column) for column in zip(*map(times, passes))]


# -------------------------------------------------------------------- main

def parse_args(argv, manifest):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(manifest["workloads"]))
    parser.add_argument("--seed", type=int, default=manifest["default_seed"],
                        help="workload seed (default: the manifest's default seed)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="wall time to keep starting passes in")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced passes")
    return parser.parse_args(argv)


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    manifest = json.loads((HERE / "manifest.json").read_text())
    args = parse_args(argv, manifest)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    import_samples = [import_program()]
    import workloads  # imports evoclust, so only after import_program
    workload = workloads.WORKLOADS[args.workload]
    before = [calibrate() for _ in range(CAL_SAMPLES)]
    import_samples += [child_import_s() for _ in range(SAMPLES - 1)]

    work = STATE / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        gen_samples = []
        for i in range(SAMPLES):
            input_dir = work / f"inputs{i}"
            input_dir.mkdir(parents=True)
            start = time.perf_counter()
            inputs = workload.generate(args.seed, input_dir)
            gen_samples.append(time.perf_counter() - start)
        after = [calibrate() for _ in range(CAL_SAMPLES)]
        setup_wall_s = _median(import_samples) + _median(gen_samples)
        setup_s = setup_wall_s * CAL_REF_S / statistics.mean(before + after)
        before = after

        runner = Runner(workload, inputs, input_dir, work / "out")
        deadline = time.perf_counter() + args.seconds
        while True:
            start = time.perf_counter()
            round_passes = [runner.run_pass()]
            if args.trace:
                round_passes.append(runner.run_pass(spans.Tracer()))
            after = [calibrate() for _ in range(CAL_SAMPLES)]
            for p in round_passes:
                p["cal_s"] = statistics.mean(before + after)
            before = after
            round_s = time.perf_counter() - start
            if time.perf_counter() + round_s > deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [p for p in runner.passes if not p["traced"]]
    traced = [p for p in runner.passes if p["traced"]]
    call_s = median_calls(untraced)
    measured = {
        "setup_s": setup_s,
        "setup.wall_s": setup_wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "suite_ref_s": sum(median_calls(untraced, reference=True)),
        "suite_s": sum(call_s),
        "machine.cal_s": _median([p["cal_s"] for p in untraced]),
    }
    measured.update(workloads.protocol_metrics(
        untraced[0]["kinds"], call_s, [p["facts"] for p in untraced]))
    if traced:
        measured.update(spans.median_metrics([p["layers"] for p in traced]))
        measured["trace.overhead_s"] = (sum(median_calls(traced, reference=True))
                                        - measured["suite_ref_s"])
    missing = [name for name in wanted if name not in measured]
    if missing:
        raise BenchError(f"BENCHMARK.json names metrics this run does not measure: {missing}")

    correct = runner.failed == 0 and runner.attempted > 0
    result = {"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
              "metrics": {name: {"value": measured[name], "unit": units[name]}
                          for name in wanted}}
    record = {"provenance": provenance(args), "result": result, "measured": measured,
              "setup": {"import_s": import_samples, "generate_s": gen_samples},
              "passes": [{k: v for k, v in p.items() if k != "facts"}
                         for p in runner.passes],
              "problems": runner.problems}
    results_dir = STATE / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    out = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    for problem in runner.problems:
        print(f"FAILED {problem}")
    print(f"{args.workload} seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced passes, {runner.attempted} calls, "
          f"{runner.failed} failed; record in {out.relative_to(ROOT)}")
    for name in sorted(n for n in measured if measured[n]):  # layers this workload ran
        print(f"  {name} = {measured[name]:.6g} {units[name]}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
