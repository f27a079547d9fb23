"""prismalab benchmark: time to a verdict, end to end and per layer.

Usage, from the root of a checkout (nothing is installed; prismalab is
imported from ./src):

    python3 bench/run.py --workload fl_breuil --seed 1 --seconds 20 --trace 0

Workloads (workloads.py, corpus.py), each a seeded list of items:
  fl_breuil   is_fl_module and fl_criterion on 112 planted FL modules
  witt_sweep  criterion 9 in full: 115 rings, 1000 axiom triples in 10 items
  cli_corpus  178 documents through ``prismalab check <doc> --json`` in
              process, and three ``suite all`` runs

Load is one client in a closed loop: items run one after another in this
process, which starts no threads.  With --trace 0 the workload runs in
whole passes, at least two and then more while they fit in --seconds;
every pass draws fresh inputs of the same structure from (seed, pass).
An item's time is its minimum over the passes, each sample scaled to a
nominal host by a reference loop timed around it (HostSpeed); the
unscaled figures are printed as well.  verdicts_per_s is items over the
sum of the item times, and p50/p90 are taken over the items.  setup_s
is the median wall time of a fresh interpreter that imports
prismalab.cli and finishes one ``length`` check on the README's minimal
document, sampled repeatedly across the run.  With --trace 1 the first
pass runs once untraced and once under the span recorder (spans.py), and
the per-layer metrics are printed instead.

Every outcome is compared with a known answer.  ``failed`` counts items
whose outcome differs: a wrong verdict, a wrong exit code or error type,
or an uncaught exception.  ``correct`` is false when an item fails that
is not one of the open exit-code defects in corpus.DEFECTS.  Each run
prints the SHA-256 of the first pass's reports.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SLACK = "PRISMALAB_PRECISION_SLACK"
SETUP_REPEATS = 7  # at least this many set-up samples per run
REF_NOMINAL = 1e-3  # seconds the reference loop takes on the nominal host

# per-layer counters: metric -> recorder keys whose calls are summed
LAYER_KEYS = {
    "witt_base.sigma.calls": ["witt_base.WittRing.sigma"],
    "witt_base.arith.calls": [
        "witt_base.WittElem." + op for op in (
            "__mul__", "__add__", "__sub__", "__neg__", "scale", "__pow__",
            "inv")],
    "witt_base.elem.calls": ["witt_base.WittRing.elem"],
    "linalg_residue.howell_form.calls": ["linalg_residue.howell_form"],
    "linalg_residue.kernel_solve.calls": ["linalg_residue.kernel_solve"],
    "series_rings.dp_mul.calls": ["series_rings.DpElem.__mul__"],
    "series_rings.dp_phi.calls": ["series_rings.DpRing.phi"],
    "series_rings.s_phi_div.calls": ["series_rings.s_phi_div"],
    "phi_modules.finite_model.calls": ["phi_modules.FiniteModel.__init__"],
    "decomposition.split_phi_module.calls": [
        "decomposition.split_phi_module"],
}
LAYER_SPANS = {
    "breuil_fl.phi_h_consistent.s": "breuil_fl.BreuilModule.phi_h_consistent",
    "breuil_fl.fl_to_breuil.s": "breuil_fl.fl_to_breuil",
    "cyclo_suite.ideal_j_mingens.s": "cyclo_suite.ideal_j_mingens",
    "cli.parse_document.s": "cli.parse_document",
    "cli.run_check.s": "cli.run_check",
}
LAYER_HITS = {
    "series_rings.fil_span.hit_ratio": "series_rings.DpRing.fil_span",
    "phi_modules.model.hit_ratio": "phi_modules.PhiModule.model",
}


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def environment(inherited_slack):
    """Facts that change what a run measures."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    from importlib.metadata import version
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "click": version("click"),
        "cpu": cpu,
        SLACK: os.environ.get(SLACK, "unset"),
        SLACK + " (inherited)": inherited_slack or "unset",
    }


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------


def reference_loop():
    """Seconds taken by fixed pure-Python work of the kind prismalab's hot
    loops do (products of polynomials mod (q, f) on tuples, row operations
    on lists of ints); it does not touch prismalab."""
    q, f = 3 ** 7, (2, 0, 1)
    a = (5, 7, 11)
    rows = [[(i * j + 3) % q for j in range(24)] for i in range(24)]
    t0 = time.perf_counter()
    for _ in range(300):
        out = [0] * 5
        for i, x in enumerate(a):
            for j, y in enumerate(a):
                out[i + j] = (out[i + j] + x * y) % q
        while len(out) > 3:
            c = out.pop()
            for i in range(3):
                out[len(out) - 3 + i] = (out[len(out) - 3 + i] - c * f[i]) % q
        a = tuple(out)
    for k in range(1, 24):
        c = rows[k][0]
        rows[k] = [(x - c * y) % q for x, y in zip(rows[k], rows[0])]
    return time.perf_counter() - t0


class HostSpeed:
    """How fast the host runs the reference loop, sampled through the run.

    The shared host this benchmark was tuned on switches between speeds
    that differ by up to 1.5x for minutes at a time, which no amount of
    repetition inside a run averages out.  Every timing is therefore
    scaled by REF_NOMINAL over the reference loop's time measured around
    it, and so reads as the time on a host where the loop takes
    REF_NOMINAL.  A change to prismalab does not move the reference.
    """

    def __init__(self, interval=0.2):
        self.interval = interval
        self.times = []
        self.refs = []

    def sample(self):
        self.refs.append(min(reference_loop() for _ in range(3)))
        self.times.append(time.perf_counter())

    def maybe_sample(self):
        if not self.times or time.perf_counter() - self.times[-1] >= \
                self.interval:
            self.sample()

    def scale(self, t0, t1, margin=3.0):
        """REF_NOMINAL over the median reference time sampled within
        margin seconds of [t0, t1], or at the three nearest samples.

        The host's speed holds for tens of seconds at a time, so a wide
        window only averages out the noise of single samples."""
        lo = bisect.bisect_left(self.times, t0 - margin)
        hi = bisect.bisect_right(self.times, t1 + margin)
        if hi - lo < 3:
            lo, hi = max(0, lo - 2), min(len(self.times), hi + 2)
            span = sorted(range(lo, hi), key=lambda i: max(
                t0 - self.times[i], self.times[i] - t1, 0.0))[:3]
            near = [self.refs[i] for i in span]
        else:
            near = self.refs[lo:hi]
        return REF_NOMINAL / statistics.median(near)


# ---------------------------------------------------------------------------
# set-up: a fresh CLI process
# ---------------------------------------------------------------------------


class SetupTimer:
    """Wall time of a fresh interpreter that imports prismalab.cli and
    finishes one ``length`` check on the README's minimal document.

    Samples are spread over the run, one whenever ``interval`` seconds
    have passed.  They are not scaled by HostSpeed: a process start-up,
    much of it spent in the kernel, follows the host's speed changes far
    less than the reference loop does (about 1.2x against 1.6x).
    """

    def __init__(self, workdir, interval):
        from corpus import README_DOC

        self.doc = workdir / "readme.txt"
        self.doc.write_text(README_DOC, encoding="utf-8")
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.interval = interval
        self.samples = []
        self.last = -float("inf")

    def sample(self):
        cmd = [sys.executable, "-m", "prismalab.cli", "check", str(self.doc),
               "--check", "length", "--json"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env,
                              capture_output=True, text=True, timeout=120)
        self.last = time.perf_counter()
        self.samples.append(self.last - t0)
        if proc.returncode != 0 or json.loads(proc.stdout)["length"] != 18:
            fail(f"set-up check failed: {proc.returncode} {proc.stderr}")

    def maybe_sample(self):
        if time.perf_counter() - self.last >= self.interval:
            self.sample()

    def median(self):
        while len(self.samples) < SETUP_REPEATS:
            self.sample()
        return statistics.median(self.samples)


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def run_pass(items, between=()):
    """Run every item once, calling each of ``between`` before each item.

    Returns {name: ((start, end), ok, report)}.
    """
    out = {}
    gc.collect()
    for item in items:
        for hook in between:
            hook()
        t0 = time.perf_counter()
        try:
            outcome = item.run()
        except Exception as exc:  # an uncaught error is a failed item
            out[item.name] = ((t0, time.perf_counter()), False, json.dumps(
                {"item": item.name, "uncaught": type(exc).__name__}))
            continue
        t1 = time.perf_counter()
        try:
            ok = bool(item.check(outcome))
        except Exception:  # a malformed report does not match
            ok = False
        out[item.name] = ((t0, t1), ok, item.report(outcome))
    for hook in between:
        hook()
    return out


def digest(results):
    h = hashlib.sha256()
    for _, _, report in results.values():
        h.update(report.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def tally(items, passes):
    """attempted, failed, unexpected failures, failing item names."""
    known = {item.name for item in items if item.known_defect}
    attempted = failed = unexpected = 0
    names = set()
    for results in passes:
        for name, (_, ok, _) in results.items():
            attempted += 1
            if not ok:
                failed += 1
                names.add(name)
                unexpected += name not in known
    return attempted, failed, unexpected, sorted(names)


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def summary(per_item):
    """verdicts_per_s, p50 ms and p90 ms of per-item seconds."""
    times = list(per_item.values())
    pct = statistics.quantiles(times, n=100, method="inclusive")
    return len(times) / sum(times), 1000 * pct[49], 1000 * pct[89]


def end_to_end(workload, seed, seconds, workdir):
    """At least two passes, then more while they fit in ``seconds``.

    An item's time is its minimum over the passes, each sample scaled to
    the nominal host (HostSpeed); the unscaled figures are printed too.
    """
    import workloads

    host = HostSpeed()
    setup = SetupTimer(workdir, interval=max(1.0, seconds / 8))
    host.sample()
    setup.sample()
    passes = []
    start = time.perf_counter()
    while True:
        items = workloads.build(workload, seed, len(passes), workdir)
        t0 = time.perf_counter()
        passes.append(run_pass(items, (host.maybe_sample,
                                       setup.maybe_sample)))
        last = time.perf_counter() - t0
        if (len(passes) >= 2
                and time.perf_counter() - start + last > seconds):
            break
    raw, scaled = {}, {}
    for results in passes:
        for name, ((t0, t1), _, _) in results.items():
            dt = t1 - t0
            raw[name] = min(raw.get(name, dt), dt)
            dt *= host.scale(t0, t1)
            scaled[name] = min(scaled.get(name, dt), dt)
    vps, p50, p90 = summary(scaled)
    metrics = {
        "verdicts_per_s": (vps, "1/s"),
        "verdict_ms.p50": (p50, "ms"),
        "verdict_ms.p90": (p90, "ms"),
        "setup_s": (setup.median(), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw_vps, raw_p50, raw_p90 = summary(raw)
    notes = [
        f"{len(scaled)} items x {len(passes)} passes (fresh inputs each "
        f"pass); item time = minimum over passes; p50/p90 over "
        f"{len(scaled)} items (interpolated); setup_s = median of "
        f"{len(setup.samples)}",
        f"host: reference loop median {1000 * statistics.median(host.refs):.4f}"
        f" ms over {len(host.refs)} samples; item times below are scaled "
        f"to {1000 * REF_NOMINAL:g} ms",
        f"unscaled: verdicts_per_s {raw_vps:.6g}, verdict_ms.p50 "
        f"{raw_p50:.6g}, verdict_ms.p90 {raw_p90:.6g}",
    ]
    return items, passes, metrics, notes


def per_layer(workload, seed, workdir):
    import workloads
    from spans import Recorder

    items = workloads.build(workload, seed, 0, workdir)
    t0 = time.perf_counter()
    plain = run_pass(items)
    untraced = time.perf_counter() - t0
    rec = Recorder().install()
    try:
        t0 = time.perf_counter()
        traced = run_pass(items)
        traced_s = time.perf_counter() - t0
    finally:
        rec.uninstall()
    metrics = {}
    for layer, cell in rec.self_s.items():
        metrics[f"{layer}.self_s"] = (cell[0], "s")
    for name, keys in LAYER_KEYS.items():
        metrics[name] = (rec.calls(*keys), "count")
    metrics["linalg_residue.work"] = (rec.work, "ops")
    metrics["linalg_residue.max_cells"] = (rec.max_cells, "cells")
    for name, key in LAYER_SPANS.items():
        metrics[name] = (rec.inclusive_s(key), "s")
    for name, key in LAYER_HITS.items():
        metrics[name] = (rec.hit_ratio(key), "ratio")
    metrics["trace.overhead_frac"] = (traced_s / untraced - 1, "ratio")
    notes = [f"{len(items)} items, one untraced pass ({untraced:.3f} s) "
             f"and the same items traced ({traced_s:.3f} s)"]
    return items, [plain, traced], metrics, notes


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "prismalab" / "cli.py").is_file():
        fail(f"no prismalab sources under {SRC}")
    inherited_slack = os.environ.pop(SLACK, None)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import prismalab
    if Path(prismalab.__file__).resolve().parent != SRC / "prismalab":
        fail(f"imported prismalab from {prismalab.__file__}, not {SRC}")
    import workloads
    from spans import wrapped_attributes

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"known: {', '.join(workloads.WORKLOADS)}")
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            items, passes, metrics, notes = per_layer(
                args.workload, args.seed, workdir)
        else:
            if wrapped_attributes():
                fail("prismalab attributes are wrapped in an untraced run")
            items, passes, metrics, notes = end_to_end(
                args.workload, args.seed, args.seconds, workdir)
        leftover = wrapped_attributes()
        if leftover:
            fail(f"recorder left wrappers installed: {leftover[:5]}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    attempted, failed, unexpected, names = tally(items, passes)
    env = environment(inherited_slack)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"digest sha256:{digest(passes[0])}  ({len(passes[0])} reports)")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:.6g} {unit}")
    print(f"  {'failed_frac':<40} {failed / attempted:.6g} "
          f"({failed} of {attempted} attempted)")
    if names:
        print("failed items: " + ", ".join(names))
    correct = unexpected == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
