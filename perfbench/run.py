#!/usr/bin/env python3
"""The ettag benchmark: drives the ``ettag`` CLI as a user would.

    python3 perfbench/run.py --workload desk-tag --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. One client sends one command at a time
(closed loop) on inputs generated from ``--seed``. ``--trace 0`` repeats a
pass over every command and prints the end-to-end metrics as medians over
the passes; ``--trace 1`` makes one pass untraced and one under
``tracer.py`` and prints the per-layer metrics. The last line of
stdout is the result object; the line before it records the machine, the
source digest, every command's wall time and RSS, and the digest of every
prediction file. See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
from workloads import BATCH_SIZES, BEAMS, WORKLOADS, resolve, source_digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0

# Every command the harness starts gets this environment: one BLAS/OpenMP
# thread (default OpenBLAS burns a second core on the 3,424-wide scorer
# matmuls) and a fixed hash seed, so set iteration order cannot vary.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "ETTAG_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


@dataclass
class Command:
    kind: str      # build_kb | tag | eval | train
    arg: int       # beam for tag/eval, batch size for train
    wall: float    # s, spawn to exit
    opened: float  # s, spawn to the command opening its fed input (nan if not fed)
    rss_mb: float
    rc: int
    stdout: str
    spans: Path | None = None

    @property
    def after_open(self) -> float:
        """Wall time from opening the fed input to exit: the work on the input."""
        return self.wall - self.opened


@dataclass
class Pass:
    commands: list[Command] = field(default_factory=list)
    f1: dict[int, float] = field(default_factory=dict)
    nll: dict[int, float] = field(default_factory=dict)
    digests: dict[int, str] = field(default_factory=dict)

    def walls(self, kind: str, arg: int | None = None, attr: str = "wall") -> list[float]:
        return [getattr(c, attr) for c in self.commands if c.kind == kind and (arg is None or c.arg == arg)]

    def rss(self, kind: str) -> float:
        return max(c.rss_mb for c in self.commands if c.kind == kind)


class Harness:
    """Starts commands, times them, and counts operations and failures."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = {**os.environ, **PINNED_ENV, "PYTHONPATH": str(ROOT / "src")}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._n = 0

    def op(self, label: str, problems: list[str]) -> bool:
        """Count one operation; it fails when any problem is reported."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems[:3])
        return not problems

    def spawn(self, cmd: list[str], feed: Path | None = None) -> tuple[int, float, float, float, str]:
        """Run one process to completion: (exit code, wall s, opened s, max RSS MB, stdout).

        With ``feed``, the file's bytes reach the command through a named
        pipe that replaces it on the command line, and ``opened`` is when the
        command opened that pipe: everything before it is the command's own
        set-up, measured in the same process. A timer kills the process at the
        run's deadline, so a hung command fails the run instead of overrunning it.
        """
        self._n += 1
        out_path = self.work / f"cmd{self._n}.out"
        err_path = self.work / f"cmd{self._n}.err"
        fifo = None
        if feed is not None:
            fifo = self.work / f"feed{self._n}.fifo"
            os.mkfifo(fifo)
            cmd = [str(fifo) if a == str(feed) else a for a in cmd]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            killer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            killer.start()
            writer = _Feeder(fifo, feed.read_bytes()) if fifo is not None else None
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        opened = math.nan
        if writer is not None:
            opened = writer.finish() - start
            fifo.unlink()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = err_path.read_text(encoding="utf-8", errors="replace").strip()[-300:]
            self.problems.append(f"{' '.join(cmd[1:4])} exited {proc.returncode}: {tail}")
        stdout = out_path.read_text(encoding="utf-8", errors="replace")
        return proc.returncode, wall, opened, usage.ru_maxrss / 1024.0, stdout

    def command(
        self, out: Pass, kind: str, arg: int, argv: list[str], traced: bool, feed: Path | None = None
    ) -> Command:
        spans = self.work / f"spans{self._n + 1}.json" if traced else None
        if spans is None:
            cmd = [sys.executable, "-m", "ettag.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "tracer.py"), "--spans-out", str(spans), "--", *argv]
        rc, wall, opened, rss, stdout = self.spawn(cmd, feed)
        c = Command(kind, arg, wall, opened, rss, rc, stdout, spans)
        out.commands.append(c)
        return c


class _Feeder(threading.Thread):
    """Writes bytes into a named pipe once the reader opens it."""

    def __init__(self, fifo: Path, data: bytes):
        super().__init__(daemon=True)
        self.fifo, self.data = fifo, data
        self.opened = math.nan
        self.abandoned = False
        self.start()

    def run(self) -> None:
        fd = os.open(self.fifo, os.O_WRONLY)
        self.opened = time.perf_counter()
        try:
            view = memoryview(self.data)
            while view and not self.abandoned:
                view = view[os.write(fd, view):]
        except BrokenPipeError:
            pass
        finally:
            os.close(fd)

    def finish(self) -> float:
        """After the reader exited: release a writer it never met; return the open time."""
        if self.is_alive():
            self.abandoned = True
            fd = os.open(self.fifo, os.O_RDONLY | os.O_NONBLOCK)
            self.join()
            os.close(fd)
        return self.opened


def run_pass(h: Harness, w, inp: dict, evals: bool, traced: bool) -> Pass:
    """One pass over every timed command of the workload, each output checked."""
    work, out = h.work, Pass()
    kb, cache = inp["kb"], str(work / "kb.trie")
    c = h.command(out, "build_kb", 0, ["build-kb", "--kb", kb, "--cache-out", cache], traced)
    h.op("build-kb", [f"exit {c.rc}"] if c.rc else checks.check_build_kb(c.stdout, len(inp["kb_names"])))

    tag_base = ["tag", "--model", inp["scorer"], "--kb", kb, "--kb-cache", cache]
    for beam in BEAMS:
        pred = work / f"pred_b{beam}.jsonl"
        docs = Path(inp["docs"][str(beam)])
        argv = [*tag_base, "--in", str(docs), "--out", str(pred), "--beam", str(beam)]
        c = h.command(out, "tag", beam, argv, traced, feed=docs)
        if h.op(f"tag b{beam}", [f"exit {c.rc}"] if c.rc else checks.check_predictions(pred, inp["doc_ids"][str(beam)], inp["kb_names"])):
            out.digests[beam] = checks.file_digest(pred)
    # eval is deterministic on a byte-identical prediction file, so passes
    # after the first only compare digests.
    for beam in BEAMS if evals else ():
        report = work / f"eval_b{beam}.json"
        argv = ["eval", "--pred", str(work / f"pred_b{beam}.jsonl"), "--gold", inp["docs"][str(beam)], "--json-out", str(report)]
        c = h.command(out, "eval", beam, argv, traced)
        f1, problems = (None, [f"exit {c.rc}"]) if c.rc else checks.check_eval(report)
        if h.op(f"eval b{beam}", problems):
            out.f1[beam] = f1

    train_base = ["train", "--kb", kb, "--seed", "0", *w.corpus.model_args]
    model = work / "model.bin"
    for bs, epochs in zip(BATCH_SIZES, w.train_epochs):
        argv = [*train_base, "--train", inp["train"], "--model-out", str(model), "--epochs", str(epochs), "--batch-size", str(bs)]
        c = h.command(out, "train", bs, argv, traced, feed=Path(inp["train"]))
        nll, problems = (None, [f"exit {c.rc}"]) if c.rc else checks.check_train(c.stdout, model)
        if h.op(f"train bs{bs}", problems):
            out.nll[bs] = nll
    return out


def check_repeats(h: Harness, passes: list[Pass]) -> None:
    """Decodes, F1 and final NLL must repeat exactly across the passes of a run."""
    first = passes[0]
    for p in passes[1:]:
        pairs = (("prediction digests", first.digests, p.digests), ("final NLL", first.nll, p.nll))
        if p.f1:
            pairs += (("micro-F1", first.f1, p.f1),)
        h.op("repeat", [f"{name} differ between passes" for name, a, b in pairs if a != b])


def e2e_metrics(w, inp: dict, passes: list[Pass]) -> dict[str, float]:
    """Medians over the passes of a run.

    Tag documents and training corpora reach a command through a named pipe,
    so each command's wall time splits where it opened its input: before is
    its set-up (``setup_s``, over every tag command), after is the work on
    the input (the throughputs), both from the same process.
    """

    def med(kind, arg=None, attr="wall"):
        values = [x for p in passes for x in p.walls(kind, arg, attr)]
        return statistics.median(values) if values else math.nan

    m = {"setup_s": med("tag", attr="opened")}
    for beam, n_docs in zip(BEAMS, w.tag_docs):
        m[f"tag_docs_per_s.b{beam}"] = n_docs / med("tag", beam, "after_open")
    for beam in (1, 20):
        m[f"micro_f1.b{beam}"] = passes[0].f1.get(beam, math.nan)
    m["build_kb_s"] = med("build_kb")
    m["peak_rss_mb.build_kb"] = statistics.median(p.rss("build_kb") for p in passes)
    m["peak_rss_mb.tag"] = statistics.median(p.rss("tag") for p in passes)
    for bs, epochs in zip(BATCH_SIZES, w.train_epochs):
        m[f"train_ex_per_s.bs{bs}"] = epochs * inp["n_train"] / med("train", bs, "after_open")
        m[f"final_nll.bs{bs}"] = passes[0].nll.get(bs, math.nan)
    return m


def layer_metrics(plain: Pass, traced: Pass, cache_bytes: int) -> dict[str, float]:
    import layers  # numpy: imported only after the timed commands have run

    spans = [layers.Spans.load(c.spans, c.kind, c.arg) for c in traced.commands if c.rc == 0]
    m = layers.per_layer(spans, cache_bytes)
    m["cli.tag_setup_share"] = sum(plain.walls("tag", attr="opened")) / sum(plain.walls("tag"))
    m["trace_overhead_frac"] = sum(c.wall for c in traced.commands) / sum(c.wall for c in plain.commands) - 1.0
    return m


def machine_info(seed: int, src_digest: str, inp: dict) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text().strip() if target is not None and target.is_file() else ref
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": inp["numpy"],
        "blas": inp["blas"],
        "commit": commit,
        "source_sha256": src_digest,
        "seed": seed,
        "env": PINNED_ENV,
    }


def declared_units() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}


def measure(h: Harness, w, inp: dict, args) -> tuple[list[Pass], dict[str, float], str]:
    if args.trace:
        plain = run_pass(h, w, inp, evals=True, traced=False)
        traced = run_pass(h, w, inp, evals=True, traced=True)
        cache = h.work / "kb.trie"
        metrics = layer_metrics(plain, traced, cache.stat().st_size if cache.exists() else 0)
        return [plain, traced], metrics, "per_layer"
    # Whole passes only: another starts until the workload's minimum is met,
    # then while the mean pass still fits in --seconds.
    passes: list[Pass] = []
    durations: list[float] = []
    t0 = time.monotonic()
    while True:
        p0 = time.monotonic()
        passes.append(run_pass(h, w, inp, evals=not passes, traced=False))
        durations.append(time.monotonic() - p0)
        now, mean = time.monotonic(), statistics.mean(durations)
        if now + mean > h.deadline or (len(passes) >= w.min_passes and now - t0 + mean > args.seconds):
            return passes, e2e_metrics(w, inp, passes), "end_to_end"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    started = time.monotonic()
    if not (ROOT / "src" / "ettag" / "cli.py").is_file():
        print(f"no ettag sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    w = resolve(args.workload, args.smoke)
    units = declared_units()
    src_digest = source_digest(ROOT)
    work = ROOT / ".bench_work" / f"{w.name}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    h = Harness(work, started + DEADLINE_S)
    try:
        prep = [
            sys.executable, str(HERE / "prepare.py"), "--workload", w.name, "--seed", str(args.seed),
            "--work", str(work), "--cache", str(ROOT / ".bench_cache"), "--src-digest", src_digest,
        ] + (["--smoke"] if args.smoke else [])
        if h.spawn(prep)[0] != 0:
            print(f"preparing inputs failed: {h.problems}", file=sys.stderr)
            return 1
        inp = json.loads((work / "manifest.json").read_text(encoding="utf-8"))
        inp["kb_names"] = set(Path(inp["kb"]).read_text(encoding="utf-8").splitlines())
        h.spawn([sys.executable, "-m", "ettag.cli", "--help"])  # untimed warm-up: byte-compiles the CLI
        passes, metrics, kind = measure(h, w, inp, args)
        check_repeats(h, passes)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    h.op("metrics", [f"{k} not measured" for k, v in metrics.items() if not math.isfinite(v)])
    if set(metrics) != set(units[kind]):
        print(f"metric names disagree with BENCHMARK.json: {sorted(set(metrics) ^ set(units[kind]))}", file=sys.stderr)
        return 1
    info = {
        "workload": w.name,
        "trace": args.trace,
        "passes": len(passes),
        "machine": machine_info(args.seed, src_digest, inp),
        "prediction_sha256": {f"b{b}": d for b, d in passes[0].digests.items()},
        "commands": [[c.kind, c.arg, round(c.wall, 4), round(c.opened, 4), round(c.rss_mb, 1)] for p in passes for c in p.commands],
        "problems": h.problems[:20],
    }
    print(json.dumps(info, sort_keys=True))
    result = {
        "correct": h.failed == 0,
        "attempted": h.attempted,
        "failed": h.failed,
        "metrics": {
            k: {"value": v if math.isfinite(v) else None, "unit": units[kind][k]} for k, v in sorted(metrics.items())
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
