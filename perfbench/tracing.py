"""Spans recorded by wrappers the benchmark puts around fairpriv's public
functions. The program itself carries no tracing.

Each process keeps its spans in memory and writes them once, when it ends,
to ``spans-<pid>.json`` in the trace directory. Pool workers started by fork
inherit the wrappers and the open-span stack, so their top-level spans name
the parent process's sweep span as parent; workers started by spawn or
forkserver re-import the launcher, which installs the wrappers again (see
launch.py).
"""

from __future__ import annotations

import functools
import json
import multiprocessing.util
import os
import resource
import sys
import time
from pathlib import Path


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


class Tracer:
    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)
        self.pid = os.getpid()
        self.spans = []  # (id, name, start, end, parent_id, run_id, attrs); None while open
        self.stack = []  # ids of open spans, innermost last
        self.run_id = None

    def _enter_process(self) -> None:
        pid = os.getpid()
        if pid == self.pid:
            return
        # First span in a forked child: drop the copy of the parent's spans
        # (its open-span stack stays, so parents resolve across processes)
        # and write this process's spans when multiprocessing shuts it down.
        self.pid = pid
        self.spans = []
        multiprocessing.util.Finalize(None, self.flush, exitpriority=100)

    def call(self, name, fn, args, kwargs, run_id=None, attrs_fn=None):
        self._enter_process()
        index = len(self.spans)
        span_id = f"{self.pid}:{index}"
        parent = self.stack[-1] if self.stack else None
        outer_run = self.run_id
        if run_id is not None:
            self.run_id = run_id
        self.spans.append(None)
        self.stack.append(span_id)
        before = attrs_fn(None, args, kwargs) if attrs_fn else None
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            attrs = attrs_fn(before, args, kwargs) if attrs_fn else None
            self.stack.pop()
            self.spans[index] = (span_id, name, start, end, parent, self.run_id, attrs)
            self.run_id = outer_run

    def wrap(self, owner, attr: str, name: str, run_id_fn=None, attrs_fn=None) -> None:
        """Replace owner.attr by a wrapper that records one span per call."""
        fn = getattr(owner, attr, None)
        if fn is None:
            print(f"perfbench: {owner.__name__}.{attr} not found; "
                  f"span {name} not recorded", file=sys.stderr)
            return

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            run_id = run_id_fn(*args, **kwargs) if run_id_fn else None
            return self.call(name, fn, args, kwargs, run_id=run_id, attrs_fn=attrs_fn)

        setattr(owner, attr, traced)

    def flush(self) -> None:
        if os.getpid() != self.pid:
            return
        done = [s for s in self.spans if s is not None]
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.pid}.json"
        path.write_text(json.dumps(done))


def run_id_of(config, alpha, beta, seed, *args, **kwargs) -> str:
    return f"a{alpha:g}-b{beta:g}-s{seed}"


def sweep_attrs(before, args, kwargs):
    """CPU of the sweeping process and its (reaped) workers, and the job count."""
    if before is None:
        return _cpu_seconds()
    jobs = kwargs.get("jobs", args[1] if len(args) > 1 else None)
    if jobs is None:
        jobs = os.cpu_count() or 1
    return {"jobs": int(jobs), "cpu_s": _cpu_seconds() - before}


def install(tracer: Tracer, layers: bool) -> None:
    """Wrap pipeline.run_single; with ``layers``, every layer boundary too.

    Names are patched where the caller looks them up (``pipeline`` imports
    ``train``, ``generate`` and friends by name), so each wrapper sees every
    call the program makes.
    """
    import fairpriv.cli as cli
    from fairpriv import learncore, training
    from fairpriv.cli import pipeline, report

    tracer.wrap(pipeline, "run_single", "pipeline.run_single", run_id_fn=run_id_of)
    if not layers:
        return
    tracer.wrap(pipeline, "sweep", "pipeline.sweep", attrs_fn=sweep_attrs)
    for owner, attr, name in [
        (cli, "load_config", "config.load"),
        (pipeline, "generate", "data.generate"),
        (pipeline, "make_splits", "data.make_splits"),
        (pipeline, "train", "training.train"),
        (training, "objective", "training.objective"),
        (training, "validation_loss", "training.val_pass"),
        (learncore, "backward", "learncore.backward"),
        (learncore, "adam_step", "learncore.adam_step"),
        (pipeline, "evaluate_bundle", "evaluation.evaluate_bundle"),
        (pipeline, "fit_attacker", "evaluation.fit_attacker"),
        (pipeline, "write_results", "pipeline.write_results"),
        (pipeline, "load_results", "pipeline.load_results"),
        (report, "build_report", "report.build_report"),
        (report, "build_heatmaps", "report.build_heatmaps"),
        (report, "heatmap_svg", "report.heatmap_svg"),
    ]:
        tracer.wrap(owner, attr, name)


def read_spans(trace_dir) -> list:
    spans = []
    for path in sorted(Path(trace_dir).glob("spans-*.json")):
        spans.extend(tuple(s) for s in json.loads(path.read_text()))
    return spans
