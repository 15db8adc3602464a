"""One benchmark run of ``mgmlmc run`` in a fresh process.

Usage: ``python child.py CONFIG.ini [--trace SPANS.json]``

The set-up (import, ``load_config``, ``build_problem`` and the first access
of ``problem.sampler.embedding``) is timed apart from the run proper, which
is ``cli.cmd_run`` handed the problem already set up.  The last line on
standard output is a JSON object with the timings, the CPU time and the
peak resident memory of the process.  With ``--trace`` the outside-in
tracer wraps the package for the whole process, the spans go to the given
file and the result also carries the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv) -> int:
    ini = argv[0]
    spans_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None

    t0 = time.perf_counter()
    from mgmlmc import cli
    from mgmlmc.config import build_problem, load_config

    tracer = None
    if spans_path is not None:
        from tracer import Tracer  # next to this script, first on sys.path

        tracer = Tracer().install()
    with tracer.region_span("setup") if tracer else contextlib.nullcontext():
        cfg = load_config(ini)
        problem = build_problem(cfg)
        problem.sampler.embedding
    setup_s = time.perf_counter() - t0

    cli.build_problem = lambda _cfg: problem  # reuse the problem set up above
    cpu0 = _cpu_s()
    t1 = time.perf_counter()
    with tracer.region_span("run") if tracer else contextlib.nullcontext() as run_span:
        status = cli.cmd_run(cfg)
    wall_s = time.perf_counter() - t1
    cpu_s = _cpu_s() - cpu0
    cli.build_problem = build_problem

    result = {
        "status": status,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        from tracer import layer_metrics

        result["leftover_wrappers"] = tracer.leftover_wrappers()
        result["kappa"] = problem.kappa_default
        result["layers"] = layer_metrics(tracer, run_span, problem, cfg.K)
        with open(spans_path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end", "attrs"],
                       "spans": tracer.finished_spans()}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
