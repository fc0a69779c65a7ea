"""One benchmark repetition, in the fresh interpreter that runs this file.

    python3 perfbench/worker.py TRACE SPANS_PATH ICELAB_ARGS...

TRACE is 0 or 1.  The repetition imports icelab from ``src/``, parses the
icelab arguments with ``cli.parse_config`` and certifies them with
``cli.run``.  Untraced, it makes one call; traced, it wraps every layer
(see ``tracer.py``) and makes one call per suite, so that each suite gets
its own span, and writes the spans to SPANS_PATH.  The last line of
standard output is one JSON object describing the repetition.
"""

import dataclasses
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from icelab import cli  # noqa: E402


def main(argv) -> int:
    traced, spans_path, icelab_args = argv[0] == "1", argv[1], argv[2:]
    if traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    config = cli.parse_config(icelab_args)
    ready = time.perf_counter()
    if traced:
        reports, codes = [], []
        for suite in cli.SUITES:
            if suite in config.suites:
                one = dataclasses.replace(config, suites=(suite,))
                code, suite_reports = tracer.span(f"suite:{suite}", cli.run)(one)
                codes.append(code)
                reports.extend(suite_reports)
        wall = time.perf_counter() - ready
        exit_code = max(codes)
    else:
        exit_code, reports = cli.run(config)
        wall = time.perf_counter() - ready

    # imported after the clock stops, so that setup_s is icelab's own start-up
    import hashlib
    import json
    import resource

    payload = json.dumps([rep.to_json_obj() for rep in reports],
                         sort_keys=True, indent=2)
    result = {
        "ready": ready,
        "wall_s": wall,
        "exit_code": exit_code,
        "reports": len(reports),
        "not_pass": sum(rep.status != "pass" for rep in reports),
        # exact values render as p/q; a float always renders with a point
        "float_renders": sum("." in rep.lhs or "." in rep.rhs for rep in reports),
        "digest": hashlib.sha256(payload.encode()).hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if traced:
        counts, times = tracer.layer_metrics()
        times["trace.overhead_s"] = tracer.overhead()
        origin = tracer.spans[0][1]
        suites = {name.split(":", 1)[1]: end - start
                  for name, start, end, _, _ in tracer.spans if name.startswith("suite:")}
        result.update(counts=counts, times=times, suites=suites,
                      call_cost=tracer.call_cost)
        with open(spans_path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "cost_s"],
                       "spans": [[name, start - origin, end - origin, parent, cost]
                                 for name, start, end, parent, cost in tracer.spans]}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
