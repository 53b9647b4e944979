"""Run one `chebgaps` command in this fresh interpreter and record its cost.

    python3 perfbench/child.py RECORD [--spans SPANS | --setup-only] -- ARGV...

Times `import chebgaps.cli` (set-up) and then `chebgaps.cli.main(ARGV)`
(wall), and writes {setup_s, wall_s, exit_code, peak_rss_mb, error} as JSON
to RECORD. With --spans, the layers are traced (see spans.py) after set-up
and the spans are written to SPANS. With --setup-only, nothing is run.

The library keeps process-global caches, so a run stands for a CLI user only
when chebgaps was not imported before; that is checked first. Nothing beyond
what the interpreter loads at start-up is imported before set-up is timed,
so set-up pays for every module the CLI needs.
"""

import os
import sys
from time import perf_counter

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main() -> int:
    args = sys.argv[1:]
    if "--" not in args or not args[0] or args[0].startswith("-"):
        raise SystemExit(__doc__)
    split = args.index("--")
    record_path, opts, argv = args[0], args[1:split], args[split + 1 :]
    spans_path = opts[1] if opts[:1] == ["--spans"] and len(opts) == 2 else None
    setup_only = opts == ["--setup-only"]
    if opts and not (spans_path or setup_only):
        raise SystemExit(__doc__)

    if "chebgaps" in sys.modules:
        raise SystemExit("chebgaps was imported before set-up was timed")
    sys.path.insert(0, SRC)
    t0 = perf_counter()
    import chebgaps.cli

    setup_s = perf_counter() - t0
    if os.path.dirname(os.path.dirname(os.path.abspath(chebgaps.cli.__file__))) != SRC:
        raise SystemExit(f"imported {chebgaps.cli.__file__}, not the package under {SRC}")

    import json
    import resource
    import traceback

    record = {"setup_s": setup_s, "wall_s": None, "exit_code": None, "error": None}
    if not setup_only:
        tracer = None
        if spans_path:
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)
        t1 = perf_counter()
        try:
            record["exit_code"] = chebgaps.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad argv this way
            record["exit_code"] = exc.code
        except Exception:
            record["error"] = traceback.format_exc()
        record["wall_s"] = perf_counter() - t1
        sys.stdout.flush()
        if tracer is not None:
            tracer.dump(spans_path)
    # ru_maxrss is in KiB on Linux
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
