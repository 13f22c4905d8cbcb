"""Run one querymind CLI command as the ``querymind`` console script does.

Usage: python3 launch.py READY_FILE TRACE_FILE -- <querymind arguments>

Writes ``time.monotonic()`` to READY_FILE as soon as ``querymind.cli`` is
imported, so the parent can measure set-up time from spawn. TRACE_FILE is
``-`` for an untraced run; otherwise the layers are wrapped in spans (see
tracer.py) and the aggregated spans are written there when the command ends.
"""
import sys
import time


def main() -> int:
    ready_path, trace_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: launch.py READY_FILE TRACE_FILE -- ARGS...")
    from querymind import cli

    ready = time.monotonic()
    with open(ready_path, "w") as fh:
        fh.write(repr(ready))
    if trace_path == "-":
        return cli.run(argv)

    import tracer

    spans = tracer.Tracer()
    tracer.install(spans)
    try:
        return cli.run(argv)
    finally:
        spans.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main())
