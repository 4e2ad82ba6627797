"""The benchmark's own launcher for a ``repro serve`` daemon.

Runs :class:`repro.daemon.server.ReproDaemon` on an ephemeral port and
writes the port to ``--port-file`` once the socket is bound.  With
``--trace-out`` it first wraps the program's public functions (see
``layers.py``) inside this process, and writes the recorded spans to
that file after ``POST /shutdown`` stops the server.

    python3 perfbench/launch_daemon.py --store DIR --port-file FILE \
        [--trace-out FILE]
"""

from __future__ import annotations

import argparse
import os

import common


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--port-file", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    common.bootstrap()
    recorder = None
    if args.trace_out:
        import layers
        from spans import Recorder, dump_spans
        recorder = Recorder(id_prefix="d")
        layers.install(recorder)

    from repro.daemon.server import ReproDaemon
    daemon = ReproDaemon(store_path=args.store, port=0, quiet=True)
    tmp = f"{args.port_file}.tmp"
    with open(tmp, "w") as handle:
        handle.write(str(daemon.address[1]))
    os.replace(tmp, args.port_file)
    try:
        daemon.serve_forever()
    finally:
        daemon.shutdown()
        if recorder is not None:
            dump_spans(recorder.spans, args.trace_out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
