"""Run one morcal command in-process with every layer traced.

    python3 perfbench/traced_cli.py SPANS.json [morcal arguments...]

Imports ``morcal.cli`` (timed as the import span), wraps the layer
functions listed in ``tracing.LAYER_FUNCTIONS``, calls ``morcal.cli.main``
with the remaining arguments inside the root span, writes the spans to
SPANS.json and exits with the command's exit code.  ``morcal`` must be
importable from the checkout's ``src`` directory (the caller sets
PYTHONPATH).
"""

import sys
import time

import tracing


def main(argv):
    spans_path, morcal_args = argv[0], argv[1:]
    start = time.perf_counter()
    import morcal.cli

    import_s = time.perf_counter() - start
    recorder = tracing.Recorder()
    recorder.install()
    code = recorder.run(morcal.cli.main, morcal_args)
    recorder.dump(spans_path, import_s)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
