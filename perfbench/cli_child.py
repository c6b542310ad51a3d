"""Run one command-line invocation of sievelab with spans recorded.

Usage: python3 cli_child.py SPANS_JSON [sievelab arguments...]

Times the cold import of ``sievelab.cli``, then installs the tracer and
calls ``sievelab.cli.main`` with the remaining arguments.  The spans, and
the import time, are written to SPANS_JSON when the command ends; the
exit code is the command's own.
"""

import json
import sys
import time

if __name__ == "__main__":
    start = time.perf_counter()
    import sievelab.cli

    import_s = time.perf_counter() - start

    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    code = tracer.run_op(0, "cli", lambda: sievelab.cli.main(sys.argv[2:]))
    sys.stdout.flush()
    export = tracer.export()
    export["import_s"] = import_s
    with open(sys.argv[1], "w") as fh:
        json.dump(export, fh)
    sys.exit(code)
