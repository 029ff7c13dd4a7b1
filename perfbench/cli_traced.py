"""`python -m shiftperm.cli` with the tracer installed, for the traced
cli-cold run.  Usage: python cli_traced.py <cli arguments>.

The span aggregate goes to stderr as one line starting with TRACE_TAG;
stdout and the exit code are the CLI's own.
"""

import json
import sys

import shiftperm.cli as cli  # first, so -X importtime charges numpy and sympy to shiftperm

from tracer import TRACE_TAG, Tracer


def main() -> int:
    tracer = Tracer()
    tracer.install()
    try:
        return tracer.run_query(0, cli.main, sys.argv[1:])
    except SystemExit as e:  # argparse rejects the command line
        return e.code
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        sys.stderr.write(TRACE_TAG + json.dumps(tracer.aggregate()) + "\n")


if __name__ == "__main__":
    sys.exit(main())
