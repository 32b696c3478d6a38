"""Run the `onoma` command line as its console script does, optionally traced.

    python3 perfbench/onoma_cli.py [--spans PATH] ARGS...

With `--spans`, every layer's public functions are wrapped before the
command runs, and the spans and counters are written to PATH when it ends.
"""

import sys


def main(argv: list[str]) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    tracer = None
    if spans_path is not None:
        from trace_layers import Tracer

        tracer = Tracer()
        tracer.install()
    from onoma.cli import main as onoma_main

    try:
        return onoma_main(argv)
    finally:
        if tracer is not None:
            tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
