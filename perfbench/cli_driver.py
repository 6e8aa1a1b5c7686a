"""Traced CLI run: ``cli_driver.py SPANS_OUT ITEM_ID <photoent cli args...>``.

Wraps the public names photoent.cli and the library modules look up, calls
``photoent.cli.main`` with the remaining arguments, writes the spans and
counts to SPANS_OUT and exits with main's return code.
"""

from __future__ import annotations

import sys

from tracing import Tracer, install


def main() -> int:
    spans_out, item_id, *cli_args = sys.argv[1:]
    import photoent.cli

    tracer = Tracer()
    install(tracer)
    tracer.item = int(item_id)
    tracer.enabled = True
    root = tracer.open("cli.main")
    try:
        code = photoent.cli.main(cli_args)
    finally:
        tracer.close(root)
        tracer.enabled = False
        tracer.dump(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
