"""One benchmark pass in a fresh interpreter, started by run.py.

    python -E bench/child.py <checkout root> '<spec as JSON>'
    python -E bench/child.py --reference <spawn time>

Set-up time runs from the parent's spawn to the end of ``import nilorbit``,
so nothing but ``sys`` and ``time`` is imported before nilorbit: the
harness's own modules (``passes.py`` and what it imports) load afterwards.
``--reference`` times the same start with ``import numpy`` in place of
nilorbit: the interpreter and the library nilorbit needs but does not
control.  run.py divides set-up time by it.
"""
import sys
import time


def main(argv) -> int:
    if argv[1] == "--reference":
        import numpy  # noqa: F401

        print(time.monotonic() - float(argv[2]))
        return 0
    sys.path.insert(0, argv[1] + "/src")
    import nilorbit

    ready = time.monotonic()
    import passes

    return passes.main(argv[1], argv[2], ready, nilorbit)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
