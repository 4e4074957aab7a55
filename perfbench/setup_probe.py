"""One set-up sample: a fresh interpreter made ready to run a workload.

    python3 perfbench/setup_probe.py WORKLOAD

Imports grs, builds every catalog entry and, for ``kernel``, parses the
corpus; then prints ``ready`` and exits.  ``run.py`` times it from process
start to that line.
"""

import sys

import checkout


def main(workload: str) -> None:
    checkout.import_grs()
    checkout.build_catalog()
    if workload == "kernel":
        import corpus
        corpus.load(corpus.PATH)
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1])
