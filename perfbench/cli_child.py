"""Traced CLI process: `python3 perfbench/cli_child.py ARGV...`.

Times `import qtoolkit.cli`, installs span recorders on every qtoolkit
module, runs `qtoolkit.cli.run(ARGV)` and exits with its code.  The
command's own output goes to stdout and stderr unchanged; the spans follow
on stderr as one final line that starts with SPANS_MARKER.
"""

import json
import sys
import time

SPANS_MARKER = "PERFBENCH-SPANS "


def main():
    start = time.perf_counter()
    import qtoolkit.cli
    import_s = time.perf_counter() - start

    from spans import Recorder
    recorder = Recorder()
    recorder.install()
    recorder.op = 0
    recorder.active = True
    code = qtoolkit.cli.run(sys.argv[1:])
    recorder.active = False
    sys.stderr.write("\n" + SPANS_MARKER + json.dumps(
        {"import_s": import_s, "spans": recorder.spans}) + "\n")
    sys.stderr.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
